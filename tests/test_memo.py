"""The per-field memo policy of ``amzv.ff.memoized``.

Only recursions, and the values they read again, are memoized: the chain
oracle and the harness cache nothing.  Every memoized function hands back
its cached object on a repeat call and a fresh, equal one after
``clear_memos()``; trivial inputs (an empty word, a single letter, a degree
below the depth or outside the window) are answered without taking a memo
entry; and the enumeration budget ``amzv.ff.BUDGET`` is read when a sum
runs, so it is part of no key.
"""

import ast
from pathlib import Path

import pytest

from amzv import (
    Element,
    Poly,
    antipode,
    bracket,
    coproduct,
    coproduct_letter,
    diamond,
    field_from_q,
    laurent_inv_pow,
    parse_word,
    power_sum_d,
    power_sum_lt,
    shuffle,
    word_to_array,
    zeta_trunc,
)
from amzv import cli, ff, verify, zeta
from amzv.coalgebra import coproduct_mzv_recursive, coproduct_mzv_word
from amzv.ff import memoized
from amzv.products import delta_coeff
from amzv.zeta import BudgetExceededError

SRC = Path(__file__).resolve().parent.parent / "src" / "amzv"

# every memo, by the name the benchmark's tracer counts it under
MEMO_NAMES = {
    "delta", "shuffle", "diamond", "bracket",
    "coproduct_letter", "coproduct", "antipode", "mzv_letter", "mzv_word",
    "depth1_power_sum", "partial_sums",
}


def sizes(spec):
    return {name: len(m) for name, m in spec._memos.items() if m}


def W(spec, text):
    return parse_word(text, spec)


def E(spec, text):
    return Element.from_word(spec, W(spec, text))


def A(spec, text):
    return word_to_array(W(spec, text))


# memo name -> one call that fills it, through the function a caller uses
CALLS = {
    "delta": lambda sp: delta_coeff(1, 2, 2, sp),
    "shuffle": lambda sp: shuffle(E(sp, "x[1,1]x[2,0]"), E(sp, "x[1,0]")),
    "diamond": lambda sp: diamond(E(sp, "x[1,1]x[2,0]"), E(sp, "x[1,0]")),
    "bracket": lambda sp: bracket(W(sp, "x[1,0]x[2,0]"), sp),
    "coproduct_letter": lambda sp: coproduct_letter(W(sp, "x[3,1]")[0]),
    "coproduct": lambda sp: coproduct(E(sp, "x[2,1]x[1,0]")),
    "antipode": lambda sp: antipode(E(sp, "x[2,1]x[1,0]")),
    "mzv_letter": lambda sp: coproduct_mzv_recursive(3, sp),
    "mzv_word": lambda sp: coproduct_mzv_word(W(sp, "x[2,0]x[1,0]"), sp),
    "depth1_power_sum": lambda sp: zeta._depth1_power_sum(sp, 1, 2, 12),
    "partial_sums": lambda sp: zeta._partial_sums(sp, W(sp, "x[1,1]x[1,0]"), 5, 12),
}


def test_every_memo_has_a_case():
    assert set(CALLS) == MEMO_NAMES


def test_memo_names_are_declared_once_each_in_the_package():
    declared = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "memoized"):
                declared.append(node.args[0].value)
    assert sorted(declared) == sorted(MEMO_NAMES)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_repeat_call_is_cached_and_clear_memos_drops_it(name):
    spec = field_from_q(3)
    call = CALLS[name]
    first = call(spec)
    assert sizes(spec).get(name, 0) >= 1
    assert call(spec) is first
    spec.clear_memos()
    assert sizes(spec) == {}
    again = call(spec)
    assert again == first
    # delta's values are the field's shared elements; every other result is
    # built anew
    if name != "delta":
        assert again is not first
    assert sizes(spec).get(name, 0) >= 1


def test_the_chain_oracle_and_the_harness_cache_nothing():
    # neither is a recursion: the oracle's own per-call sums enumerate each
    # (s, degree) once, and the harness builds its basis words on each call
    spec = field_from_q(3)
    a = Poly(spec, (spec.g, spec.one, spec.one))
    assert laurent_inv_pow(a, 2, 6) is not laurent_inv_pow(a, 2, 6)
    w = A(spec, "x[1,1]x[1,0]")
    assert power_sum_d(w, 2, 10) is not power_sum_d(w, 2, 10)
    verify.random_element(verify.Rng(1), 3, 3, spec)
    assert len(verify._with_elements(spec, 3)) == 2 * 3 * 3
    assert sizes(spec) == {}


# memo names each trivial call may fill (its callees included); {} for none
TRIVIAL = {
    "shuffle by 1": (lambda sp: shuffle(Element.one(sp), E(sp, "x[2,1]x[1,0]")), {}),
    "shuffle of ()": (lambda sp: shuffle(E(sp, "x[2,1]"), Element.one(sp)), {}),
    "diamond by 1": (lambda sp: diamond(Element.one(sp), E(sp, "x[2,1]x[1,0]")), {}),
    "diamond of ()": (lambda sp: diamond(E(sp, "x[2,1]"), Element.one(sp)), {}),
    "bracket of 1": (lambda sp: bracket((), sp), {}),
    "coproduct of 1": (lambda sp: coproduct(Element.one(sp)), {}),
    "coproduct of a letter": (lambda sp: coproduct(E(sp, "x[3,1]")),
                              {"coproduct_letter", "bracket", "delta"}),
    "antipode of 1": (lambda sp: antipode(Element.one(sp)), {}),
    "oracle of 1": (lambda sp: coproduct_mzv_word((), sp), {}),
    "oracle of a letter": (lambda sp: coproduct_mzv_word(W(sp, "x[2,0]"), sp),
                           {"mzv_letter", "mzv_word", "shuffle", "diamond", "delta"}),
    "power sum below the depth": (
        lambda sp: power_sum_d(A(sp, "x[1,0]x[1,1]x[1,0]"), 1, 10), {}),
    "power sum at d < 0": (lambda sp: power_sum_d(A(sp, "x[1,0]"), -1, 10), {}),
    "S_<0 of a word": (lambda sp: power_sum_lt(A(sp, "x[2,1]x[1,0]"), 0, 10), {}),
    "zeta of 1": (lambda sp: zeta_trunc(Element.one(sp), 12), {}),
    "depth1 at d = 0": (lambda sp: zeta._depth1_power_sum(sp, 1, 0, 12), {}),
    "depth1 past the valuation": (lambda sp: zeta._depth1_power_sum(sp, 5, 3, 12), {}),
    "depth1 past the window": (lambda sp: zeta._depth1_power_sum(sp, 2, 4, 12), {}),
}


@pytest.mark.parametrize("case", sorted(TRIVIAL))
def test_trivial_inputs_take_no_memo_entry(case):
    call, allowed = TRIVIAL[case]
    spec = field_from_q(3)
    call(spec)
    assert set(sizes(spec)) <= set(allowed)


def test_a_single_letter_is_cached_only_under_coproduct_letter():
    spec = field_from_q(3)
    x = E(spec, "x[3,1]")
    assert coproduct(x) is coproduct_letter(W(spec, "x[3,1]")[0])
    assert "coproduct" not in sizes(spec)
    # the closed form's own memos, and nothing of the word recursion
    assert set(sizes(spec)) == {"coproduct_letter", "bracket", "delta"}
    assert sizes(spec)["coproduct_letter"] == 1


def test_depth1_windows_outside_the_kernel_are_not_cached():
    spec = field_from_q(3)
    N = 12
    for s in (1, 2, 3):
        for d in range(0, N + 1):
            zeta._depth1_power_sum(spec, s, d, N)
    # one entry per (s, d) with 1 <= d and d(s + 1) < N
    want = sum(1 for s in (1, 2, 3) for d in range(1, N + 1) if d * (s + 1) < N)
    assert sizes(spec) == {"depth1_power_sum": want}


def test_zeta_asks_a_tail_only_for_its_heads_window():
    # the head x[3,0] reaches d(3 + 1) < 16, so d <= 3, and depth 3 needs
    # d >= 2, so S_<t is built at t = 3, 4; the tail x[1,0]x[1,0] alone would
    # reach d(1 + 1) < 16, d <= 7, but is asked only up to t = 2
    spec = field_from_q(2)
    zeta_trunc(E(spec, "x[3,0]x[1,0]x[1,0]"), 16)
    asked = {(len(w), t) for w, t, N in spec._memos["partial_sums"]}
    assert asked == {(3, 3), (3, 4), (2, 2), (1, 1)}
    # so the depth-one kernel ran at no degree above 3
    assert max(d for s, d, N in spec._memos["depth1_power_sum"]) == 3


def test_partial_sums_stop_at_the_heads_window_end(capsys):
    # S_m(w) is zero below the horizon from its head's window end on, so
    # S_{<d} at any d asks for no partial sum past that end
    spec = field_from_q(3)
    e = E(spec, "x[2,1]x[1,0]") + E(spec, "x[1,1]")
    assert zeta.power_sum_lt_element(e, 10**6, 14) == zeta_trunc(e, 14)
    keys = spec._memos["partial_sums"]
    assert keys and all(t <= zeta._degree_end(w[0].n, N) for w, t, N in keys)
    powsum = ["powsum", "--q", "3", "--d", str(10**6), "--prec", "14", "x[2,1]x[1,0]"]
    assert cli.main(powsum + ["--lt"]) == 0
    assert capsys.readouterr().out == "g^1*u^6 + u^8 + g^1*u^12 + O(u^14)\n"
    assert cli.main(powsum) == 0
    assert capsys.readouterr().out == "0 + O(u^14)\n"


def test_partial_sums_are_built_once_per_degree_in_any_order():
    # a cold ask at the window end D builds S_<t for every t <= D on the
    # way, so asking each d < D afterwards, in any order, adds no entry
    N = 16
    spec = field_from_q(3)
    arr = A(spec, "x[1,1]x[1,0]x[2,1]")
    D = zeta._degree_end(1, N)
    top = power_sum_lt(arr, D, N)
    keys = set(spec._memos["partial_sums"])
    got = {d: power_sum_lt(arr, d, N) for d in reversed(range(D))}
    assert set(spec._memos["partial_sums"]) == keys
    fresh = field_from_q(3)
    arr = A(fresh, "x[1,1]x[1,0]x[2,1]")
    want = {d: power_sum_lt(arr, d, N) for d in range(D + 1)}
    assert want == {**got, D: top}
    assert sum(not v.is_zero() for v in want.values()) >= 3


def test_partial_sums_stack_grows_with_the_depth_not_the_degree(monkeypatch):
    step = zeta._partial_sums
    depth = [0, 0]  # current, deepest

    def nested(*args):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return step(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(zeta, "_partial_sums", nested)
    # a depth-3 word whose head's window ends at D = 8
    e = E(field_from_q(2), "x[1,0]x[1,0]x[1,0]")
    assert zeta._degree_end(1, 16) == 8
    assert not zeta_trunc(e, 16).is_zero()
    assert 3 <= depth[1] <= 2 * 3


def test_lowered_budget_raises_on_a_fresh_field(monkeypatch, capsys):
    powsum = ["powsum", "--q", "3", "--d", "3", "--prec", "10", "x[1,0]"]
    spec = field_from_q(3)
    power_sum_d(A(spec, "x[1,0]"), 3, 10)
    zeta_trunc(E(spec, "x[1,0]"), 10)
    assert cli.main(powsum) == 0
    capsys.readouterr()
    monkeypatch.setattr(ff, "BUDGET", 5)
    spec = field_from_q(3)
    with pytest.raises(BudgetExceededError, match=r"q\^d = 3\^3 exceeds budget 5"):
        power_sum_d(A(spec, "x[1,0]"), 3, 10)
    with pytest.raises(BudgetExceededError, match=r"q\^d = 3\^2 exceeds budget 5"):
        zeta_trunc(E(spec, "x[1,0]"), 10)
    assert cli.main(powsum) == 1
    assert capsys.readouterr().err == "error: q^d = 3^2 exceeds budget 5\n"


def test_memoized_caches_per_field_by_arguments():
    runs = []

    @memoized("test-square")
    def square(spec, n):
        """n squared, counted."""
        runs.append((spec.q, n))
        return n * n

    assert square.__name__ == "square" and square.__doc__ == "n squared, counted."
    s2, s3 = field_from_q(2), field_from_q(3)
    assert [square(s2, 4), square(s2, 4), square(s3, 4), square(s2, 5)] == [16, 16, 16, 25]
    assert runs == [(2, 4), (3, 4), (2, 5)]
    assert sizes(s2) == {"test-square": 2} and sizes(s3) == {"test-square": 1}
    s2.clear_memos()
    assert sizes(s2) == {} and square(s2, 4) == 16
    assert runs[-1] == (2, 4) and sizes(s3) == {"test-square": 1}

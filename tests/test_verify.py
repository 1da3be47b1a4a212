import dataclasses
import hashlib
import sys
import tracemalloc
from itertools import product

import pytest

from amzv import (
    check_algebra,
    check_coalgebra,
    check_coproduct_oracle,
    check_hopf,
    check_zeta_homomorphism,
    random_element,
    word_weight,
)
from amzv import Element, basis_words, coproduct, faults, parse_element, parse_laurent, parse_word
from amzv import coalgebra, ff, field_from_q, products, verify
from amzv.verify import CheckReport, Rng

from conftest import get_spec


# -- rng ------------------------------------------------------------------------


def test_rng_reference_stream():
    # first outputs of the documented generator for seed 0
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_rng_determinism_and_split():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c, d = Rng(7).split(), Rng(7).split()
    assert c.next_u64() == d.next_u64()
    with pytest.raises(ValueError):
        Rng(1).below(0)


@pytest.mark.parametrize("n", [1, 2, 3, 10**6, 2**32 + 5, 2**63 + 1, 2**64 - 1, 2**64],
                         ids=["1", "2", "3", "10^6", "2^32+5", "2^63+1", "2^64-1", "2^64"])
def test_below_reduces_one_output_up_to_2_64(n):
    # the draws every pinned report was taken with
    a, b = Rng(11), Rng(11)
    assert a.below(n) == b.next_u64() % n
    assert a.state == b.state


@pytest.mark.parametrize("n,outputs", [(2**64 + 1, 2), (63 * 64**11, 2), (2**128, 2),
                                       (2**128 + 1, 3)],
                         ids=["2^64+1", "63*64^11", "2^128", "2^128+1"])
def test_below_joins_enough_outputs_to_cover_n(n, outputs):
    a, b = Rng(11), Rng(11)
    x = 0
    for _ in range(outputs):
        x = x << 64 | b.next_u64()
    assert a.below(n) == x % n
    assert a.state == b.state


def test_random_element_reaches_the_deepest_words_past_2_64():
    # at q = 64, weight 12 has 63 * 64^11 (about 2^72) words, 84 % of them of
    # depth 12; a draw from one 64-bit output never reached past the first 2^64
    spec = field_from_q(64)
    rng = Rng(1)
    depths = [len(w) for w in (next(iter(random_element(rng, 12, 1, spec).idx))
                               for _ in range(600)) if word_weight(w) == 12]
    assert len(depths) > 20
    assert sum(d == 12 for d in depths) > len(depths) // 2


def test_random_element_determinism(spec_q3):
    e1 = random_element(Rng(99), 4, 3, spec_q3)
    e2 = random_element(Rng(99), 4, 3, spec_q3)
    assert e1 == e2


def test_random_element_bounds(spec_q3):
    rng = Rng(123)
    for _ in range(50):
        e = random_element(rng, 3, 2, spec_q3)
        assert e.weights() <= {1, 2, 3}
        # colliding draws may cancel, so the term count is only bounded above
        assert len(e.terms) <= 2
    single = random_element(Rng(5), 1, 1, spec_q3)
    (w,) = single.terms
    assert word_weight(w) == 1 and len(w) == 1


# -- reports -----------------------------------------------------------------------


def _strip_time(rep: CheckReport):
    d = dataclasses.asdict(rep)
    d.pop("millis")
    return d


def test_reports_reproducible(spec_q2):
    a = check_algebra(spec_q2, 4)
    b = check_algebra(spec_q2, 4)
    assert _strip_time(a) == _strip_time(b)
    za = check_zeta_homomorphism(spec_q2, d_max=1, max_weight=2, prec=10,
                                 trials=5, seed=11, zeta_prec=8, chen_rs=3)
    zb = check_zeta_homomorphism(spec_q2, d_max=1, max_weight=2, prec=10,
                                 trials=5, seed=11, zeta_prec=8, chen_rs=3)
    assert _strip_time(za) == _strip_time(zb)


def test_expect_pass_counts_one_instance():
    rep = CheckReport("thm-x", 3, 2)
    rep.expect(True, "family", u=(), n=1)
    assert (rep.instances, rep.failures, rep.passed) == (1, [], True)


def test_expect_failure_renders_each_value_kind(spec_q3):
    spec = spec_q3
    word = parse_word("x[2,1]x[1,0]", spec)
    rep = CheckReport("thm-x", 3, 2)
    rep.expect(
        False, "family",
        empty=(),
        word=word,
        element=parse_element("g^1*x[2,0] + x[1,1]", spec),
        pair=coproduct(parse_element("x[1,1]", spec)),
        zero=Element.zero(spec),
        series=parse_laurent("1 + g^1*u^2 + O(u^5)", spec),
        unit=spec.g,
        nought=spec.zero,
        count=7,
    )
    assert rep.instances == 1
    assert rep.failures == [
        "family empty=1 word=x[2,1]x[1,0] element=x[1,1] + g^1*x[2,0] "
        "pair=1 ⊗ x[1,1] + x[1,1] ⊗ 1 zero=0 series=1 + g^1*u^2 + O(u^5) "
        "unit=g^1 nought=0 count=7"
    ]
    assert not rep.passed


def test_report_with_no_instance_fails(spec_q2):
    rep = CheckReport("thm-x", 2, 1)
    assert (rep.instances, rep.failures, rep.passed) == (0, [], False)
    assert rep.text_block() == "FAIL thm-x (q=2, bound=1, 0 instances, 0 ms)\n  no instance checked"
    # below total weight 2 there is no pair of nonempty words to multiply
    empty = check_algebra(spec_q2, 1)
    assert (empty.instances, empty.failures, empty.passed) == (0, [], False)
    assert empty.text_block().endswith("\n  no instance checked")


def test_machine_line_shape(spec_q2):
    rep = check_coproduct_oracle(spec_q2, max_n=4, table_n=4, word_weight_bound=3)
    fields = rep.machine_line().split("\t")
    assert len(fields) == 6
    assert fields[0] == rep.theorem_id
    assert fields[1] == "2"
    assert fields[4] == "0"


def test_text_block_pass_and_fail(spec_q3):
    rep = check_algebra(spec_q3, 3)
    assert rep.text_block().startswith("PASS")
    with faults.inject_fault(faults.DELTA_CORRUPT, spec_q3):
        bad = check_algebra(spec_q3, 4)
    assert bad.text_block().startswith("FAIL")
    assert "counterexample" in bad.text_block()


# -- the checks themselves at small bounds ---------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_checks_pass_small(q):
    spec = get_spec(q)
    assert check_algebra(spec, 5).passed
    assert check_coalgebra(spec, 4).passed
    assert check_hopf(spec, 4).passed
    assert check_coproduct_oracle(spec, max_n=5, table_n=8, word_weight_bound=4).passed


def _record_basis_weights(monkeypatch):
    """The weights of every basis that ``verify`` builds or streams from now
    on."""
    built = []
    for name in ("basis_words", "iter_basis_words"):
        build = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda w, spec, build=build: built.append(w) or build(w, spec))
    return built


def test_dimension_family_stops_at_the_budget(monkeypatch):
    # q = 3 has 2 * 3^(w - 1) words of weight w: 54 at w = 4, 162 at w = 5
    built = _record_basis_weights(monkeypatch)
    monkeypatch.setattr(ff, "BUDGET", 54)
    assert check_hopf(field_from_q(3), max_weight=2).passed
    assert max(built) == 4


def test_dimension_family_keeps_no_word():
    # F_16 has 15 * 16^(w - 1) words of weight w: 983 040 at w = 5, the last
    # weight under the budget; a memoized list of them peaks near 100 MB
    spec = field_from_q(16)
    tracemalloc.start()
    try:
        assert check_hopf(spec, 2).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_word_oracle_builds_no_basis(monkeypatch):
    built = _record_basis_weights(monkeypatch)
    rep = check_coproduct_oracle(field_from_q(3), max_n=3, table_n=3, word_weight_bound=4)
    assert rep.passed and built == []


def test_the_zeta_check_builds_no_basis(monkeypatch):
    built = _record_basis_weights(monkeypatch)
    rep = check_zeta_homomorphism(field_from_q(3), trials=5)
    assert rep.passed and built == []


def _nested_loops(rows, n, bound):
    """The n-tuples of positive total weight at most ``bound``, in the order
    of one loop per slot, each weight running up from 1: the order every
    pinned report was taken in."""
    if n == 1:
        for wa in range(1, bound + 1):
            yield from product(rows[wa])
    elif n == 2:
        for wa in range(1, bound):
            for wb in range(1, bound - wa + 1):
                yield from product(rows[wa], rows[wb])
    else:
        for wa in range(1, bound - 1):
            for wb in range(1, bound - wa):
                for wc in range(1, bound - wa - wb + 1):
                    yield from product(rows[wa], rows[wb], rows[wc])


@pytest.mark.parametrize("q", [2, 3])
def test_tuples_walk_the_nested_loops_in_order(q):
    rows = verify._basis(get_spec(q), 6)
    for n in (1, 2, 3):
        for bound in range(7):
            want = list(_nested_loops(rows, n, bound))
            assert list(verify._tuples(rows, n, bound)) == want, (n, bound)
            assert bool(want) == (bound >= n)


@pytest.mark.parametrize("check", [check_algebra, check_coalgebra, check_hopf],
                         ids=lambda c: c.__name__)
def test_each_structural_check_lists_each_weight_once(check, monkeypatch):
    # one table per call, sliced for the smaller bounds
    asked = []
    build = verify.basis_words
    monkeypatch.setattr(verify, "basis_words",
                        lambda w, spec: asked.append(w) or build(w, spec))
    assert check(field_from_q(3), 5).passed
    assert asked and sorted(asked) == sorted(set(asked)), asked


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_random_element_draws_the_listed_basis_word(q):
    # the draw the harness made when it listed each weight's basis
    spec = get_spec(q)

    def listed(rng):
        acc = Element.zero(spec)
        for _ in range(1 + rng.below(3)):
            words = verify.basis_words(1 + rng.below(4), spec)
            word = words[rng.below(len(words))]
            acc = acc + Element.from_word(spec, word, spec.unit_from_exp(rng.below(q - 1)))
        return acc

    for seed in range(40):
        assert random_element(Rng(seed), 4, 3, spec) == listed(Rng(seed))


def test_random_element_is_not_capped_by_the_budget(monkeypatch, spec_q3):
    monkeypatch.setattr(ff, "BUDGET", 1)
    e = random_element(Rng(3), 30, 3, spec_q3)
    assert e.weights() and max(e.weights()) <= 30


def test_checks_pass_q4_small(spec_q4):
    assert check_algebra(spec_q4, 4).passed
    assert check_coalgebra(spec_q4, 4).passed


# -- negative controls --------------------------------------------------------------------


def test_delta_corruption_trips_algebra(spec_q3):
    with faults.inject_fault(faults.DELTA_CORRUPT, spec_q3):
        rep = check_algebra(spec_q3, 4)
    assert rep.failures
    # counterexamples render both sides
    assert any("lhs=" in f and "rhs=" in f for f in rep.failures)
    assert check_algebra(spec_q3, 4).passed


def test_dropped_unit_tensor_trips_coalgebra(spec_q3):
    with faults.inject_fault(faults.DROP_UNIT_TENSOR, spec_q3):
        rep = check_coalgebra(spec_q3, 3)
    assert rep.failures
    assert any(f.startswith(("counit", "unit-tensorand")) for f in rep.failures)
    assert check_coalgebra(spec_q3, 3).passed


def test_antipode_sign_trips_hopf(spec_q3):
    with faults.inject_fault(faults.ANTIPODE_SIGN, spec_q3):
        rep = check_hopf(spec_q3, 3)
    assert rep.failures
    assert any(f.startswith("antipode") for f in rep.failures)
    assert check_hopf(spec_q3, 3).passed


# mode -> (tripped check, instances, failures, SHA-256 of the failure lines),
# recorded at q=3 before the fault switches moved out of the algebra code
FAULT_PINS = {
    faults.DELTA_CORRUPT: (
        lambda spec: check_algebra(spec, 4), 792, 128,
        "54befe2874955afe06f87714d01d5f3a1530249aef7e2d6ed30deb0c5c035427",
    ),
    faults.DROP_UNIT_TENSOR: (
        lambda spec: check_coalgebra(spec, 3), 215, 83,
        "ef48bb414b92b0535ef93a41cd4738b3f5ebc15e2cfc6ac0f6f7fdc863ce211d",
    ),
    faults.ANTIPODE_SIGN: (
        lambda spec: check_hopf(spec, 3), 102, 56,
        "393ab70cd406c795c7b69af102b3a4a652dc738af7fbd3b0d4113a6a394498c2",
    ),
}


@pytest.mark.parametrize("mode", faults.ALL_MODES)
def test_negative_control_reports_are_pinned(mode, spec_q3):
    check, instances, failures, digest = FAULT_PINS[mode]
    with faults.inject_fault(mode, spec_q3):
        rep = check(spec_q3)
    body = "".join(f + "\n" for f in rep.failures)
    assert (rep.instances, len(rep.failures)) == (instances, failures)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
    assert check(spec_q3).passed


@pytest.mark.parametrize("q", [2, 4])
def test_antipode_sign_is_a_no_op_in_characteristic_two(q):
    # the flipped sign is -1 = +1 here, so the control cannot trip
    spec = get_spec(q)
    with faults.inject_fault(faults.ANTIPODE_SIGN, spec):
        assert check_hopf(spec, 3).passed


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("mode", faults.ALL_MODES)
def test_corrupted_cores_keep_their_maps_zero_free(mode, q):
    # the switches act on index maps, which every sum assumes hold no 0
    spec = get_spec(q)
    words = [u for w in range(1, 5) for u in basis_words(w, spec)]
    triples = [(r, s, i) for r in range(1, 5) for s in range(1, 5) for i in range(1, r + s)]
    clean = {u: coalgebra._antipode_word(spec, u) for u in words}
    clean_delta = {t: products._delta(spec, *t) for t in triples}
    with faults.inject_fault(mode, spec):
        for u in words:
            assert 0 not in coalgebra._coproduct_word(spec, u).values(), u
            assert 0 not in coalgebra._antipode_word(spec, u).values(), u
            if mode == faults.ANTIPODE_SIGN and spec.p == 2:
                assert coalgebra._antipode_word(spec, u) == clean[u], u
        # a field index each, bumped by one at (1,2,2) alone under delta-corrupt
        bumped = {t: spec.idx_ops[0][c][1] if t == (1, 2, 2) and mode == faults.DELTA_CORRUPT
                  else c for t, c in clean_delta.items()}
        assert {t: products._delta(spec, *t) for t in triples} == bumped


def _amzv_bindings():
    return {
        (modname, attr): obj
        for modname, m in list(sys.modules.items())
        if m is not None and (modname == "amzv" or modname.startswith("amzv."))
        for attr, obj in vars(m).items()
    }


def _rebound(before, now):
    return sorted(k for k, obj in before.items() if now.get(k) is not obj)


@pytest.mark.parametrize("mode", faults.ALL_MODES)
def test_inject_fault_restores_every_name(mode, spec_q3):
    before = _amzv_bindings()
    with faults.inject_fault(mode, spec_q3):
        during = _amzv_bindings()
    assert ("amzv.coalgebra" if mode != faults.DELTA_CORRUPT else "amzv.products") in {
        modname for modname, _ in _rebound(before, during)
    }
    assert _rebound(before, _amzv_bindings()) == []
    with pytest.raises(RuntimeError, match="inside the block"):
        with faults.inject_fault(mode, spec_q3):
            assert _rebound(before, _amzv_bindings())
            raise RuntimeError("inside the block")
    assert _rebound(before, _amzv_bindings()) == []


def test_fault_requires_known_mode(spec_q3):
    with pytest.raises(ValueError):
        with faults.inject_fault("no-such-mode", spec_q3):
            pass

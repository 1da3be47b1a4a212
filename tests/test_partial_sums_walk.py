"""How the factorized route builds and shares its tables of partial sums.

``zeta._lt_word`` reaches S_{<d}(w) through one memoized table per word and
precision, whose entry i is S_{<len(w)+i}(w).  A walk returns a built entry
or extends the table in one ascending loop, one degree per entry, so a walk
that asks its tail for S_{<t}, right after it asked for S_{<t-1}, builds one
new tail entry and not the whole walk again.  Walking from the start every
time made the work grow with the square of the degree: 4 084 step calls for
the cold check below, where the tables hold 994 steps.

A walk stores entry i at index i, by a slice assignment, from entries it
read by index, so walks on several threads can share a table; an interrupted
walk, or one that the budget refuses, leaves a table that the next walk
completes to what a fresh field builds.
"""

import random
import sys
import threading

import pytest

from amzv import (
    ff, field_from_q, parse_element, parse_word, power_sum_lt, word_to_array, zeta, zeta_trunc,
)
from amzv.verify import check_zeta_homomorphism
from amzv.zeta import BudgetExceededError
from test_zeta_golden import GRID, golden_lines


def tables(spec):
    return spec._memos["partial_sums"]


def steps(spec):
    """Every entry of every table: the steps built so far."""
    return sum(map(len, tables(spec).values()))


def count_kernel_calls(monkeypatch):
    calls = [0]
    kernel = zeta._depth1_window

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(zeta, "_depth1_window", counted)
    return calls


def test_a_cold_zeta_check_builds_each_step_once(monkeypatch):
    kernel_calls = count_kernel_calls(monkeypatch)
    spec = field_from_q(2)
    rep = check_zeta_homomorphism(spec, trials=25)
    assert rep.passed and rep.instances == 170
    # the Chen family's words, read at chen_prec = 96, add 38 steps
    assert len(tables(spec)) == 252 and steps(spec) == 994
    # every step sums one degree: degree 0, only at a one-letter word's
    # first entry, takes S_0 = 1, and every other degree asks the kernel once
    letters = sum(1 for w, N in tables(spec) if len(w) == 1)
    assert kernel_calls[0] + letters == 994


def test_a_cold_zeta_check_walks_only_words_that_are_not_zero(monkeypatch):
    # power_sum_lt_element skips each word whose S_{<d} the depth rule makes
    # zero, and a step walks no tail that the rule makes zero; asking
    # _lt_word for the words too made 2 771 calls here, and for the tails
    # 1 176
    calls = [0]
    walk = zeta._lt_word

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(zeta, "_lt_word", counted)
    rep = check_zeta_homomorphism(field_from_q(2), trials=25)
    assert rep.passed and rep.instances == 170
    assert calls[0] == 1140


def test_every_walk_is_handed_a_top_inside_its_heads_window(monkeypatch):
    # each reader asks the depth rule once and hands the walk its answer, so
    # a walk never sees zeta_trunc's d = N + 1 or a tail's degree past its
    # own window end
    tops = []
    walk = zeta._lt_word

    def recorded(spec, w, top, N):
        tops.append((w, top, N))
        return walk(spec, w, top, N)

    monkeypatch.setattr(zeta, "_lt_word", recorded)
    assert check_zeta_homomorphism(field_from_q(2), trials=25).passed
    for q in GRID:
        golden_lines(q)
    bad = [(w, top, N) for w, top, N in tops
           if not len(w) <= top <= zeta._lt_top(w, N + 1, N)]
    assert len(tops) > 1140 and not bad, bad[:5]


def test_asking_ascending_degrees_calls_one_new_step_each(monkeypatch):
    kernel_calls = count_kernel_calls(monkeypatch)
    spec = field_from_q(3)
    arr = word_to_array(parse_word("x[1,1]x[1,0]", spec))
    N = 16  # the head's window ends at degree 8
    power_sum_lt(arr, 2, N)
    for d in range(3, 9):
        built, before = steps(spec), kernel_calls[0]
        power_sum_lt(arr, d, N)
        # S_<d(w) is one new entry, whose degree asks the tail for at most
        # one new entry of its own
        assert len(tables(spec)[arr, N]) == d - 1, d
        assert 1 <= steps(spec) - built <= 2, d
        assert kernel_calls[0] - before <= 2, d


# words that share tails, so that walks on one thread extend the tables that
# walks on another are reading
SHARED_TAILS = ("x[1,0]", "x[1,1]x[1,0]", "x[2,1]x[1,0]x[1,1]", "x[1,0]x[1,0]",
                "x[1,1]x[2,0]x[1,0]")


def test_concurrent_walks_share_a_table_safely():
    N, threads = 16, 4
    fresh = field_from_q(3)
    want = {(text, d): power_sum_lt(parse_word(text, fresh), d, N)
            for text in SHARED_TAILS for d in range(1, 9)}
    rng = random.Random(26)
    wrong = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            spec = field_from_q(3)
            words = {text: parse_word(text, spec) for text in SHARED_TAILS}
            orders = [rng.sample(sorted(want), len(want)) for _ in range(threads)]
            got = [{} for _ in range(threads)]

            def walk(k):
                for text, d in orders[k]:
                    got[k][text, d] = power_sum_lt(words[text], d, N)

            workers = [threading.Thread(target=walk, args=(k,)) for k in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            wrong += sum(g != want for g in got)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == 0


def fresh_walk(q, text, d, N):
    spec = field_from_q(q)
    return power_sum_lt(parse_word(text, spec), d, N), tables(spec)


def test_an_interrupted_walk_leaves_a_consistent_table(monkeypatch):
    # the kernel fails at S_2(3), which the tail x[3,0]x[4,0] asks for in
    # its second step, while the head x[1,0] is in its second step too
    text, d, N = "x[1,0]x[3,0]x[4,0]", 8, 16
    want, want_tables = fresh_walk(2, text, d, N)
    assert not want.is_zero() and sum(map(len, want_tables.values())) > 3
    kernel = zeta._depth1_window

    def failing(spec, s, m, prec):
        if (s, m) == (3, 2):
            raise RuntimeError("interrupted")
        return kernel(spec, s, m, prec)

    monkeypatch.setattr(zeta, "_depth1_window", failing)
    spec = field_from_q(2)
    w = parse_word(text, spec)
    with pytest.raises(RuntimeError, match="interrupted"):
        power_sum_lt(w, d, N)
    # each of the three walks stored its first entry and no other
    assert [len(sums) for sums in tables(spec).values()] == [1, 1, 1]
    monkeypatch.setattr(zeta, "_depth1_window", kernel)
    assert power_sum_lt(w, d, N) == want
    assert tables(spec) == want_tables


def test_a_refused_walk_adds_no_entry(monkeypatch):
    text, N = "x[1,1]x[1,0]", 16
    spec = field_from_q(3)
    w = parse_word(text, spec)
    power_sum_lt(w, 4, N)
    built = {key: list(sums) for key, sums in tables(spec).items()}
    monkeypatch.setattr(ff, "BUDGET", 3**4)
    with pytest.raises(BudgetExceededError, match=r"q\^d = 3\^5 exceeds budget 81"):
        power_sum_lt(w, 8, N)
    assert tables(spec) == built
    monkeypatch.undo()
    want, want_tables = fresh_walk(3, text, 8, N)
    assert power_sum_lt(w, 8, N) == want
    assert tables(spec) == want_tables


def test_a_refused_walk_on_a_new_word_adds_no_table(monkeypatch):
    spec = field_from_q(3)
    monkeypatch.setattr(ff, "BUDGET", 5)
    with pytest.raises(BudgetExceededError, match=r"q\^d = 3\^2 exceeds budget 5"):
        power_sum_lt(parse_word("x[1,0]", spec), 9, 20)
    assert tables(spec) == {}


def test_an_element_refuses_before_any_word_is_walked(monkeypatch):
    # the third word's walk is the one past the budget; the element decides
    # every word's last step and refuses it before it walks the first
    spec = field_from_q(3)
    monkeypatch.setattr(ff, "BUDGET", 27)
    e = parse_element("x[3,0] + x[2,1]x[1,0] + x[1,0]", spec)
    with pytest.raises(BudgetExceededError, match=r"^q\^d = 3\^4 exceeds budget 27$"):
        zeta_trunc(e, 14)
    assert tables(spec) == {} and spec._memos["depth1_power_sum"] == {}


def test_a_lowered_budget_refuses_a_built_value_as_on_a_fresh_field(monkeypatch):
    # the walk decides before it reads its table, so whether a value refuses
    # does not depend on what the memo holds
    text, N = "x[1,1]x[1,0]", 16
    spec = field_from_q(3)
    w = parse_word(text, spec)
    want = power_sum_lt(w, 5, N)
    power_sum_lt(w, 8, N)
    built = {key: list(sums) for key, sums in tables(spec).items()}
    monkeypatch.setattr(ff, "BUDGET", 3**4)
    for sp in (spec, field_from_q(3)):
        with pytest.raises(BudgetExceededError, match=r"q\^d = 3\^5 exceeds budget 81"):
            power_sum_lt(parse_word(text, sp), 8, N)
    # S_{<5} sums degrees up to 4 only, so the built entry answers
    assert power_sum_lt(w, 5, N) == want
    assert tables(spec) == built

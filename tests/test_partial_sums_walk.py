"""How often the factorized route calls its memoized step.

``zeta._lt_word`` reaches S_{<d}(w) through the steps ``_partial_sums(w, t)``
for t up to d.  It resumes after the highest step already in the memo, so a
step that asks its tail for S_{<t-1}, right after its predecessor asked for
S_{<t-2}, calls one new tail step and not the whole walk again.  Walking
from the start every time made the calls grow with the square of the
degree: 4 084 calls for the check below.
"""

from amzv import field_from_q, parse_word, power_sum_lt, word_to_array, zeta
from amzv.verify import check_zeta_homomorphism


def count_steps(monkeypatch):
    calls = [0]
    step = zeta._partial_sums

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(zeta, "_partial_sums", counted)
    return calls


def test_a_cold_zeta_check_calls_each_step_about_twice(monkeypatch):
    calls = count_steps(monkeypatch)
    spec = field_from_q(2)
    rep = check_zeta_homomorphism(spec, trials=25)
    assert rep.passed and rep.instances == 170
    built = len(spec._memos["partial_sums"])
    # each step is built once and asked once more, by its successor; the
    # Chen family's words, read at chen_prec = 96, add 38 steps and 60 calls
    assert built == 994
    assert calls[0] == 1736 <= 2 * built


def test_a_cold_zeta_check_walks_only_words_that_are_not_zero(monkeypatch):
    # power_sum_lt_element skips each word whose S_{<d} the depth rule makes
    # zero; asking _lt_word for them too made 2 771 calls here
    calls = [0]
    walk = zeta._lt_word

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(zeta, "_lt_word", counted)
    rep = check_zeta_homomorphism(field_from_q(2), trials=25)
    assert rep.passed and rep.instances == 170
    assert calls[0] == 1176


def test_asking_ascending_degrees_calls_one_new_step_each(monkeypatch):
    calls = count_steps(monkeypatch)
    spec = field_from_q(3)
    arr = word_to_array(parse_word("x[1,1]x[1,0]", spec))
    N = 16  # the head's window ends at degree 8
    power_sum_lt(arr, 2, N)
    for d in range(3, 9):
        before = calls[0]
        power_sum_lt(arr, d, N)
        # S_<d(w) is one new step, which asks its predecessor and at most one
        # new tail step, which asks its own predecessor
        assert calls[0] - before <= 4, d

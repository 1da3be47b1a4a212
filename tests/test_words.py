import operator
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from amzv import (
    Element,
    check_coalgebra,
    check_hopf,
    field_from_q,
    basis_words,
    format_element,
    format_word,
    letter,
    parse_element,
    parse_word,
    word_weight,
)
from amzv import ff, words
from amzv.ff import BudgetExceededError, FieldElem
from amzv.words import (
    EMPTY,
    TensorElement,
    accumulate,
    accumulate_outer,
    basis_word,
    bilinear,
    iter_basis_words,
    linear,
    word_key,
)

from conftest import get_spec


def W(spec, text):
    return parse_word(text, spec)


def test_parse_empty(spec_q3):
    assert parse_word("1", spec_q3) == EMPTY


def test_parse_letters(spec_q3):
    w = parse_word("x[2,0]x[1,1]", spec_q3)
    assert [(lt.n, lt.eps) for lt in w] == [
        (2, spec_q3.one),
        (1, spec_q3.residue(2)),
    ]


@pytest.mark.parametrize("bad", ["x[1,3]", "x[1,2]", "x[0,0]", "x[1,0]y", "", "xx"])
def test_parse_errors(bad, spec_q3):
    with pytest.raises(ValueError):
        parse_word(bad, spec_q3)


def test_format_element_examples(spec_q3):
    assert format_element(Element.zero(spec_q3)) == "0"
    x2 = Element.from_word(spec_q3, W(spec_q3, "x[2,0]"))
    assert format_element(x2) == "x[2,0]"
    mixed = Element.from_terms(
        spec_q3,
        {
            W(spec_q3, "x[1,1]x[1,1]"): spec_q3.residue(2),
            W(spec_q3, "x[2,0]"): spec_q3.one,
        },
    )
    assert format_element(mixed) == "x[2,0] + g^1*x[1,1]x[1,1]"


def _word_strategy(spec):
    letters = st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=spec.q - 2),
    ).map(lambda t: letter(spec, t[0], spec.unit_from_exp(t[1])))
    return st.lists(letters, max_size=5).map(tuple)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 4]))
def test_word_roundtrip(data, q):
    spec = get_spec(q)
    w = data.draw(_word_strategy(spec))
    assert parse_word(format_word(w, spec), spec) == w


@settings(max_examples=100, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3]))
def test_element_roundtrip(data, q):
    spec = get_spec(q)
    words = data.draw(st.lists(_word_strategy(spec), min_size=0, max_size=4))
    exps = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=q - 2),
            min_size=len(words),
            max_size=len(words),
        )
    )
    terms = {}
    for w, j in zip(words, exps):
        c = spec.unit_from_exp(j)
        terms[w] = terms.get(w, spec.zero) + c
    e = Element.from_terms(spec, terms)
    assert parse_element(format_element(e), spec) == e


def test_basis_words_examples(spec_q2, spec_q3):
    assert basis_words(0, spec_q2) == [EMPTY]
    got = [format_word(w, spec_q2) for w in basis_words(2, spec_q2)]
    assert got == ["x[2,0]", "x[1,0]x[1,0]"]
    assert len(basis_words(2, spec_q3)) == 6


def _brute_words(spec, w):
    letters = [
        letter(spec, n, spec.unit_from_exp(j))
        for n in range(1, w + 1)
        for j in range(spec.q - 1)
    ]
    out = set()
    def grow(prefix, left):
        if left == 0:
            out.add(prefix)
            return
        for lt in letters:
            if lt.n <= left:
                grow(prefix + (lt,), left - lt.n)
    grow(EMPTY, w)
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_basis_counts_against_enumeration(q):
    spec = get_spec(q)
    for w in range(1, 9):
        words = basis_words(w, spec)
        formula = sum(comb(w - 1, r - 1) * (q - 1) ** r for r in range(1, w + 1))
        assert len(words) == formula
        assert len(set(words)) == len(words)
        if w <= 6:
            assert set(words) == _brute_words(spec, w)


def test_a_basis_past_the_budget_raises_before_it_is_built(monkeypatch, spec_q3):
    # q = 3 has 2 * 3^(w - 1) words of weight w: 54 at w = 4
    monkeypatch.setattr(ff, "BUDGET", 54)
    assert len(basis_words(4, spec_q3)) == 54
    monkeypatch.setattr(ff, "BUDGET", 53)
    with pytest.raises(BudgetExceededError, match=r"= 2\*3\^3 exceeds budget 53$"):
        basis_words(4, spec_q3)
    assert len(basis_words(3, spec_q3)) == 18


def test_the_basis_stream_asks_one_letter_per_weight_and_character(monkeypatch):
    calls = []
    real = words.letter
    monkeypatch.setattr(words, "letter",
                        lambda spec, n, eps: calls.append((n, eps.idx)) or real(spec, n, eps))
    spec = field_from_q(3)
    stream = iter_basis_words(6, spec)
    assert calls == []  # nothing is built before the first word is asked for
    got = list(stream)
    assert len(calls) == len(set(calls)) <= 6 * (spec.q - 1)
    monkeypatch.setattr(words, "letter", real)
    assert got == basis_words(6, spec) and len(got) == 2 * 3**5


def test_basis_canonical_order(spec_q3):
    for w in range(0, 6):
        words = basis_words(w, spec_q3)
        assert words == sorted(words, key=lambda x: word_key(spec_q3, x))


def test_graded_decomposition(spec_q3):
    e = parse_element("x[1,0] + x[2,1] + g^1*x[1,0]x[1,0]", spec_q3)
    assert e.weights() == {1, 2}
    assert Element.zero(spec_q3).weights() == set()


# -- one sparse type for words and word pairs ------------------------------------


def test_tensor_element_is_element(spec_q3):
    assert TensorElement is Element
    u, v = W(spec_q3, "x[1,0]"), W(spec_q3, "x[2,1]")
    t = Element.from_pair(spec_q3, u, v, spec_q3.residue(2))
    assert t.coeff((u, v)) == spec_q3.residue(2)
    assert t.coeff((v, u)) == spec_q3.zero
    assert repr(t) == "g^1*x[1,0] ⊗ x[2,1]"
    assert repr(Element.from_word(spec_q3, u + v)) == "x[1,0]x[2,1]"
    assert repr(Element.one(spec_q3)) == "1"
    assert repr(Element.from_pair(spec_q3, EMPTY, EMPTY)) == "1 ⊗ 1"
    assert repr(Element.zero(spec_q3)) == "0"
    assert (t - t).is_zero() and t + t == t.scale(spec_q3.residue(2))


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_field_mismatch_is_rejected(op):
    s2, s3 = get_spec(2), get_spec(3)
    with pytest.raises(ValueError, match="field mismatch"):
        op(parse_element("x[1,0]", s2), parse_element("x[2,1]", s3))
    pair2 = Element.from_pair(s2, W(s2, "x[1,0]"), EMPTY)
    pair3 = Element.from_pair(s3, EMPTY, W(s3, "x[1,1]"))
    with pytest.raises(ValueError, match="field mismatch"):
        op(pair2, pair3)
    with pytest.raises(ValueError, match="field mismatch"):
        op(Element.zero(s2), pair3)
    # equal fields built separately still mix
    other3 = field_from_q(3)
    assert op(parse_element("x[1,0]", other3), parse_element("x[2,1]", s3)).spec is other3


def test_accumulate_kernel(spec_q3):
    # coefficients are field indices; a key whose sum reaches zero is deleted
    one, two = spec_q3.one.idx, spec_q3.residue(2).idx
    u, v = W(spec_q3, "x[1,0]"), W(spec_q3, "x[2,1]")
    acc = accumulate(spec_q3, {}, {u: one, v: two})
    assert accumulate(spec_q3, acc, {v: one}) is acc and acc == {u: one}
    assert accumulate(spec_q3, {}, {v: one}, two, head=u) == {u + v: two}
    outer = accumulate_outer(spec_q3, {}, {u: one, v: two}, {EMPTY: two}, two)
    assert outer == {(u, EMPTY): one, (v, EMPTY): two}


def test_structural_checks_make_almost_no_field_element_calls(monkeypatch):
    # with FieldElem coefficients, these two checks made 13 806 such calls
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__neg__"):
        op = getattr(FieldElem, name)
        monkeypatch.setattr(FieldElem, name, lambda *a, op=op: calls.append(1) or op(*a))
    spec = field_from_q(3)  # a fresh field: every memo starts empty
    assert check_coalgebra(spec, 4).passed and check_hopf(spec, 4).passed
    assert len(calls) <= 1380


def test_linear_and_bilinear_extensions(spec_q3):
    e = parse_element("x[1,0] + g^1*x[2,1]", spec_q3)
    assert linear(lambda spec, w: {w + w: 1}, e) == parse_element(
        "x[1,0]x[1,0] + g^1*x[2,1]x[2,1]", spec_q3
    )
    assert linear(lambda spec, w: {}, e).is_zero()
    f = parse_element("x[1,1]", spec_q3)
    assert bilinear(lambda spec, a, b: {a + b: 1}, e, f) == parse_element(
        "x[1,0]x[1,1] + g^1*x[2,1]x[1,1]", spec_q3
    )


def _dimension(q, w):
    return 1 if w == 0 else sum(comb(w - 1, r - 1) * (q - 1) ** r for r in range(1, w + 1))


@pytest.mark.parametrize("q, top", [(2, 8), (3, 8), (4, 8), (5, 6)])
def test_basis_words_come_in_canonical_order(q, top):
    spec = get_spec(q)
    for w in range(top + 1):
        words = basis_words(w, spec)
        assert len(words) == _dimension(q, w)
        assert words == sorted(words, key=lambda x: word_key(spec, x))
        # the same order spelled out from the letters' attributes
        assert words == sorted(words, key=lambda x: (
            word_weight(x), len(x), [(lt.n, spec.log(lt.eps)) for lt in x]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_basis_word_unranks_the_enumeration(q):
    # every weight with at most 5 000 words: up to 13 at q = 2, 3 at q = 9
    spec = get_spec(q)
    w = 0
    while (size := _dimension(q, w)) <= 5000:
        assert [basis_word(w, i, spec) for i in range(size)] == list(iter_basis_words(w, spec))
        for i in (-1, size, size + 7):
            with pytest.raises(IndexError):
                basis_word(w, i, spec)
        w += 1
    assert w >= 4


def test_basis_word_lists_nothing_and_has_no_budget(monkeypatch, spec_q3):
    # one word of weight 40 at q = 3, whose 2 * 3^39 words no budget admits
    monkeypatch.setattr(ff, "BUDGET", 1)
    last = basis_word(40, 2 * 3**39 - 1, spec_q3)
    assert format_word(last, spec_q3) == "x[1,1]" * 40
    assert basis_word(40, 0, spec_q3) == (letter(spec_q3, 40, spec_q3.one),)

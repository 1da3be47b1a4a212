"""Letters as ints, and the word algebra running without hashing field elements.

A letter is an ``int`` whose value encodes (n, character exponent, field), so
words hash and compare in C.  These tests pin the letter's identity rules,
the one-argument forms that read ``n`` and ``eps`` off a letter, and that the
whole word algebra at q=3 runs with ``FieldElem.__hash__`` switched off.
"""

import itertools

import pytest

from amzv import (
    Element,
    Laurent,
    Letter,
    antipode,
    basis_words,
    coproduct,
    coproduct_letter,
    diamond,
    field_from_q,
    field_make,
    letter,
    parse_element,
    parse_word,
    power_sum_d,
    power_sum_lt,
    power_sum_lt_element,
    shuffle,
    tensor_shuffle,
    triangle,
    word_to_array,
    word_weight,
)
from amzv import coalgebra, products, zeta
from amzv.ff import FieldElem
from amzv.words import linear

from conftest import get_spec


def test_letter_is_one_shared_int_that_survives_clear_memos():
    spec = field_from_q(3)
    x = letter(spec, 2, spec.g)
    assert isinstance(x, int) and isinstance(x, Letter)
    assert (x.n, x.eps) == (2, spec.g)
    assert letter(spec, 2, spec.g) is x
    spec.clear_memos()
    assert letter(spec, 2, spec.g) is x
    assert parse_word("x[2,1]", spec) == (x,) and parse_word("x[2,1]", spec)[0] is x


def test_letters_over_equal_fields_are_equal_and_others_differ():
    a, b = field_from_q(3), field_from_q(3)
    assert a is not b
    for n, j in itertools.product(range(1, 5), range(2)):
        la, lb = letter(a, n, a.unit_from_exp(j)), letter(b, n, b.unit_from_exp(j))
        assert la is not lb
        assert la == lb and hash(la) == hash(lb)
    assert parse_word("x[1,0]x[3,1]", a) == parse_word("x[1,0]x[3,1]", b)
    s2 = get_spec(2)
    f4 = field_from_q(4)
    for n in range(1, 5):
        x2, x3, x4 = letter(s2, n, s2.one), letter(a, n, a.one), letter(f4, n, f4.one)
        assert x2 != x3 and x3 != x4 and x2 != x4
    assert parse_word("x[1,0]", s2) != parse_word("x[1,0]", a)


def test_field_codes_tell_field_keys_apart():
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 61, 64)
    specs = [field_from_q(q) for q in qs] + [field_make(2, 3, (1, 0, 1, 1)),
                                             field_make(3, 2, (1, 0, 1))]
    codes = [s.code for s in specs]
    assert len(set(codes)) == len(specs)
    assert all(0 <= c < 2**15 for c in codes)
    assert [field_from_q(q).code for q in qs] == codes[: len(qs)]
    f8, g8 = specs[qs.index(8)], specs[-2]
    assert f8.key != g8.key and letter(f8, 1, f8.one) != letter(g8, 1, g8.one)


def test_letter_order_is_n_then_exponent_within_a_field():
    for q in (2, 3, 4, 5, 9):
        spec = get_spec(q) if q in (2, 3, 4, 5) else field_from_q(q)
        pairs = [(n, j) for n in range(1, 6) for j in range(q - 1)]
        letters = [letter(spec, n, spec.unit_from_exp(j)) for n, j in pairs]
        assert sorted(letters) == letters
        assert [(lt.n, spec.log(lt.eps)) for lt in letters] == pairs


def test_letter_rejects_bad_input():
    s2, s3 = get_spec(2), get_spec(3)
    with pytest.raises(ValueError, match="weight"):
        letter(s3, 0, s3.one)
    with pytest.raises(ValueError, match="unit"):
        letter(s3, 1, s3.zero)
    with pytest.raises(ValueError, match="field mismatch"):
        letter(s2, 7, s3.g)
    # a unit of F_4 with the index of a unit of F_3 whose letter is in the table
    x = letter(s3, 1, s3.elements[2])
    with pytest.raises(ValueError, match="field mismatch"):
        letter(s3, 1, get_spec(4).elements[2])
    other3 = field_from_q(3)
    assert letter(s3, 1, other3.elements[2]) is x and x.eps.spec is s3


def test_one_argument_forms_read_the_letter():
    spec = get_spec(3)
    arr = word_to_array(parse_word("x[2,1]x[1,0]", spec))
    assert [lt.n for lt in arr] == [2, 1] and [lt.eps for lt in arr] == [spec.g, spec.one]
    x = letter(spec, 3, spec.g)
    t = coproduct_letter(x)
    assert t.coeff(((), (x,))) == spec.one and t.coeff(((x,), ())) == spec.one
    assert t == coproduct(Element.from_word(spec, (x,)))


def test_word_algebra_never_hashes_a_field_element(monkeypatch):
    spec = field_from_q(3)  # cold memos: every recursion below really runs
    words = [u for w in range(5) for u in basis_words(w, spec)]
    elems = {u: Element.from_word(spec, u) for u in words}

    def refuse(self):
        raise AssertionError("FieldElem.__hash__ called")

    monkeypatch.setattr(FieldElem, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(spec.one)
    for a, b in itertools.product(words, repeat=2):
        if word_weight(a) + word_weight(b) <= 4:
            shuffle(elems[a], elems[b])
            diamond(elems[a], elems[b])
            triangle(elems[a], elems[b])
    for u in words:
        coproduct(elems[u])
        antipode(elems[u])
    monkeypatch.undo()
    # a result memoized with hashing off agrees with a fresh field's
    u = parse_word("x[1,1]x[2,0]x[1,0]", spec)
    want = antipode(parse_element("x[1,1]x[2,0]x[1,0]", field_from_q(3)))
    assert antipode(elems[u]) == want


def test_single_words_get_the_memoized_result_uncopied():
    spec = get_spec(3)
    u, v = parse_word("x[2,1]x[1,0]", spec), parse_word("x[1,1]", spec)
    e, f = Element.from_word(spec, u), Element.from_word(spec, v)
    # the Element built at the boundary holds the memo's own map
    assert coproduct(e).idx is coalgebra._coproduct_word(spec, u)
    assert antipode(e).idx is coalgebra._antipode_word(spec, u)
    assert shuffle(e, f).idx is products._shuffle_words(spec, u, v)
    assert diamond(e, f).idx is products._diamond_words(spec, u, v)
    g = spec.g
    scaled = Element.from_word(spec, u, g)
    assert coproduct(scaled) == coproduct(e).scale(g)
    assert shuffle(scaled, f) == shuffle(e, f).scale(g) == shuffle(f, scaled)
    assert linear(lambda sp, w: {}, e).is_zero()
    # a pair result is still built as L ⊗ R
    pair = Element.from_pair(spec, u, v)
    got = tensor_shuffle(pair, Element.from_pair(spec, v, ()))
    want = {(l, r): c * d for l, c in shuffle(e, f).terms.items()
            for r, d in shuffle(f, Element.one(spec)).terms.items()}
    assert got.terms == want


def test_power_sum_lt_is_memoized_and_enumerates_no_polynomial(monkeypatch):
    spec = field_from_q(2)
    e = parse_element("x[1,0] + x[2,0] + x[1,0]x[1,0]", spec)
    arr = word_to_array(parse_word("x[1,0]", spec))
    first = power_sum_lt(arr, 3, 12)
    assert power_sum_lt(word_to_array(parse_word("x[1,0]", spec)), 3, 12) is first
    # every coefficient of e is 1: the chain enumerator's sums, before the patch
    want = []
    for d in range(4):
        acc = Laurent.zero(spec, 12)
        for w in e.idx:
            for m in range(d):
                acc = acc + power_sum_d(word_to_array(w), m, 12)
        want.append(acc)

    def no_enumeration(d, spec):
        raise AssertionError(f"monic_enum({d}) on the factorized route")

    spec.clear_memos()
    monkeypatch.setattr(zeta, "monic_enum", no_enumeration)
    assert [power_sum_lt_element(e, d, 12) for d in range(4)] == want
    again = power_sum_lt(arr, 3, 12)
    assert again is not first and again == first
    assert power_sum_lt(arr, 3, 12) is again

import itertools

import pytest

from amzv import (
    Element,
    TensorElement,
    antipode,
    basis_words,
    coproduct,
    coproduct_letter,
    coproduct_mzv_recursive,
    counit,
    format_tensor,
    letter,
    parse_element,
    parse_word,
    shuffle,
    tensor_shuffle,
    word_weight,
)
from amzv.coalgebra import coproduct_mzv_word
from amzv.words import EMPTY

from conftest import get_spec


def E(spec, w):
    return Element.from_word(spec, w)


def T(spec, left, right, coeff=None):
    return TensorElement.from_pair(spec, left, right, coeff)


def words_up_to(spec, bound, min_weight=1):
    for w in range(min_weight, bound + 1):
        yield from basis_words(w, spec)


# -- letter coproducts ----------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4])
def test_weight_one_letters_are_primitive(q):
    spec = get_spec(q)
    for j in range(q - 1):
        x = letter(spec, 1, spec.unit_from_exp(j))
        assert coproduct_letter(x) == T(spec, EMPTY, (x,)) + T(spec, (x,), EMPTY)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_weight_two_letters_are_primitive(q):
    spec = get_spec(q)
    for j in range(q - 1):
        x = letter(spec, 2, spec.unit_from_exp(j))
        assert coproduct_letter(x) == T(spec, EMPTY, (x,)) + T(spec, (x,), EMPTY)


def test_weight_three_letter(spec_q2, spec_q3):
    x3 = letter(spec_q2, 3, spec_q2.one)
    got = coproduct_letter(x3)
    x2 = letter(spec_q2, 2, spec_q2.one)
    x1 = letter(spec_q2, 1, spec_q2.one)
    assert got == T(spec_q2, EMPTY, (x3,)) + T(spec_q2, (x3,), EMPTY) + T(
        spec_q2, (x2,), (x1,)
    )
    assert got == coproduct_mzv_recursive(3, spec_q2)

    y3 = letter(spec_q3, 3, spec_q3.one)
    assert coproduct_letter(y3) == T(spec_q3, EMPTY, (y3,)) + T(spec_q3, (y3,), EMPTY)


def test_letter_coproduct_respects_character(spec_q3):
    # the nontrivial character rides along on the left tensorand only
    g = spec_q3.g
    for n in range(1, 6):
        plain = coproduct_letter(letter(spec_q3, n, spec_q3.one))
        twisted = coproduct_letter(letter(spec_q3, n, g))
        expect = {}
        for (l, r), c in plain.terms.items():
            if l:
                l = (letter(spec_q3, l[0].n, g * l[0].eps),) + l[1:]
                expect[(l, r)] = c
            else:
                expect[(l, ((letter(spec_q3, r[0].n, g * r[0].eps),) + r[1:]))] = c
        assert twisted == TensorElement.from_terms(spec_q3, expect)


# -- word coproducts -----------------------------------------------------------------


def test_coproduct_of_unit(spec_q3):
    assert coproduct(Element.one(spec_q3)) == T(spec_q3, EMPTY, EMPTY)


def test_coproduct_depth_two(spec_q3):
    u = parse_word("x[1,0]x[1,1]", spec_q3)
    got = coproduct(E(spec_q3, u))
    assert got == (
        T(spec_q3, EMPTY, u)
        + T(spec_q3, u[:1], u[1:])
        + T(spec_q3, u, EMPTY)
    )


def test_coproduct_linear(spec_q3):
    a = parse_element("x[1,0]", spec_q3)
    b = parse_element("x[2,1]", spec_q3)
    g = spec_q3.g
    assert coproduct(a + b.scale(g)) == coproduct(a) + coproduct(b).scale(g)


def test_coproduct_grading(spec_q4):
    for u in words_up_to(spec_q4, 5):
        d = coproduct(E(spec_q4, u))
        assert {word_weight(l) + word_weight(r) for l, r in d.idx} == {word_weight(u)}


# -- counit -------------------------------------------------------------------------


def test_counit_examples(spec_q3):
    assert counit(Element.one(spec_q3)) == spec_q3.one
    assert counit(parse_element("x[2,1]", spec_q3)) == spec_q3.zero
    s5 = get_spec(5)
    e = Element.one(s5).scale(s5.residue(3)) + parse_element("x[1,0]", s5)
    assert counit(e) == s5.residue(3)


def test_counit_axioms_small(spec_q3):
    for u in words_up_to(spec_q3, 4):
        eu = E(spec_q3, u)
        left = Element.zero(spec_q3)
        right = Element.zero(spec_q3)
        for (l, r), c in coproduct(eu).terms.items():
            left = left + E(spec_q3, r).scale(c * counit(E(spec_q3, l)))
            right = right + E(spec_q3, l).scale(c * counit(E(spec_q3, r)))
        assert left == eu
        assert right == eu


# -- tensor shuffle --------------------------------------------------------------------


def test_tensor_shuffle_examples(spec_q3):
    one_t = T(spec_q3, EMPTY, EMPTY)
    a = letter(spec_q3, 1, spec_q3.one)
    b = letter(spec_q3, 1, spec_q3.g)
    some = T(spec_q3, (a,), (b,)) + T(spec_q3, EMPTY, (a, b))
    assert tensor_shuffle(one_t, some) == some
    assert tensor_shuffle(T(spec_q3, (a,), EMPTY), T(spec_q3, EMPTY, (b,))) == T(
        spec_q3, (a,), (b,)
    )
    got = tensor_shuffle(T(spec_q3, (a,), EMPTY), T(spec_q3, (b,), EMPTY))
    expect = TensorElement.from_terms(
        spec_q3,
        {
            (w, EMPTY): c
            for w, c in shuffle(E(spec_q3, (a,)), E(spec_q3, (b,))).terms.items()
        },
    )
    assert got == expect


# -- compatibility and coassociativity spot checks (full sweep in acceptance) -----------


def test_compatibility_spot(spec_q3):
    a = parse_word("x[1,1]x[1,0]", spec_q3)
    b = parse_word("x[2,1]", spec_q3)
    lhs = coproduct(shuffle(E(spec_q3, a), E(spec_q3, b)))
    rhs = tensor_shuffle(coproduct(E(spec_q3, a)), coproduct(E(spec_q3, b)))
    assert lhs == rhs


def test_coassociativity_spot(spec_q2):
    for u in words_up_to(spec_q2, 5):
        du = coproduct(E(spec_q2, u))
        left = {}
        right = {}
        for (l, r), c in du.terms.items():
            for (a, b), c2 in coproduct(E(spec_q2, r)).terms.items():
                k = (l, a, b)
                left[k] = left.get(k, spec_q2.zero) + c * c2
            for (a, b), c2 in coproduct(E(spec_q2, l)).terms.items():
                k = (a, b, r)
                right[k] = right.get(k, spec_q2.zero) + c * c2
        assert {k: v for k, v in left.items() if not v.is_zero()} == {
            k: v for k, v in right.items() if not v.is_zero()
        }


def test_coproduct_horizontal_law(spec_q3):
    from amzv import horizontal

    for u in words_up_to(spec_q3, 4):
        eu = E(spec_q3, u)
        du = coproduct(eu)
        for j in range(spec_q3.q - 1):
            eps = spec_q3.unit_from_exp(j)
            lhs = coproduct(horizontal(eps, eu))
            acc = {}
            for (l, r), c in du.terms.items():
                if l:
                    (lw,), = (tuple(horizontal(eps, E(spec_q3, l)).terms),)
                    k = (lw, r)
                else:
                    k = (l, r)
                acc[k] = acc.get(k, spec_q3.zero) + c
            hu = next(iter(horizontal(eps, eu).terms))
            rhs = TensorElement.from_terms(spec_q3, acc)
            rhs = rhs + T(spec_q3, EMPTY, hu) - T(spec_q3, EMPTY, u)
            assert lhs == rhs


def test_diamond_coproduct_law(spec_q2):
    from amzv import diamond

    for a in words_up_to(spec_q2, 3):
        for b in words_up_to(spec_q2, 4 - word_weight(a)):
            ea, eb = E(spec_q2, a), E(spec_q2, b)
            lhs = coproduct(diamond(ea, eb))
            acc = {
                (EMPTY, w): c for w, c in diamond(ea, eb).terms.items()
            }
            for (l1, r1), c1 in coproduct(ea).terms.items():
                if not l1:
                    continue
                for (l2, r2), c2 in coproduct(eb).terms.items():
                    if not l2:
                        continue
                    dpart = diamond(E(spec_q2, l1), E(spec_q2, l2))
                    spart = shuffle(E(spec_q2, r1), E(spec_q2, r2))
                    for lw, lc in dpart.terms.items():
                        for rw, rc in spart.terms.items():
                            k = (lw, rw)
                            acc[k] = acc.get(k, spec_q2.zero) + c1 * c2 * lc * rc
            assert lhs == TensorElement.from_terms(spec_q2, acc)


# -- antipode ----------------------------------------------------------------------------


def test_antipode_base_cases(spec_q3):
    one = Element.one(spec_q3)
    assert antipode(one) == one
    for j in range(2):
        x = E(spec_q3, (letter(spec_q3, 1, spec_q3.unit_from_exp(j)),))
        assert antipode(x) == -x


def test_antipode_depth_two(spec_q3):
    u = parse_word("x[1,0]x[1,1]", spec_q3)
    got = antipode(E(spec_q3, u))
    swapped = (u[1], u[0])
    merged = (letter(spec_q3, 2, u[0].eps * u[1].eps),)
    assert got == E(spec_q3, swapped) + E(spec_q3, merged)


def test_antipode_axiom_spot(spec_q3):
    for u in words_up_to(spec_q3, 4, min_weight=0):
        eu = E(spec_q3, u)
        target = Element.one(spec_q3).scale(counit(eu))
        acc = Element.zero(spec_q3)
        for (l, r), c in coproduct(eu).terms.items():
            acc = acc + shuffle(antipode(E(spec_q3, l)), E(spec_q3, r)).scale(c)
        assert acc == target


def test_antipode_weight_preserving(spec_q4):
    for u in words_up_to(spec_q4, 4):
        s = antipode(E(spec_q4, u))
        assert s.weights() == {word_weight(u)}


# -- the weight-recursive oracle -------------------------------------------------------------


def test_oracle_base_case(spec_q3):
    x1 = letter(spec_q3, 1, spec_q3.one)
    assert coproduct_mzv_recursive(1, spec_q3) == T(spec_q3, EMPTY, (x1,)) + T(
        spec_q3, (x1,), EMPTY
    )


def test_oracle_weight_two_q3(spec_q3):
    x2 = letter(spec_q3, 2, spec_q3.one)
    assert coproduct_mzv_recursive(2, spec_q3) == T(spec_q3, EMPTY, (x2,)) + T(
        spec_q3, (x2,), EMPTY
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_oracle_agrees_with_closed_formula(q):
    spec = get_spec(q)
    for n in range(1, 7):
        assert coproduct_letter(letter(spec, n, spec.one)) == coproduct_mzv_recursive(
            n, spec
        )


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_agrees_on_words(q):
    # the two constructions coincide on every trivial-character word
    spec = get_spec(q)
    for u in words_up_to(spec, 5):
        if any(lt.eps.idx != 1 for lt in u):
            continue
        assert coproduct(E(spec, u)) == coproduct_mzv_word(u, spec)


def test_oracle_rejects_characters(spec_q3):
    w = parse_word("x[1,1]", spec_q3)
    with pytest.raises(ValueError):
        coproduct_mzv_word(w, spec_q3)

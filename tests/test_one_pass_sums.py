"""One-pass sums against the Element-level compositions they replace.

``words.accumulate_bilinear`` adds c · head·Σ op(l, r) straight into a dict.
The antipode and diamond recursions and the triangle product sum their
word-level products with it, where they once built each product as an
Element and added it a second time.  Here each is compared, with exact
``==``, with that composition written out on Elements: the kernel with
c ≠ 1, a head and sums that cancel; ``_antipode_word(u)`` with
-u - Σ S(u') ⧢ u'' over Δu through the public API; ``_diamond_words`` with
its formula through the public ``shuffle``; and ``triangle`` with its
defining formula, on every word (or pair of words of total weight) up to 5
at q ∈ {2, 3}, 4 at q = 4 and 3 at q = 9.
"""

import pytest

from amzv import Element, antipode, coproduct, delta_coeff, shuffle, triangle
from amzv.coalgebra import _antipode_word
from amzv.products import _diamond_words, _shuffle_words
from amzv.verify import Rng, random_element
from amzv.words import EMPTY, accumulate, accumulate_bilinear, basis_words, letter, _element

from conftest import get_spec

BOUNDS = {2: 5, 3: 5, 4: 4, 9: 3}


def _words(spec, bound):
    return [u for w in range(1, bound + 1) for u in basis_words(w, spec)]


def _pairs(spec, bound):
    rows = [basis_words(w, spec) for w in range(bound + 1)]
    return [(u, v) for wu in range(bound + 1) for wv in range(bound - wu + 1)
            for u in rows[wu] for v in rows[wv]]


def _element_bilinear(op, a, b):
    """Σ op(l, r) scaled by each coefficient pair, summed as Elements."""
    spec = a.spec
    out = Element.zero(spec)
    for l, cl in a.terms.items():
        for r, cr in b.terms.items():
            out = out + _element(spec, op(spec, l, r)).scale(cl * cr)
    return out


def _operands(spec):
    """Seeded combinations of several words, single words, the empty word
    and zero."""
    rng = Rng(spec.q)
    out = [random_element(rng, 3, 4, spec) for _ in range(6)]
    out += [Element.one(spec), Element.zero(spec),
            Element.from_word(spec, basis_words(2, spec)[-1], spec.units[-1])]
    return out


@pytest.mark.parametrize("q", sorted(BOUNDS))
@pytest.mark.parametrize("op", [_shuffle_words, _diamond_words], ids=["shuffle", "diamond"])
def test_the_bilinear_kernel_is_the_element_sum_added_once(q, op):
    spec = get_spec(q)
    neg = spec.idx_ops[2]
    heads = [EMPTY, (letter(spec, 2, spec.units[-1]),)]
    start = random_element(Rng(7), 4, 3, spec)
    for a in _operands(spec):
        for b in _operands(spec):
            product = _element_bilinear(op, a, b)
            for c in range(q):
                for head in heads:
                    # the old route: build the product, then add it again
                    want = accumulate(spec, dict(start.idx), product.idx, c, head)
                    got = accumulate_bilinear(spec, dict(start.idx), op, a.idx, b.idx, c, head)
                    assert got == want
                    assert 0 not in got.values()
                    # adding the same sum with -c cancels it to the start
                    back = accumulate_bilinear(spec, got, op, a.idx, b.idx, neg[c], head)
                    assert back == start.idx
            # a sum that cancels to zero leaves an empty dict, with no zero kept
            minus = accumulate(spec, {}, product.idx, neg[1])
            assert accumulate_bilinear(spec, minus, op, a.idx, b.idx) == {}


@pytest.mark.parametrize("q", sorted(BOUNDS))
def test_the_antipode_recursion_is_its_public_formula(q):
    spec = get_spec(q)
    for u in _words(spec, BOUNDS[q]):
        want = -Element.from_word(spec, u)
        for (l, r), c in coproduct(Element.from_word(spec, u)).terms.items():
            if l and r:
                want = want - shuffle(antipode(Element.from_word(spec, l)),
                                      Element.from_word(spec, r)).scale(c)
        assert _antipode_word(spec, u) == want.idx, u


@pytest.mark.parametrize("q", sorted(BOUNDS))
def test_the_diamond_recursion_is_its_shuffle_formula(q):
    spec = get_spec(q)
    for u, v in _pairs(spec, BOUNDS[q]):
        if not u or not v:
            continue
        x, y = u[0], v[0]
        n, eps = x.n + y.n, x.eps * y.eps
        tail = shuffle(Element.from_word(spec, u[1:]), Element.from_word(spec, v[1:]))
        want = Element.zero(spec)
        for w, c in tail.terms.items():
            want = want + Element.from_word(spec, (letter(spec, n, eps),) + w, c)
        for j in range(1, n):
            xj = Element.from_word(spec, (letter(spec, j, spec.one),))
            for w, c in shuffle(xj, tail).terms.items():
                want = want + Element.from_word(
                    spec, (letter(spec, n - j, eps),) + w, c * delta_coeff(x.n, y.n, j, spec))
        assert _diamond_words(spec, u, v) == want.idx, (u, v)


@pytest.mark.parametrize("q", sorted(BOUNDS))
def test_the_triangle_product_is_its_prefixed_shuffle(q):
    spec = get_spec(q)
    for u, v in _pairs(spec, BOUNDS[q]):
        want = Element.from_word(spec, v)
        if u:
            want = Element.zero(spec)
            for w, c in shuffle(Element.from_word(spec, u[1:]),
                                Element.from_word(spec, v)).terms.items():
                want = want + Element.from_word(spec, u[:1] + w, c)
        assert triangle(Element.from_word(spec, u), Element.from_word(spec, v)) == want, (u, v)
    for a in _operands(spec):
        for b in _operands(spec):
            want = Element.zero(spec)
            for u, cu in a.terms.items():
                for v, cv in b.terms.items():
                    want = want + triangle(Element.from_word(spec, u),
                                           Element.from_word(spec, v)).scale(cu * cv)
            assert triangle(a, b) == want

"""Index-coded Laurent series against a naive dict-of-FieldElem reference.

The reference below keeps ``{exponent: FieldElem}`` plus a precision horizon
and does every operation with ``FieldElem`` arithmetic, straight from the
definitions; it shares no code with :class:`amzv.Laurent`.  Series products
are packed-integer products whose sub-slot width grows with the shorter
factor, so products run over every field kind up to q = 64 and over windows
of up to 200 coefficients, and at every length up to 256 where the width
steps up.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amzv import Laurent, Poly, field_from_q, format_laurent, laurent_inv_pow, parse_laurent

from conftest import get_spec

QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64)
EXTENSION_QS = (4, 8, 9, 16, 25, 27, 32, 49, 64)
# the longest window the random products draw, and the longest at which
# the product's sub-slot width steps up (F_2 steps at 256)
LONG = 200
WIDEST = 256


class Ref:
    def __init__(self, spec, coeffs, prec):
        self.spec = spec
        self.prec = prec
        self.c = {e: x for e, x in coeffs.items() if e < prec and not x.is_zero()}

    def val(self):
        return min(self.c) if self.c else self.prec

    def coeff(self, e):
        if e >= self.prec:
            raise ValueError(e)
        return self.c.get(e, self.spec.zero)

    def __add__(self, other):
        out = dict(self.c)
        for e, x in other.c.items():
            out[e] = out.get(e, self.spec.zero) + x
        return Ref(self.spec, out, min(self.prec, other.prec))

    def __sub__(self, other):
        out = dict(self.c)
        for e, x in other.c.items():
            out[e] = out.get(e, self.spec.zero) - x
        return Ref(self.spec, out, min(self.prec, other.prec))

    def __mul__(self, other):
        out = {}
        for e1, x1 in self.c.items():
            for e2, x2 in other.c.items():
                out[e1 + e2] = out.get(e1 + e2, self.spec.zero) + x1 * x2
        return Ref(self.spec, out, min(self.prec + other.val(), other.prec + self.val()))

    def scale(self, k):
        return Ref(self.spec, {e: k * x for e, x in self.c.items()}, self.prec)

    def truncate(self, prec):
        return Ref(self.spec, self.c, min(prec, self.prec))

    def agrees_with(self, other):
        prec = min(self.prec, other.prec)
        return self.truncate(prec).c == other.truncate(prec).c


@st.composite
def series_pair(draw, max_size=10):
    spec = get_spec(draw(st.sampled_from(QS)))

    def one():
        val = draw(st.integers(-4, 8))
        n = draw(st.integers(0, max_size))
        idx = draw(st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n))
        prec = val + draw(st.integers(-2, len(idx) + 4))
        coeffs = [spec.elements[i] for i in idx]
        return Laurent(spec, val, coeffs, prec), Ref(spec, dict(enumerate(coeffs, val)), prec)

    return spec, one(), one(), spec.elements[draw(st.integers(0, spec.q - 1))]


def agree(x: Laurent, r: Ref):
    """Same horizon, same valuation and the same coefficient everywhere below it."""
    assert x.prec == r.prec
    assert x.valuation() == (min(r.c) if r.c else None)
    assert x.is_zero() == (not r.c)
    for e in range(min(r.val(), x.val) - 2, x.prec):
        assert x.coeff(e) == r.coeff(e)
    with pytest.raises(ValueError):
        x.coeff(x.prec)
    # normal form: no zero at either end of the window
    if x.idx:
        assert x.idx[0] and x.idx[-1]
        assert x.coeffs == tuple(x.coeff(e) for e in range(x.val, x.val + len(x.idx)))
    else:
        assert x.val == x.prec


@settings(max_examples=300, deadline=None)
@given(series_pair())
def test_laurent_matches_reference(case):
    spec, (x, rx), (y, ry), k = case
    agree(x, rx)
    agree(x + y, rx + ry)
    agree(x - y, rx - ry)
    agree(x * y, rx * ry)
    agree(x.scale(k), rx.scale(k))
    for p in (x.val - 1, x.val + 2, x.prec - 1, x.prec + 3):
        agree(x.truncate(p), rx.truncate(p))
    assert x.agrees_with(y) == rx.agrees_with(ry)
    assert x.agrees_with(x.truncate(x.prec - 1))
    assert (x == y) == (x.prec == y.prec and rx.c == ry.c)


@settings(max_examples=25, deadline=None)
@given(series_pair(max_size=LONG))
def test_long_products_match_reference(case):
    _, (x, rx), (y, ry), _ = case
    agree(x * y, rx * ry)
    agree(x * x, rx * rx)


def _widening_lengths(q):
    """The window lengths n <= WIDEST at which the packed product's
    sub-slot width steps up, each with its predecessor: a sub-slot of the
    product holds at most n * k * (p - 1)^2, and w bytes hold below 256^w."""
    spec = get_spec(q)
    term = spec.k * (spec.p - 1) ** 2
    out = {1}
    w = 1
    while (n := (256**w - 1) // term) < WIDEST:
        out |= {n, n + 1}
        w += 1
    return sorted(out)


@pytest.mark.parametrize("q", QS)
def test_products_at_every_sub_slot_width_match_reference(q):
    # the square of an all-(q - 1) window fills its middle sub-slot to the
    # bound; a product with a random window mixes the digits
    spec = get_spec(q)
    rng = random.Random(q)
    top = spec.elements[-1]
    for n in _widening_lengths(q):
        x = Laurent(spec, 0, [top] * n, n + 2)
        rx = Ref(spec, dict(enumerate([top] * n)), n + 2)
        agree(x * x, rx * rx)
        coeffs = [spec.elements[rng.randrange(q)] for _ in range(n)]
        y = Laurent(spec, 1, coeffs, 3 * n)
        agree(x * y, rx * Ref(spec, dict(enumerate(coeffs, 1)), 3 * n))


@pytest.mark.parametrize("q", EXTENSION_QS)
def test_inv_pow_matches_the_poly_power(q):
    # 1/a^s times a^s, in the reference's arithmetic, is 1 below the horizon
    spec = get_spec(q)
    rng = random.Random(q)
    M = 12
    for d in (1, 2):
        a = Poly(spec, [spec.elements[rng.randrange(q)] for _ in range(d)] + [spec.one])
        power = Poly.one(spec)
        for s in range(1, q + 2):
            power = power * a
            inv = laurent_inv_pow(a, s, M)
            assert inv.prec == d * s + M
            ri = Ref(spec, dict(enumerate(inv.coeffs, inv.val)), inv.prec)
            rp = Ref(spec, {-i: c for i, c in enumerate(power.coeffs)}, 10**6)
            agree(Laurent.one(spec, M), ri * rp)


@settings(max_examples=200, deadline=None)
@given(series_pair())
def test_format_parse_format_is_identity(case):
    spec, (x, _), (y, _), _ = case
    for z in (x, y, x * y):
        text = format_laurent(z)
        back = parse_laurent(text, spec)
        assert back == z
        assert format_laurent(back) == text


# -- field mismatch ------------------------------------------------------------------


def test_field_mismatch_is_rejected():
    f2, f3 = get_spec(2), get_spec(3)
    x = parse_laurent("1 + g^1*u + O(u^4)", f3)
    for z2 in (Laurent.zero(f2, 4), parse_laurent("u + O(u^4)", f2)):
        for op in (
            lambda: z2 + x,
            lambda: x + z2,
            lambda: z2 - x,
            lambda: x - z2,
            lambda: z2 * x,
            lambda: x * z2,
            lambda: z2.scale(f3.g),
            lambda: x.scale(f2.one),
            lambda: z2.agrees_with(x),
        ):
            with pytest.raises(ValueError, match="field mismatch"):
                op()
    with pytest.raises(ValueError, match="field mismatch"):
        Laurent(f2, 0, [f3.one], 4)


def test_equal_fields_from_separate_specs_mix():
    a, b = field_from_q(4), field_from_q(4)
    assert a is not b
    x = parse_laurent("g^1 + u + O(u^5)", a)
    y = parse_laurent("g^2*u + O(u^6)", b)
    assert format_laurent(x + y) == "g^1 + g^1*u + O(u^5)"
    assert format_laurent(x * y) == "u + g^2*u^2 + O(u^6)"
    assert x.scale(b.g).agrees_with(parse_laurent("g^2 + g^1*u + O(u^5)", a))


def test_index_tables_outlive_memo_clearing():
    spec = field_from_q(3)
    ops = spec.idx_ops
    spec.clear_memos()
    assert spec.idx_ops is ops
    add, mul, neg = ops
    for a in spec.elements:
        assert neg[a.idx] == (-a).idx
        for b in spec.elements:
            assert add[a.idx][b.idx] == (a + b).idx
            assert mul[a.idx][b.idx] == (a * b).idx

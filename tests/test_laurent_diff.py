"""Index-coded Laurent series against a naive dict-of-FieldElem reference.

The reference below keeps ``{exponent: FieldElem}`` plus a precision horizon
and does every operation with ``FieldElem`` arithmetic, straight from the
definitions; it shares no code with :class:`amzv.Laurent`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amzv import Laurent, field_from_q, format_laurent, parse_laurent

from conftest import get_spec

QS = (2, 3, 4, 9)


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
def series_pair(draw):
    spec = get_spec(draw(st.sampled_from(QS)))

    def one():
        val = draw(st.integers(-4, 8))
        idx = draw(st.lists(st.integers(0, spec.q - 1), max_size=10))
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

"""The int-coded core of :class:`amzv.words.Element` against a reference.

An Element stores its coefficients as field indices (``Element.idx``) and
reads them back as :class:`FieldElem` values through ``.terms``.  Here every
operation is recomputed from the ``.terms`` views with ``FieldElem``
arithmetic alone, on single words where an operation is bilinear, and the
two must agree.  No sum may leave a zero coefficient behind.
"""

from hypothesis import given, settings, strategies as st

from amzv import Element, basis_words, coproduct, shuffle

from conftest import get_spec

QS = [2, 3, 4, 9]
MAX_WEIGHT = 3


@st.composite
def _element(draw, spec):
    """A combination of up to four basis words of weight <= 3, with any
    coefficients, zero and repeated words included."""
    terms: dict = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        words = basis_words(draw(st.integers(min_value=0, max_value=MAX_WEIGHT)), spec)
        w = words[draw(st.integers(min_value=0, max_value=len(words) - 1))]
        c = spec.elements[draw(st.integers(min_value=0, max_value=spec.q - 1))]
        terms[w] = terms.get(w, spec.zero) + c
    return Element.from_terms(spec, terms)


def _add_into(acc: dict, terms: dict, c):
    for k, v in terms.items():
        acc[k] = acc.get(k, c.spec.zero) + c * v
    return acc


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


def _check_clean(e: Element):
    spec = e.spec
    assert 0 not in e.idx.values()
    assert all(v is spec.elements[v.idx] for v in e.terms.values())
    assert Element(spec, e.terms) == e


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from(QS))
def test_sums_and_scaling_match_field_arithmetic(data, q):
    spec = get_spec(q)
    a, b = data.draw(_element(spec)), data.draw(_element(spec))
    c = spec.elements[data.draw(st.integers(min_value=0, max_value=q - 1))]
    one = spec.one
    cases = [
        (a + b, _add_into(_add_into({}, a.terms, one), b.terms, one)),
        (a - b, _add_into(_add_into({}, a.terms, one), b.terms, -one)),
        (-a, _add_into({}, a.terms, -one)),
        (a.scale(c), _add_into({}, a.terms, c)),
    ]
    for got, want in cases:
        assert got.terms == _nonzero(want)
        _check_clean(got)
    assert (a - a).idx == {}
    for k in a.idx:
        assert a.coeff(k) is a.terms[k]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from(QS))
def test_shuffle_and_coproduct_match_field_arithmetic(data, q):
    spec = get_spec(q)
    a, b = data.draw(_element(spec)), data.draw(_element(spec))
    want: dict = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            word = shuffle(Element.from_word(spec, u), Element.from_word(spec, v))
            _add_into(want, word.terms, cu * cv)
    got = shuffle(a, b)
    assert got.terms == _nonzero(want)
    _check_clean(got)
    want = {}
    for u, cu in a.terms.items():
        _add_into(want, coproduct(Element.from_word(spec, u)).terms, cu)
    got = coproduct(a)
    assert got.terms == _nonzero(want)
    _check_clean(got)

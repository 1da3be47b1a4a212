import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amzv import (
    Element,
    Laurent,
    Poly,
    field_from_q,
    format_laurent,
    laurent_inv_pow,
    letter,
    monic_enum,
    parse_element,
    parse_laurent,
    parse_word,
    power_sum_d,
    power_sum_lt,
    power_sum_lt_element,
    shuffle,
    word_to_array,
    zeta_trunc,
)
from amzv import cli, zeta
from amzv.verify import Rng, check_zeta_homomorphism
from amzv.zeta import BudgetExceededError, _depth1_power_sum

from conftest import get_spec


def L(spec, text):
    return parse_laurent(text, spec)


def arr1(spec, s, j=0):
    return (letter(spec, s, spec.unit_from_exp(j)),)


# -- polynomials and monic enumeration ---------------------------------------


def test_monic_enum_examples(spec_q2, spec_q3):
    assert [str(p) for p in monic_enum(0, spec_q2)] == ["1"]
    assert [str(p) for p in monic_enum(1, spec_q2)] == ["theta", "theta + 1"]
    assert len(monic_enum(1, spec_q3)) == 3
    assert len(monic_enum(3, spec_q3)) == 27
    for p in monic_enum(2, spec_q3):
        assert p.is_monic() and p.degree == 2


def test_monic_enum_budget(spec_q3):
    with pytest.raises(BudgetExceededError):
        monic_enum(20, spec_q3)


def test_poly_pow(spec_q2):
    t = Poly.theta(spec_q2)
    t1 = Poly(spec_q2, (spec_q2.one, spec_q2.one))
    assert (t1**2).coeffs == (spec_q2.one, spec_q2.zero, spec_q2.one)
    assert (t * t1).degree == 2


# -- Laurent arithmetic --------------------------------------------------------


def test_laurent_format_parse_roundtrip(spec_q3):
    for text in ("1 + u^2 + g^1*u^3 + O(u^5)", "u + u^2 + O(u^3)", "0 + O(u^4)"):
        x = L(spec_q3, text)
        assert format_laurent(x) == text
        assert parse_laurent(format_laurent(x), spec_q3) == x


def test_parse_laurent_refuses_a_term_past_the_horizon(spec_q3):
    # format_laurent never prints such a term, so a golden with a wrong
    # horizon must not parse
    for text, e, prec in (("u^5 + O(u^3)", "u^5", "u^3"), ("1 + O(u^0)", "u^0", "u^0")):
        with pytest.raises(ValueError, match=rf"term at {re.escape(e)} .* O\({re.escape(prec)}\)"):
            parse_laurent(text, spec_q3)


def test_laurent_add_tracks_precision(spec_q2):
    a = L(spec_q2, "1 + u^2 + O(u^6)")
    b = L(spec_q2, "u + O(u^4)")
    c = a + b
    assert c.prec == 4
    assert c == L(spec_q2, "1 + u + u^2 + O(u^4)")


def test_laurent_mul_tracks_precision(spec_q2):
    a = L(spec_q2, "u + O(u^5)")     # known below 5, valuation 1
    b = L(spec_q2, "u^2 + O(u^6)")   # known below 6, valuation 2
    c = a * b
    # unknown tail of a (from u^5) times val-2 factor pollutes u^7; of b, u^7
    assert c.prec == 7
    assert c == L(spec_q2, "u^3 + O(u^7)")


def test_packed_product_tables_outlive_memo_clearing():
    # at q = 49 the sub-slots are one byte wide for products of up to three
    # terms per coefficient and two bytes wide from four terms on
    spec = field_from_q(49)
    short = Laurent(spec, 0, [spec.g] * 3, 3)
    long = Laurent(spec, 0, [spec.g] * 6, 6)
    products = (short * short, long * long)
    assert (spec.packings[3][0], spec.packings[6][0]) == (1, 2)
    tables = dict(spec.packings)
    spec.clear_memos()
    assert (short * short, long * long) == products
    # the repeat products add no entry and rebuild no table
    assert spec.packings == tables
    assert all(spec.packings[n] is t for n, t in tables.items())


def test_laurent_truncate_below_valuation(spec_q2):
    a = L(spec_q2, "u^6 + u^7 + O(u^9)")
    t = a.truncate(4)
    assert t.is_zero() and t.prec == 4


def test_laurent_agrees_on_common_range(spec_q2):
    a = L(spec_q2, "u + u^3 + O(u^4)")
    b = L(spec_q2, "u + u^3 + u^5 + O(u^7)")
    assert a.agrees_with(b)
    assert not a.agrees_with(L(spec_q2, "u + O(u^4)"))


def test_laurent_coeff_access(spec_q3):
    a = L(spec_q3, "g^1*u^2 + O(u^5)")
    assert a.coeff(2) == spec_q3.residue(2)
    assert a.coeff(3) == spec_q3.zero
    with pytest.raises(ValueError):
        a.coeff(5)


# -- inverse powers of monic polynomials ----------------------------------------


def _poly_as_laurent(a: Poly, prec: int) -> Laurent:
    # theta^i = u^(-i); polynomials are exactly known at every exponent
    spec = a.spec
    d = a.degree
    return Laurent(spec, -d, list(reversed(a.coeffs)), prec)


def test_inv_pow_examples(spec_q2):
    t1 = Poly(spec_q2, (spec_q2.one, spec_q2.one))  # theta + 1
    got = laurent_inv_pow(t1, 1, 4)
    assert got == L(spec_q2, "u + u^2 + u^3 + u^4 + O(u^5)")

    theta = Poly.theta(spec_q2)
    for s in (1, 2, 5):
        x = laurent_inv_pow(theta, s, 6)
        assert x.valuation() == s and x.coeffs == (spec_q2.one,)

    t2t = theta * t1  # theta^2 + theta
    assert laurent_inv_pow(t2t, 1, 3) == L(spec_q2, "u^2 + u^3 + u^4 + O(u^5)")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inv_pow_times_power_is_one(q):
    spec = get_spec(q)
    for a in monic_enum(2, spec):
        for s in (1, 2, 3):
            inv = laurent_inv_pow(a, s, 10)
            prod = inv * _poly_as_laurent(a**s, 10**6)
            assert prod.agrees_with(Laurent.one(spec, prod.prec))


def test_inv_pow_rejects_bad_input(spec_q3):
    with pytest.raises(ValueError):
        laurent_inv_pow(Poly.zero(spec_q3), 1, 4)
    g = spec_q3.g
    not_monic = Poly(spec_q3, (spec_q3.one, g))
    with pytest.raises(ValueError):
        laurent_inv_pow(not_monic, 1, 4)


def test_inv_pow_rejects_negative_precision(spec_q3):
    theta = Poly.theta(spec_q3)
    for a in (theta, Poly(spec_q3, (spec_q3.one, spec_q3.zero, spec_q3.one))):
        with pytest.raises(ValueError, match="precision must be >= 0"):
            laurent_inv_pow(a, 1, -1)
        with pytest.raises(ValueError, match="precision must be >= 0"):
            laurent_inv_pow(a, 3, -7)
    # no precision at all is still a valid request
    assert laurent_inv_pow(theta, 2, 0) == Laurent.zero(spec_q3, 2)


# -- power sums -------------------------------------------------------------------


def test_power_sum_depth_one_degree_zero(spec_q3):
    for s in (1, 2, 5):
        for j in range(2):
            got = power_sum_d(arr1(spec_q3, s, j), 0, 8)
            assert got == Laurent.one(spec_q3, 8)


def test_power_sum_depth_two_degree_zero(spec_q3):
    arr = parse_word("x[1,0]x[2,0]", spec_q3)
    assert power_sum_d(arr, 0, 8).is_zero()
    assert power_sum_d(arr, -1, 8).is_zero()


def test_power_sum_q2_s1_d1(spec_q2):
    got = power_sum_d(arr1(spec_q2, 1), 1, 8)
    assert got == L(spec_q2, "u^2 + u^3 + u^4 + u^5 + u^6 + u^7 + O(u^8)")


def test_power_sum_lt_examples(spec_q2, spec_q3):
    for spec in (spec_q2, spec_q3):
        for s in (1, 3):
            assert power_sum_lt(arr1(spec, s), 1, 6) == Laurent.one(spec, 6)
        arr = arr1(spec, 2)
        assert power_sum_lt(arr, 0, 6).is_zero()
        assert power_sum_lt(arr, -2, 6).is_zero()


# every drawn S_{<d} has d <= 4, so the oracle enumerates at most q^3 = 125
# monic polynomials per degree and needs no cap on the draw
@st.composite
def lt_case(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    spec = get_spec(q)
    words = draw(st.lists(
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, q - 2)), max_size=3),
        min_size=1, max_size=3))
    d, N = draw(st.integers(0, 4)), draw(st.integers(0, 24))
    terms = [(parse_word("".join(f"x[{n},{j}]" for n, j in w) or "1", spec),
              spec.elements[draw(st.integers(1, q - 1))]) for w in words]
    return spec, terms, d, N


@settings(max_examples=150, deadline=None)
@given(lt_case())
def test_factorized_lt_matches_chain_enumeration(case):
    # S_{<d} on the factorized route against the sum of S_m, m < d, over chains
    spec, terms, d, N = case
    want_e = Laurent.zero(spec, N)
    e = Element.zero(spec)
    for w, c in terms:
        e = e + Element.from_word(spec, w, c)
        if not w:
            want_e = want_e + Laurent.one(spec, N).scale(c)
            continue
        arr = word_to_array(w)
        want = Laurent.zero(spec, N)
        for m in range(d):
            want = want + power_sum_d(arr, m, N)
        assert power_sum_lt(arr, d, N) == want
        want_e = want_e + want.scale(c)
    assert power_sum_lt_element(e, d, N) == want_e


@pytest.mark.parametrize("q", [2, 3])
def test_power_sum_factorization(q):
    # S_d(arr) = S_d(head) * S_{<d}(tail), exercised on seeded random arrays
    spec = get_spec(q)
    rng = Rng(987 + q)
    units = [spec.unit_from_exp(j) for j in range(q - 1)]
    for _ in range(25):
        depth = 1 + rng.below(3)
        s = tuple(1 + rng.below(3) for _ in range(depth))
        eps = tuple(units[rng.below(len(units))] for _ in range(depth))
        arr = tuple(letter(spec, n, e) for n, e in zip(s, eps))
        for d in range(4):
            lhs = power_sum_d(arr, d, 20)
            head = power_sum_d(arr[:1], d, 20)
            tail = (
                Laurent.one(spec, 20)
                if depth == 1
                else power_sum_lt(arr[1:], d, 20)
            )
            assert lhs.agrees_with(head * tail)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_power_sum_character_twist(q):
    spec = get_spec(q)
    for s in (1, 2, 3):
        base = [power_sum_d(arr1(spec, s), d, 16) for d in range(5)]
        for j in range(q - 1):
            eps = spec.unit_from_exp(j)
            for d in range(5):
                got = power_sum_d(arr1(spec, s, j), d, 16)
                assert got == base[d].scale(eps**d)


@pytest.mark.parametrize("q", [2, 3])
def test_power_sum_valuation_bound(q):
    spec = get_spec(q)
    units = [spec.unit_from_exp(j) for j in range(q - 1)]
    for s1 in (1, 2):
        for depth in (1, 2):
            s = (s1,) + (1,) * (depth - 1)
            arr = tuple(letter(spec, n, units[0]) for n in s)
            for d in range(4):
                v = power_sum_d(arr, d, 14).valuation()
                assert v is None or v >= d * s1 >= d


def test_power_sum_budget(spec_q3):
    with pytest.raises(BudgetExceededError):
        power_sum_d(arr1(spec_q3, 1), 15, 8)


@pytest.mark.parametrize("q,prec,text,d", [
    (32, 9, "x[1,0]", 4),  # degrees 1..4 have open windows, and 32^4 > 10^6
    (2, 99999, "x[5,0]", 20),  # 16 666 open degrees; 2^20 is the first past it
])
def test_depth_one_budget_refuses_before_any_vector(monkeypatch, q, prec, text, d):
    # a late refusal fails at the first unit series it sums, not after
    # running through the degrees below d
    def summed(*args):
        raise AssertionError("a coefficient vector was summed before the refusal")

    monkeypatch.setattr(zeta, "_unit_inv_pow", summed)
    spec = field_from_q(q)
    with pytest.raises(BudgetExceededError, match=rf"^q\^d = {q}\^{d} exceeds budget 1000000$"):
        zeta_trunc(parse_element(text, spec), prec)
    # powsum asks S_<(d+1) before S_<d, so it refuses before summing too
    assert cli.main(["powsum", "--q", str(q), "--d", str(d), "--prec", str(prec), text]) == 1


# -- the fast depth-one kernel against plain enumeration -----------------------------


@pytest.mark.parametrize("q", [2, 3, 4])
def test_depth1_kernel_matches_enumeration(q):
    spec = get_spec(q)
    for s in (1, 2, 3):
        for d in range(0, 4):
            for N in (4, 9, 14):
                fast = _depth1_power_sum(spec, s, d, N)
                slow = power_sum_d(arr1(spec, s), d, N)
                assert fast == slow.truncate(fast.prec)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_depth1_zeta_stops_at_the_window_end(q):
    # the oracle sums every degree with d*s < N (valuation bound), so a
    # window end one degree early shows at small N, where S_1 reaches u^N
    spec = get_spec(q)
    for s in range(1, 5):
        for j in range(q - 1):
            arr = arr1(spec, s, j)
            e = Element.from_word(spec, arr)
            for N in range(3 * (s + 1) + 1):
                want = Laurent.zero(spec, N)
                for d in range(-(-N // s)):
                    want = want + power_sum_d(arr, d, N)
                assert zeta_trunc(e, N) == want, (s, j, N)


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle entered the factorized route")


def test_the_chain_oracle_takes_no_factorized_route(monkeypatch):
    words = ("x[2,1]", "x[1,1]x[2,0]", "x[1,0]x[1,1]x[1,0]")
    N = 14
    spec = field_from_q(3)
    want = {}
    for text in words:
        arr = word_to_array(parse_word(text, spec))
        for d in range(4):
            want[text, d] = power_sum_lt(arr, d + 1, N) - power_sum_lt(arr, d, N)
    assert any(not v.is_zero() for v in want.values())
    for name in ("_partial_sums", "_depth1_power_sum", "_depth1_window", "_degree_end"):
        monkeypatch.setattr(zeta, name, _refuse)
    spec = field_from_q(3)
    for text in words:
        arr = word_to_array(parse_word(text, spec))
        for d in range(4):
            assert power_sum_d(arr, d, N) == want[text, d], (text, d)


def test_the_chen_family_takes_no_chain_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Chen family entered the chain oracle")

    for name in ("monic_enum", "power_sum_d", "laurent_inv_pow"):
        monkeypatch.setattr(zeta, name, refuse)
    # with no trials, the check runs the Chen family alone
    for q in (2, 3):
        rep = check_zeta_homomorphism(field_from_q(q), trials=0)
        assert rep.passed, rep.failures


@pytest.mark.parametrize("q", [2, 3])
def test_the_route_matches_the_oracle_on_the_chen_words(q):
    # every word the Chen family reads at its defaults (chen_rs = 6,
    # chen_d = 2, chen_prec = 96), and each S_d read from the route as
    # S_{<d+1} - S_{<d}, against the chain oracle
    spec = field_from_q(q)
    N = 96
    words = [(letter(spec, n, e),) for n in range(1, 7) for e in spec.units]
    words += [(letter(spec, a, e), letter(spec, b, spec.one))
              for a in range(1, 6) for b in range(1, 7 - a) for e in spec.units]
    nonzero = 0
    for w in words:
        for d in range(3):
            got = power_sum_lt(w, d + 1, N) - power_sum_lt(w, d, N)
            assert got == power_sum_d(w, d, N), (w, d)
            nonzero += not got.is_zero()
    # the two-letter words vanish at d = 0 only
    assert nonzero > 2 * len(words)


# -- zeta ---------------------------------------------------------------------------


def test_zeta_of_unit(spec_q3):
    assert zeta_trunc(Element.one(spec_q3), 8) == Laurent.one(spec_q3, 8)
    g = spec_q3.g
    assert zeta_trunc(Element.one(spec_q3).scale(g), 8) == Laurent.one(
        spec_q3, 8
    ).scale(g)


def test_zeta_linear_in_scalars(spec_q3):
    e = parse_element("x[1,1]", spec_q3)
    g = spec_q3.g
    assert zeta_trunc(e.scale(g), 12) == zeta_trunc(e, 12).scale(g)


def test_zeta_spot_value_q2(spec_q2):
    # recomputed by the chain enumerator, then compared against the frozen text
    e = parse_element("x[1,0]", spec_q2)
    arr = word_to_array(parse_word("x[1,0]", spec_q2))
    brute = Laurent.zero(spec_q2, 4)
    for d in range(0, 5):
        brute = brute + power_sum_d(arr, d, 4)
    got = zeta_trunc(e, 4)
    assert got.agrees_with(brute)
    assert format_laurent(got) == "1 + u^2 + u^3 + O(u^4)"


@pytest.mark.parametrize("q", [2, 3])
def test_zeta_matches_enumeration(q):
    # the enumerated summands with d*s_1 >= N sit entirely above the horizon
    # (valuation bound), so the brute sum may stop there
    spec = get_spec(q)
    N = 8 if q == 2 else 6
    samples = ["x[1,0]", "x[2,0]", "x[1,0]x[1,0]", "x[2,0]x[1,0]"]
    if q == 3:
        samples += ["x[1,1]", "x[1,1]x[2,1]"]
    cases = [(text, N) for text in samples]
    if q == 2:
        # depth 3, where the head's window d(3+1) < 16 is shorter than the
        # tail's d(1+1) < 16; every depth-3 word at N <= 14 reads 0 = 0
        cases.append(("x[3,0]x[1,0]x[1,0]", 16))
    for text, N in cases:
        w = parse_word(text, spec)
        arr = word_to_array(w)
        brute = Laurent.zero(spec, N)
        for d in range(0, N + 1):
            if d * arr[0].n >= N:
                break
            brute = brute + power_sum_d(arr, d, N)
        got = zeta_trunc(Element.from_word(spec, w), N)
        assert got.agrees_with(brute)
        if len(arr) == 3:
            assert format_laurent(got) == "u^14 + u^15 + O(u^16)"


def test_zeta_homomorphism_spot(spec_q2):
    a = parse_element("x[1,0]", spec_q2)
    b = parse_element("x[2,0]", spec_q2)
    lhs = zeta_trunc(shuffle(a, b), 16)
    rhs = zeta_trunc(a, 16) * zeta_trunc(b, 16)
    assert lhs.agrees_with(rhs)


# -- arrays ------------------------------------------------------------------------------


def test_array_validation(spec_q3):
    empty = "the empty word has no array presentation"
    with pytest.raises(ValueError, match=empty):
        word_to_array(())
    with pytest.raises(ValueError, match=empty):
        power_sum_d((), 1, 8)
    with pytest.raises(ValueError, match=empty):
        power_sum_lt((), 1, 8)
    w = parse_word("x[1,1]x[3,0]", spec_q3)
    assert word_to_array(w) is w

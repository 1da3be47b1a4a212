import itertools
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
from amzv import cli, verify, zeta
from amzv.verify import Rng, check_zeta_homomorphism, random_element
from amzv.zeta import BudgetExceededError, _depth1_window

from conftest import get_spec


def L(spec, text):
    return parse_laurent(text, spec)


def arr1(spec, s, j=0):
    return (letter(spec, s, spec.unit_from_exp(j)),)


# -- polynomials and monic enumeration ---------------------------------------


def test_monic_enum_examples(spec_q2, spec_q3):
    zero, one = spec_q2.zero, spec_q2.one
    assert [p.coeffs for p in monic_enum(0, spec_q2)] == [(one,)]
    assert [p.coeffs for p in monic_enum(1, spec_q2)] == [(zero, one), (one, one)]
    assert len(monic_enum(1, spec_q3)) == 3
    assert len(monic_enum(3, spec_q3)) == 27
    for p in monic_enum(2, spec_q3):
        assert p.is_monic() and p.degree == 2


def test_monic_enum_budget(spec_q3):
    with pytest.raises(BudgetExceededError):
        monic_enum(20, spec_q3)


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


def test_parse_laurent_refuses_a_marker_that_is_not_the_last_term(spec_q3):
    # a term after the marker, or a second marker, would otherwise be read
    # as if the text ended with the last marker it holds
    for text, term in (("1 + O(u^3) + u", "u"), ("1 + O(u^2) + O(u^5)", "O(u^5)"),
                       ("O(u^3) + 0", "0")):
        with pytest.raises(ValueError, match=rf"term {re.escape(repr(term))} follows the "
                                             r"precision marker"):
            parse_laurent(text, spec_q3)


@pytest.mark.parametrize("text, refusal", [
    ("1 + O(u^3)x", "bad precision marker 'O(u^3)x'"),
    ("1 + O(u^((3))", "bad precision marker 'O(u^((3))'"),
    ("1 + O(u^3))", "bad precision marker 'O(u^3))'"),
    ("O(u^(3)", "bad precision marker 'O(u^(3)'"),
    ("1 + O(u^(3)", "bad precision marker 'O(u^(3)'"),
    ("u^(2 + O(u^5)", "bad series term 'u^(2'"),
    ("u^2) + O(u^5)", "bad series term 'u^2)'"),
    ("2u + O(u^5)", "bad field literal '2u'"),
    ("g^1u^2 + O(u^5)", "bad field literal 'g^1u^2'"),
])
def test_parse_laurent_refuses_text_that_format_laurent_never_prints(spec_q3, text, refusal):
    # a power of u is u, u^e or u^(-e), in a term and in the marker alike,
    # the marker is the whole last term, and a coefficient is a field
    # literal joined to its power by *
    with pytest.raises(ValueError, match=re.escape(refusal)):
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


def test_packed_product_tables_are_cached_per_term_count_and_width_alone():
    # a width's encoder, planes and decoder are built together, so the
    # cache holds term counts and ("width", w) keys and nothing per field
    for q, long in ((4, 130), (9, 40), (49, 6)):
        spec = field_from_q(q)
        for n in (1, 3, long):
            x = Laurent(spec, 0, [spec.g] * n, n)
            assert (x * x).prec == n
        widths = {key: t for key, t in spec.packings.items() if type(key) is not int}
        assert sorted(widths) == [("width", 1), ("width", 2)], q
        assert all(t[0] == key[1] for key, t in widths.items())
        assert all(any(t is u for u in widths.values()) for t in spec.packings.values())


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

    theta = Poly(spec_q2, (spec_q2.zero, spec_q2.one))
    for s in (1, 2, 5):
        x = laurent_inv_pow(theta, s, 6)
        assert x.valuation() == s and x.coeffs == (spec_q2.one,)

    t2t = theta * t1  # theta^2 + theta
    assert laurent_inv_pow(t2t, 1, 3) == L(spec_q2, "u^2 + u^3 + u^4 + O(u^5)")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inv_pow_times_power_is_one(q):
    spec = get_spec(q)
    for a in monic_enum(2, spec):
        power = Poly.one(spec)
        for s in (1, 2, 3):
            power = power * a
            inv = laurent_inv_pow(a, s, 10)
            prod = inv * _poly_as_laurent(power, 10**6)
            assert prod.agrees_with(Laurent.one(spec, prod.prec))


def test_inv_pow_rejects_bad_input(spec_q3):
    with pytest.raises(ValueError):
        laurent_inv_pow(Poly.zero(spec_q3), 1, 4)
    g = spec_q3.g
    not_monic = Poly(spec_q3, (spec_q3.one, g))
    with pytest.raises(ValueError):
        laurent_inv_pow(not_monic, 1, 4)


def test_inv_pow_rejects_negative_precision(spec_q3):
    theta = Poly(spec_q3, (spec_q3.zero, spec_q3.one))
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


def _series_sum(e, d, N):
    """S_{<d}(e) as a sum of scaled series, one ``Laurent`` per term."""
    spec = e.spec
    acc = Laurent.zero(spec, N)
    for w, c in e.idx.items():
        term = power_sum_lt(w, d, N) if w else Laurent.one(spec, N)
        acc = acc + term.scale(spec.elements[c])
    return acc


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_the_window_accumulator_matches_the_series_sum(q):
    spec = field_from_q(q)
    rng = Rng(q)
    # the empty word, a coefficient other than 1 where the field has one, a
    # depth-3 word (zero for d < 3) and a head whose window closes early
    # (zero at N <= 7 for every d)
    c = spec.elements[q - 1]
    fixed = parse_element("1 + x[1,0]x[1,0]x[1,0] + x[6,0]x[1,0] + x[2,0]", spec).scale(c)
    elements = [fixed] + [random_element(rng, 4, 4, spec) for _ in range(6)]
    skipped = nonzero = 0
    for e in elements:
        for d, N in itertools.product(range(6), (0, 1, 7, 20)):
            got = power_sum_lt_element(e, d, N)
            assert got == _series_sum(e, d, N), (e, d, N)
            skipped += sum(1 for w in e.idx if w and not zeta._lt_top(w, d, N))
            nonzero += not got.is_zero()
    assert skipped >= 150 and nonzero >= 48, (skipped, nonzero)


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
    # a late refusal fails at the first kernel call, which the walk looks up
    # by name, not after running through the degrees below d
    def summed(*args):
        raise AssertionError("a coefficient vector was summed before the refusal")

    monkeypatch.setattr(zeta, "_depth1_window", summed)
    spec = field_from_q(q)
    with pytest.raises(BudgetExceededError, match=rf"^q\^d = {q}\^{d} exceeds budget 1000000$"):
        zeta_trunc(parse_element(text, spec), prec)
    # powsum asks S_<(d+1) before S_<d, so it refuses before summing too
    assert cli.main(["powsum", "--q", str(q), "--d", str(d), "--prec", str(prec), text]) == 1


# -- the fast depth-one kernel against plain enumeration -----------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_depth1_kernel_matches_enumeration(q):
    # every degree d with q^d <= 4096, for s = 1, 2, p, q, q + 1, at the
    # precision N whose top open degree sums the single coefficient
    # u^(ds + d), M - d = 1, over vectors that carry through every digit.
    # Past the window, N <= d(s + 1), the oracle's S_d is zero below u^N,
    # which is what lets _lt_top stop there and the kernel skip a window check.
    spec = get_spec(q)
    top = 1
    while q ** (top + 1) <= 4096:
        top += 1
    nonzero = 0
    for s in sorted({1, 2, spec.p, q, q + 1}):
        N = top * (s + 1) + 1
        for d in range(1, top + 1):
            slow = power_sum_d(arr1(spec, s), d, N)
            assert slow.truncate(d * (s + 1)).is_zero(), (s, d)
            assert _depth1_window(spec, s, d, N) == slow, (s, d, N)
            nonzero += not slow.is_zero()
    assert nonzero


def frobenius(x):
    """x^p: c -> c^p on the coefficients and u^i -> u^(pi), horizon included."""
    p, zero = x.spec.p, x.spec.zero
    coeffs = [zero] * (p * len(x.coeffs))
    coeffs[::p] = [c ** p for c in x.coeffs]
    return Laurent(x.spec, p * x.val, coeffs, p * x.prec)


def test_depth1_kernel_commutes_with_frobenius():
    # Thakur: in characteristic p, S_d(ps) = S_d(s)^p, and the p-th power of
    # a value known below u^N is known below u^(pN).  This checks windows of
    # s > 1 without the chain oracle, which shares _unit_inv and _unit_pow
    # with the kernel, and reaches ps that the test above skips, such as 4, 6
    # and 8 at q = 2
    total = nonzero = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = field_from_q(q)
        p = spec.p
        for s, N in itertools.product(range(1, 5), range(1, 16)):
            d = 1
            while q ** d <= 256 and d * (p * s + 1) < p * N:
                # S_d(s) is zero below u^N past its window, d(s + 1) >= N
                low = (_depth1_window(spec, s, d, N) if d * (s + 1) < N
                       else Laurent.zero(spec, N))
                got = _depth1_window(spec, p * s, d, p * N)
                assert got == frobenius(low), (q, s, d, N)
                total += 1
                nonzero += not got.is_zero()
                d += 1
    assert total == 812 and nonzero == 155


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
    for name in ("_partial_sums", "_depth1_window", "_lt_top"):
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


@pytest.mark.parametrize("q, reads", [(2, 96), (3, 120)])
def test_the_chen_family_reads_each_power_sum_once_per_call(monkeypatch, q, reads):
    # each S_d is S_{<d+1} - S_{<d}, two reads; without the call's table the
    # family made 426 reads at q = 2 and 1 440 at q = 3
    calls = []
    lt = verify.power_sum_lt
    monkeypatch.setattr(verify, "power_sum_lt",
                        lambda w, d, N: calls.append((w, d)) or lt(w, d, N))
    spec = field_from_q(q)
    for _ in range(2):  # the table does not outlive its call
        calls.clear()
        assert check_zeta_homomorphism(spec, trials=0).passed
        pairs = list(zip(calls[::2], calls[1::2]))
        assert all(w == v and d == e + 1 for (w, d), (v, e) in pairs)
        assert len(calls) == 2 * len({(v, e) for _, (v, e) in pairs}) == reads


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

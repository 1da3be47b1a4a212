"""Tests of the benchmark's independent reference (``reference.py``).

Run with ``python3 bench/check_reference.py`` (or point pytest at this file).
The closed form is tested against literal enumeration of monic polynomials
at tiny (q, d), on windows that hold nonzero coefficients past u^0, so no
comparison passes as 0 = 0.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import (  # noqa: E402
    RefField,
    Series,
    brute_power_sum,
    carlitz_power_sum,
    carlitz_zeta,
    nonvacuous,
    read_series_text,
)

# (q, d) pairs small enough for literal enumeration of all q^d monics
BRUTE_CASES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (7, 1)]


def test_field_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = RefField(q)
        for a in range(q):
            assert f.add_t[a][0] == a and f.mul_t[a][1] == a
            assert f.add_t[a][f.neg_t[a]] == 0
            for b in range(q):
                assert f.mul_t[a][b] == f.mul_t[b][a]
                for c in range(q):
                    assert f.mul_t[a][f.add_t[b][c]] == f.add_t[f.mul_t[a][b]][f.mul_t[a][c]]
        assert sorted(f.log) == list(range(1, q)), f"g does not generate F_{q}^x"


def test_closed_form_matches_enumeration():
    checked = 0
    for q, d in BRUTE_CASES:
        f = RefField(q)
        for s in range(1, q + 1):
            val = s * sum(q**i for i in range(1, d + 1))
            prec = val + 2 * q + 3
            brute = brute_power_sum(f, s, d, prec)
            for j in range(q - 1):
                eps = f.unit(j)
                closed = carlitz_power_sum(f, s, d, eps, prec)
                twisted = brute.scale(f.pow(eps, d))
                assert closed.coeffs == twisted.coeffs, (q, d, s, j)
                assert min(closed.coeffs) == val, (q, d, s, j)
                assert nonvacuous(closed.text_terms())
                checked += 1
    assert checked > 50


def test_zeta_sum_matches_enumeration():
    for q, dmax in ((2, 3), (3, 2), (4, 1)):
        f = RefField(q)
        for s in range(1, q + 1):
            # the window ends before the degree dmax + 1 summand starts
            prec = s * sum(q**i for i in range(1, dmax + 2))
            acc = Series(f, {0: 1}, prec)
            for d in range(1, dmax + 1):
                acc = acc + brute_power_sum(f, s, d, prec)
            zeta = carlitz_zeta(f, s, 1, prec)
            assert zeta.coeffs == acc.coeffs, (q, s)
            assert nonvacuous(zeta.text_terms())


def test_read_series_text():
    terms, prec = read_series_text("1 + u + g^1*u^3 + u^(-2) + O(u^8)")
    assert prec == 8 and terms == {0: "g^0", 1: "g^0", 3: "g^1", -2: "g^0"}
    assert read_series_text("0 + O(u^4)") == ({}, 4)
    assert read_series_text("g^2*u^10 + O(u^16)") == ({10: "g^2"}, 16)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

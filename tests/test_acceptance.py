"""Acceptance gate: every headline identity at its stated bounds, exact
equality over F_q, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import pytest

from amzv import (
    Element,
    Laurent,
    check_algebra,
    check_coalgebra,
    check_coproduct_oracle,
    check_hopf,
    check_zeta_homomorphism,
    faults,
    format_laurent,
    letter,
    parse_element,
    parse_laurent,
    parse_word,
    power_sum_d,
    word_to_array,
    zeta_trunc,
)

from conftest import get_spec

STRUCT_QS = (2, 3, 4)
ORACLE_QS = (2, 3, 4, 5)
ZETA_QS = (2, 3)
SEED = 20260810


def _report_line(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, detail


def _failures_with(reports, prefixes):
    out = []
    for q, rep in reports.items():
        out += [f"q={q}: {f}" for f in rep.failures if f.startswith(prefixes)]
    return out


@pytest.fixture(scope="module")
def algebra_reports():
    return {q: check_algebra(get_spec(q), 6) for q in STRUCT_QS}


@pytest.fixture(scope="module")
def coalgebra_reports():
    return {q: check_coalgebra(get_spec(q), 6) for q in STRUCT_QS}


@pytest.fixture(scope="module")
def hopf_reports():
    return {q: check_hopf(get_spec(q), 6, dim_weight=8) for q in STRUCT_QS}


@pytest.fixture(scope="module")
def zeta_reports():
    return {
        q: check_zeta_homomorphism(
            get_spec(q),
            d_max=3,
            max_weight=4,
            prec=32,
            trials=100,
            seed=SEED,
            zeta_prec=20,
            chen_rs=6,
            chen_d=2,
        )
        for q in ZETA_QS
    }


def test_criterion_1_algebra(algebra_reports):
    bad = [f"q={q}: {f}" for q, r in algebra_reports.items() for f in r.failures]
    elapsed = sum(r.millis for r in algebra_reports.values())
    n = sum(r.instances for r in algebra_reports.values())
    _report_line(
        1,
        not bad and elapsed < 300_000,
        f"algebra suite, q in {STRUCT_QS}, pairs<=6 triples<=5: "
        f"{n} instances, {len(bad)} failures, {elapsed} ms" + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_2_compatibility(coalgebra_reports):
    bad = _failures_with(coalgebra_reports, ("compatibility",))
    elapsed = sum(r.millis for r in coalgebra_reports.values())
    _report_line(
        2,
        not bad and elapsed < 600_000,
        f"coproduct/shuffle compatibility, pairs of total weight<=6, q in {STRUCT_QS}: "
        f"{len(bad)} failures, {elapsed} ms" + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_3_coassociativity_counit(coalgebra_reports):
    bad = _failures_with(coalgebra_reports, ("coassociativity", "counit-"))
    _report_line(
        3,
        not bad,
        f"coassociativity + counit axioms, words of weight<=6, q in {STRUCT_QS}: "
        f"{len(bad)} failures" + (f"; first: {bad[0]}" if bad else ""),
    )


def test_coalgebra_support_laws(coalgebra_reports):
    # grading, unit tensorand shape, horizontal law, diamond-coproduct law
    bad = _failures_with(
        coalgebra_reports,
        ("coproduct-grading", "unit-tensorand", "coproduct-horizontal", "diamond-coproduct"),
    )
    assert not bad, bad[0]


def test_criterion_4_hopf(hopf_reports):
    bad = [f"q={q}: {f}" for q, r in hopf_reports.items() for f in r.failures]
    _report_line(
        4,
        not bad,
        f"antipode axioms (weight<=6), grading, dim H_w for w<=8, q in {STRUCT_QS}: "
        f"{len(bad)} failures" + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_5_coproduct_oracle():
    reports = {
        q: check_coproduct_oracle(get_spec(q), max_n=8, table_n=12, word_weight_bound=6)
        for q in ORACLE_QS
    }
    bad = [f"q={q}: {f}" for q, r in reports.items() for f in r.failures]
    _report_line(
        5,
        not bad,
        f"closed depth-one coproduct == weight recursion (n<=8) and overlap "
        f"table (n<=12), q in {ORACLE_QS}: {len(bad)} failures"
        + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_6_numeric_homomorphism(zeta_reports):
    bad = _failures_with(zeta_reports, ("powsum-homomorphism", "zeta-homomorphism"))
    elapsed = sum(r.millis for r in zeta_reports.values())
    _report_line(
        6,
        not bad and elapsed < 300_000,
        f"S_<d and zeta shuffle homomorphisms, q in {ZETA_QS}, d<=3, 100 seeded "
        f"pairs of weight<=4, prec 32/20: {len(bad)} failures, {elapsed} ms"
        + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_7_chen(zeta_reports):
    bad = _failures_with(zeta_reports, ("chen",))
    _report_line(
        7,
        not bad,
        f"depth-one product formula, twisted and plain, r+s<=6, d<=2, all "
        f"character pairs, q in {ZETA_QS}: {len(bad)} failures"
        + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_8_spot_values():
    ok = True
    notes = []

    for q in ZETA_QS:
        spec = get_spec(q)
        for s in (1, 2, 3):
            for j in range(q - 1):
                arr = (letter(spec, s, spec.unit_from_exp(j)),)
                if power_sum_d(arr, 0, 8) != Laurent.one(spec, 8):
                    ok = False
                    notes.append(f"S_0 != 1 at q={q} s={s} j={j}")

    s2 = get_spec(2)
    golden_s1 = "u^2 + u^3 + u^4 + u^5 + u^6 + u^7 + O(u^8)"
    brute = power_sum_d((letter(s2, 1, s2.one),), 1, 8)
    if format_laurent(brute) != golden_s1:
        ok = False
        notes.append(f"S_1 golden mismatch: {format_laurent(brute)}")

    golden_zeta = "1 + u^2 + u^3 + O(u^4)"
    arr = word_to_array(parse_word("x[1,0]", s2))
    brute_zeta = Laurent.zero(s2, 4)
    for d in range(0, 4):
        brute_zeta = brute_zeta + power_sum_d(arr, d, 4)
    fast_zeta = zeta_trunc(parse_element("x[1,0]", s2), 4)
    if format_laurent(brute_zeta) != golden_zeta:
        ok = False
        notes.append(f"zeta golden mismatch (enumerator): {format_laurent(brute_zeta)}")
    if not fast_zeta.agrees_with(brute_zeta):
        ok = False
        notes.append("zeta fast path disagrees with the enumerator")

    _report_line(
        8,
        ok,
        "spot values (S_0 = 1; q=2 golden S_1 and zeta of x[1,0], enumerator-"
        "recomputed): " + ("all match" if ok else "; ".join(notes)),
    )


def test_criterion_9_negative_controls():
    spec = get_spec(3)
    results = {}
    with faults.inject_fault(faults.DELTA_CORRUPT, spec):
        results["corrupted overlap coefficient"] = bool(
            check_algebra(spec, 4).failures
        )
    with faults.inject_fault(faults.DROP_UNIT_TENSOR, spec):
        results["dropped unit tensorand"] = bool(check_coalgebra(spec, 3).failures)
    with faults.inject_fault(faults.ANTIPODE_SIGN, spec):
        results["flipped antipode sign"] = bool(check_hopf(spec, 3).failures)
    # and the suites recover once the faults are lifted
    clean = (
        check_algebra(spec, 4).passed
        and check_coalgebra(spec, 3).passed
        and check_hopf(spec, 3).passed
    )
    ok = all(results.values()) and clean
    _report_line(
        9,
        ok,
        "each deliberate fault trips at least one suite and the suites recover: "
        + ", ".join(f"{k}={'tripped' if v else 'MISSED'}" for k, v in results.items()),
    )

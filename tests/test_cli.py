import contextlib
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

from amzv import (
    basis_words,
    field_from_q,
    format_laurent,
    format_word,
    power_sum_d,
    word_to_array,
)
from amzv import cli, zeta

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _readme_examples():
    """Extract every ``$ amzv ...`` block from the README with its expected
    output; a following ``# (timings vary)`` line means run-only."""
    cases = []
    block = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            block = [] if block is None else None
            continue
        if block is None:
            continue
        if line.startswith("$ amzv "):
            block = []
            cases.append((shlex.split(line[len("$ amzv "):]), block))
        elif cases and block is not None and line.strip():
            block.append(line)
    return [(argv, "\n".join(exp)) for argv, exp in cases]


@pytest.mark.parametrize(
    "argv,expected", _readme_examples(), ids=lambda v: v if isinstance(v, str) else " ".join(v)
)
def test_readme_examples_golden(argv, expected, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    if expected.strip() == "# (timings vary)":
        return
    assert out.rstrip("\n") == expected


def test_readme_examples_found():
    assert len(_readme_examples()) >= 10


def test_byte_identical_reruns(capsys):
    argv = ["shuffle", "--q", "3", "x[2,1]x[1,0]", "x[1,1]"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_q_as_prime_power(capsys):
    code, out, _ = run_cli(capsys, ["shuffle", "--q", "2^2", "x[1,1]", "x[1,2]"])
    assert code == 0
    code2, out2, _ = run_cli(capsys, ["shuffle", "--q", "4", "x[1,1]", "x[1,2]"])
    assert code2 == 0 and out == out2


def test_explicit_modulus(capsys):
    code, out, _ = run_cli(
        capsys,
        ["shuffle", "--p", "2", "--k", "2", "--modulus", "1,1,1", "x[1,1]", "x[1,1]"],
    )
    assert code == 0
    assert out.strip() == "x[2,2]"  # g*g = g^2 in F_4


def test_env_var_default_q(capsys, monkeypatch):
    monkeypatch.setenv("AMZV_Q", "3")
    code, out, _ = run_cli(capsys, ["shuffle", "x[1,1]", "x[1,1]"])
    assert code == 0
    assert out.strip() == "x[2,0] + g^1*x[1,1]x[1,1]"


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, ["shuffle", "--q", "3", "x[1,9]", "x[1,0]"])[0] == 2
    assert run_cli(capsys, ["shuffle", "x[1,0]", "x[1,0]"])[0] == 2  # no field
    assert run_cli(capsys, ["zeta", "--q", "6", "x[1,0]"])[0] == 2
    assert run_cli(capsys, ["powsum", "--q", "2", "--d", "1", "1"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["powsum", "--q", "3", "--d", "2", "--prec", "-3", "x[1,0]"],
    ["powsum", "--q", "3", "--d", "2", "--lt", "--prec", "-1", "x[1,0]"],
    ["zeta", "--q", "2", "--prec", "-5", "x[1,0]"],
])
def test_negative_prec_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --prec must be >= 0")


def test_zero_prec_is_allowed(capsys):
    assert run_cli(capsys, ["zeta", "--q", "2", "--prec", "0", "x[1,0]"])[:2] == (0, "0 + O(u^0)\n")
    code, out, _ = run_cli(capsys, ["powsum", "--q", "3", "--d", "2", "--prec", "0", "x[1,0]"])
    assert (code, out) == (0, "0 + O(u^0)\n")


@pytest.mark.parametrize("flags,message", [
    (["--p", "4", "--k", "1"], "p = 4 is not prime"),
    (["--p", "2", "--k", "0"], "extension degree k must be >= 1"),
    (["--p", "2", "--k", "7"], "q = 128 exceeds the supported maximum 64"),
    (["--p", "2", "--k", "2", "--modulus", "1,0,1"], "modulus is reducible"),
    (["--p", "2", "--k", "2", "--modulus", "1,1"], "modulus must be monic of degree k"),
    (["--q", "128"], "q = 128 exceeds the supported maximum 64"),
    (["--q", "3", "--p", "2", "--k", "1"], "--q cannot be combined with --p, --k or --modulus"),
    (["--q", "3", "--k", "2"], "--q cannot be combined with --p, --k or --modulus"),
    (["--q", "3", "--modulus", "1,1,1"], "--q cannot be combined with --p, --k or --modulus"),
    (["--p", "2"], "--p and --k go together; --modulus needs both"),
    (["--k", "2"], "--p and --k go together; --modulus needs both"),
    (["--modulus", "1,1,1"], "--p and --k go together; --modulus needs both"),
    (["--p", "2", "--k", "2", "--modulus", "1,x,1"], "bad --modulus '1,x,1'"),
    (["--p", "2", "--k", "2", "--modulus", ""], "bad --modulus ''"),
    (["--q", "three"], "bad --q 'three'"),
    (["--q", "2^x"], "bad --q '2^x'"),
    (["--q", "2^2^2"], "bad --q '2^2^2'"),
])
def test_bad_field_flags_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, ["shuffle", *flags, "x[1,0]", "x[1,0]"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_field_flags_and_amzv_q(capsys, monkeypatch):
    monkeypatch.setenv("AMZV_Q", "three")
    assert run_cli(capsys, ["shuffle", "x[1,0]", "x[1,0]"]) == (
        2, "", "error: bad AMZV_Q 'three'\n")
    # a flag overrides the environment: --q, and --p/--k as a pair
    monkeypatch.setenv("AMZV_Q", "3")
    assert run_cli(capsys, ["shuffle", "--q", "2", "x[1,0]", "x[1,0]"]) == (0, "x[2,0]\n", "")
    argv = ["shuffle", "--p", "2", "--k", "2", "x[1,1]", "x[1,1]"]
    assert run_cli(capsys, argv) == (0, "x[2,2]\n", "")
    assert run_cli(capsys, ["shuffle", "--k", "2", "x[1,0]", "x[1,0]"]) == (
        2, "", "error: --p and --k go together; --modulus needs both\n")


def test_verify_rejects_a_field_flag_it_cannot_use(capsys):
    # --k alone used to be ignored, and the default matrix ran
    assert run_cli(capsys, ["verify", "--k", "2"]) == (
        2, "", "error: --p and --k go together; --modulus needs both\n")


@pytest.mark.parametrize("argv,message", [
    (["--q", "3", "--weight-max", "-2"], "--weight-max must be >= 0, got -2"),
    (["--p", "3", "--k", "1", "--modulus", "5,5,5", "--weight-max", "1"],
     "modulus must be monic of degree k"),
])
def test_basis_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, ["basis", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("q,weight_max", [(64, 4), (2, 10**9)])
def test_basis_past_the_budget_exits_1_before_any_output(capsys, q, weight_max):
    # q = 64 has 63 * 64^3 words of weight 4, past ff.BUDGET = 10^6
    assert run_cli(capsys, ["basis", "--q", str(q), "--weight-max", str(weight_max)]) == (
        1, "", f"error: (q - 1) q^(w - 1) = {q - 1}*{q}^{weight_max - 1} exceeds budget 1000000\n")


def test_basis_streams_its_words():
    # the 61 440 words of weight 4 at q = 16, held in one list, peaked at
    # 5.6 MB of Python allocations; streamed, only the 3 840 + 225 + 15
    # tails of lower weight are kept, about 0.5 MB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(["basis", "--q", "16", "--weight-max", "4"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_basis_within_the_budget_prints_every_word(capsys):
    code, out, err = run_cli(capsys, ["basis", "--q", "64", "--weight-max", "3"])
    assert (code, out.count("\n"), err) == (0, 1 + 63 * (1 + 64 + 64**2), "")


@pytest.mark.parametrize("flag", ["--weight-max", "--dmax", "--trials"])
def test_verify_negative_bounds_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, ["verify", "--q", "2", flag, "-1"])
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got -1\n")


def test_budget_exit_1(capsys):
    # S_4 of x[1,0] has an open window below u^9 (4 * 2 < 9), and the
    # depth-one kernel would sum 32^4 coefficient vectors for it
    code, out, err = run_cli(
        capsys, ["powsum", "--q", "32", "--d", "4", "--prec", "9", "x[1,0]"]
    )
    assert (code, out, err) == (1, "", "error: q^d = 32^4 exceeds budget 1000000\n")


def test_powsum_above_the_horizon_needs_no_budget(capsys):
    # S_15 of x[1,0] has valuation >= 15 > 6, so it is exactly zero below
    # u^6; summing it over chains would need 3^15 = 14348907 of them
    argv = ["powsum", "--q", "3", "--d", "15", "--prec", "6", "x[1,0]"]
    assert run_cli(capsys, argv) == (0, "0 + O(u^6)\n", "")


def test_lt_above_the_horizon_needs_no_chain_budget(capsys):
    # every S_m with m >= 1 of x[40,0] has valuation >= 40 > 5, so S_{<30} is
    # exactly 1 below u^5; summing S_m over chains would need 4^10 = 1048576
    # chains at m = 10 alone
    argv = ["powsum", "--q", "4", "--d", "30", "--lt", "--prec", "5", "x[40,0]"]
    assert run_cli(capsys, argv) == (0, "1 + O(u^5)\n", "")


def test_verify_small_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--q", "2", "--weight-max", "3", "--trials", "3",
         "--format", "machine"],
    )
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 5
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6
        assert fields[4] == "0"


def test_verify_reports_failures_exit_3(capsys, monkeypatch):
    from amzv.verify import CheckReport

    def fake_matrix(*a, **k):
        return [CheckReport("thm-x", 2, 3, 1, ["broken"], 0)]

    monkeypatch.setattr("amzv.verify.run_default_matrix", fake_matrix)
    code, out, _ = run_cli(capsys, ["verify", "--q", "2"])
    assert code == 3
    assert "FAIL" in out


def test_verify_with_no_instance_exits_3(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--q", "2", "--weight-max", "1", "--trials", "0", "--dmax", "0"]
    )
    assert code == 3
    assert re.search(r"^FAIL thm-commutative-algebra \(q=2, bound=1, 0 instances, \d+ ms\)\n"
                     r"  no instance checked$", out, re.M)
    assert out.count("PASS ") == 4
    # the failed report has no failure line; it still counts as one failure
    assert out.endswith("\n5 checks, 1 failures\n")


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--q", "2", "--weight-max", "2", "--trials", "2"]
    )
    assert code == 0
    assert re.search(r"PASS thm-", out)
    assert "5 checks, 0 failures" in out


def _call(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch):
    steps = [
        (None, ["shuffle", "--q", "3", "x[2,1]x[1,0]", "x[1,1]"]),
        (None, ["shuffle", "--q", "3", "x[1,9]", "x[1,0]"]),       # bad letter: exit 2
        (None, ["powsum", "--q", "2", "x[1,0]"]),                  # no --d: exit 2
        ("3", ["shuffle", "x[1,1]", "x[1,1]"]),                    # AMZV_Q default
        (None, ["shuffle", "x[1,1]", "x[1,1]"]),                   # AMZV_Q unset again: exit 2
        (None, ["powsum", "--q", "32", "--d", "4", "--prec", "9", "x[1,0]"]),  # budget: exit 1
        (None, ["zeta", "--q", "2", "--prec", "4", "x[1,0]"]),
    ]

    def run(fresh):
        got = []
        for env, argv in steps * 2:
            if env is None:
                monkeypatch.delenv("AMZV_Q", raising=False)
            else:
                monkeypatch.setenv("AMZV_Q", env)
            if fresh:
                cli._parser.cache_clear()
            got.append(_call(capsys, argv))
        return got

    cached = run(fresh=False)
    assert [c for c, _, _ in cached] == [0, 2, 2, 0, 2, 1, 0] * 2
    assert cached == run(fresh=True)
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()


def _refuse(*args, **kwargs):
    raise AssertionError("the chain route was entered")


@pytest.mark.parametrize("argv,expected", [
    (["powsum", "--q", "3", "--d", "2", "--prec", "16", "x[1,1]x[1,0]"],
     "u^12 + u^14 + g^1*u^15 + O(u^16)"),
    (["powsum", "--q", "3", "--d", "3", "--lt", "--prec", "12", "x[2,1]"],
     "1 + g^1*u^6 + u^8 + O(u^12)"),
    (["zeta", "--q", "4", "--prec", "10", "x[1,2]x[2,0]"], "g^2*u^4 + g^2*u^7 + O(u^10)"),
])
def test_powsum_and_zeta_enumerate_no_chain(capsys, monkeypatch, argv, expected):
    for name in ("monic_enum", "power_sum_d", "_power_sum_d", "_inv_pow"):
        monkeypatch.setattr(zeta, name, _refuse)
    assert run_cli(capsys, argv) == (0, expected + "\n", "")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_powsum_matches_the_chain_oracle(capsys, q):
    # the chain enumerator is exact below its horizon, so one oracle value
    # at u^12, truncated, gives S_d at every lower precision
    spec = field_from_q(q)
    for weight in range(1, 4):
        for w in basis_words(weight, spec):
            for d in range(4):
                want = power_sum_d(word_to_array(w), d, 12)
                for prec in range(13):
                    argv = ["powsum", "--q", str(q), "--d", str(d), "--prec", str(prec),
                            format_word(w, spec)]
                    expected = format_laurent(want.truncate(prec)) + "\n"
                    assert run_cli(capsys, argv) == (0, expected, ""), argv


@pytest.mark.parametrize("argv,flag", [
    (["shuffle", "--q", "2", "--format", "machine", "x[1,0]", "x[1,0]"], "--format"),
    (["zeta", "--q", "2", "--ascii", "x[1,0]"], "--ascii"),
    (["basis", "--q", "2", "--weight-max", "1", "--ascii"], "--ascii"),
    (["coproduct", "--q", "2", "--format", "text", "x[1,0]"], "--format"),
])
def test_flags_a_command_ignores_are_usage_errors(capsys, argv, flag):
    code, out, err = _call(capsys, argv)
    assert (code, out) == (2, "")
    assert f"error: unrecognized arguments: {flag}" in err

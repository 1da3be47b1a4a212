import re
import shlex
from pathlib import Path

import pytest

from amzv import cli

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
])
def test_bad_field_flags_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, ["shuffle", *flags, "x[1,0]", "x[1,0]"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["--q", "3", "--weight-max", "-2"], "--weight-max must be >= 0, got -2"),
    (["--p", "3", "--k", "1", "--modulus", "5,5,5", "--weight-max", "1"],
     "modulus must be monic of degree k"),
])
def test_basis_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, ["basis", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--weight-max", "--dmax", "--trials"])
def test_verify_negative_bounds_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, ["verify", "--q", "2", flag, "-1"])
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got -1\n")


def test_budget_exit_1(capsys):
    code, _, err = run_cli(
        capsys, ["powsum", "--q", "3", "--d", "15", "--prec", "6", "x[1,0]"]
    )
    assert code == 1
    assert "budget" in err


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
        return [CheckReport("thm-x", 2, 3, {}, 1, ["broken"], 0)]

    monkeypatch.setattr(cli.verify, "run_default_matrix", fake_matrix)
    code, out, _ = run_cli(capsys, ["verify", "--q", "2"])
    assert code == 3
    assert "FAIL" in out


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
        (None, ["powsum", "--q", "3", "--d", "15", "--prec", "6", "x[1,0]"]),  # budget: exit 1
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

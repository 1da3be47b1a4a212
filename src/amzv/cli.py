"""Command-line front end.

One subcommand per operation; all configuration is by flags so runs are
reproducible from the command line alone (the environment variable ``AMZV_Q``
may supply a default field size, nothing else).  Exit codes: 0 success,
1 computation error (for example an enumeration budget), 2 usage or parse
error, 3 verification found failures.

Only the word algebra is imported with this module: the ``zeta`` and
``verify`` modules are imported by the subcommands that use them, so a
request pays for compiling only what it runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .coalgebra import antipode, coproduct
from .ff import BudgetExceededError, FieldSpec, field_from_q, field_make
from .products import diamond, shuffle, triangle
from .words import (
    Element,
    check_basis_budget,
    format_element,
    format_tensor,
    format_word,
    iter_basis_words,
    parse_element,
    parse_word,
)


class UsageError(ValueError):
    pass


def _ints(text: str, sep: str, flag: str) -> list[int]:
    try:
        return [int(c) for c in text.split(sep)]
    except ValueError:
        raise UsageError(f"bad {flag} {text!r}") from None


def _field_from_args(args) -> FieldSpec:
    """The field named by --q, by --p/--k/--modulus or by AMZV_Q, which
    either flag overrides; every bad value, and --q with any of the others,
    is a usage error."""
    try:
        if (args.p, args.k, args.modulus) != (None, None, None):
            if args.q is not None:
                raise UsageError("--q cannot be combined with --p, --k or --modulus")
            if args.p is None or args.k is None:
                raise UsageError("--p and --k go together; --modulus needs both")
            modulus = None if args.modulus is None else _ints(args.modulus, ",", "--modulus")
            return field_make(args.p, args.k, modulus)
        qtext = args.q if args.q is not None else os.environ.get("AMZV_Q")
        flag = "--q" if args.q is not None else "AMZV_Q"
        if qtext is None:
            raise UsageError("no field given: use --q or --p/--k (or set AMZV_Q)")
        q = _ints(qtext, "^", flag)
        if len(q) > 2:
            raise UsageError(f"bad {flag} {qtext!r}")
        return field_make(*q) if len(q) == 2 else field_from_q(*q)
    except ValueError as exc:  # a UsageError passes through unchanged
        raise UsageError(str(exc)) from None


def _parse_operand(text: str, spec: FieldSpec) -> Element:
    try:
        return parse_element(text, spec)
    except ValueError as exc:
        raise UsageError(f"bad element {text!r}: {exc}") from None


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="amzv",
        description="products, coproducts and truncated zeta values for "
        "alternating-character words over F_q",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", help="field size, e.g. 3 or 2^2")
    common.add_argument("--p", type=int, help="characteristic (with --k)")
    common.add_argument("--k", type=int, help="extension degree (with --p)")
    common.add_argument(
        "--modulus", help="comma-separated ascending coefficients of the modulus"
    )

    sub = top.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("shuffle", "shuffle product of two elements"),
        ("diamond", "diamond product of two elements"),
        ("triangle", "triangle product of two elements"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("a")
        p.add_argument("b")
    p = sub.add_parser("coproduct", parents=[common], help="coproduct of an element")
    p.add_argument("a")
    p.add_argument("--ascii", action="store_true", help="ASCII tensor symbol")
    p = sub.add_parser("antipode", parents=[common], help="antipode of an element")
    p.add_argument("a")
    p = sub.add_parser("powsum", parents=[common], help="power sum S_d (or S_<d) of a word")
    p.add_argument("word")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--prec", type=int, default=16)
    p.add_argument("--lt", action="store_true", help="sum over degrees below d")
    p = sub.add_parser("zeta", parents=[common], help="truncated zeta value of an element")
    p.add_argument("a")
    p.add_argument("--prec", type=int, default=16)
    p = sub.add_parser("basis", parents=[common], help="basis words up to a weight")
    p.add_argument("--weight-max", type=int, required=True)
    p = sub.add_parser("verify", parents=[common], help="run the verification matrix")
    p.add_argument("--weight-max", type=int, default=6)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--format", choices=("text", "machine"), default="text", dest="fmt")
    return top


def _run(args) -> int:
    cmd = args.command
    if cmd == "verify":
        from . import verify

        specs = None
        given = (args.q, args.p, args.k, args.modulus)
        if given != (None,) * len(given) or "AMZV_Q" in os.environ:
            specs = [_field_from_args(args)]
        reports = verify.run_default_matrix(
            specs,
            weight_bound=_nonnegative(args.weight_max, "--weight-max"),
            d_max=_nonnegative(args.dmax, "--dmax"),
            trials=_nonnegative(args.trials, "--trials"),
            seed=args.seed,
        )
        for rep in reports:
            print(rep.machine_line() if args.fmt == "machine" else rep.text_block())
        # a report that failed with no failure line checked no instance
        bad = sum(len(r.failures) or not r.passed for r in reports)
        if args.fmt == "text":
            print(f"{len(reports)} checks, {bad} failures")
        return 0 if all(r.passed for r in reports) else 3

    spec = _field_from_args(args)
    if cmd in ("shuffle", "diamond", "triangle"):
        a = _parse_operand(args.a, spec)
        b = _parse_operand(args.b, spec)
        op = {"shuffle": shuffle, "diamond": diamond, "triangle": triangle}[cmd]
        print(format_element(op(a, b)))
        return 0
    if cmd == "coproduct":
        a = _parse_operand(args.a, spec)
        print(format_tensor(coproduct(a), ascii_tensor=args.ascii))
        return 0
    if cmd == "antipode":
        a = _parse_operand(args.a, spec)
        print(format_element(antipode(a)))
        return 0
    if cmd == "powsum":
        from .zeta import format_laurent, power_sum_lt

        try:
            w = parse_word(args.word, spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if not w:
            raise UsageError("power sums need a nonempty word")
        prec = _nonnegative(args.prec, "--prec")
        # S_d = S_{<d+1} - S_{<d}, both from the factorized route; the walk
        # to S_{<d+1} refuses a budget first and builds S_{<d} on its way
        if args.lt:
            ps = power_sum_lt(w, args.d, prec)
        else:
            ps = power_sum_lt(w, args.d + 1, prec) - power_sum_lt(w, args.d, prec)
        print(format_laurent(ps))
        return 0
    if cmd == "zeta":
        from .zeta import format_laurent, zeta_trunc

        a = _parse_operand(args.a, spec)
        print(format_laurent(zeta_trunc(a, _nonnegative(args.prec, "--prec"))))
        return 0
    if cmd == "basis":
        weight_max = _nonnegative(args.weight_max, "--weight-max")
        # the count grows with the weight, so this refuses before any output
        check_basis_budget(weight_max, spec)
        for w in range(weight_max + 1):
            for word in iter_basis_words(w, spec):
                print(format_word(word, spec))
        return 0
    raise AssertionError(f"unhandled command {cmd}")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser; parsing leaves it unchanged, so one serves
    every call of :func:`main`."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

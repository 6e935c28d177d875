"""Command-line front end over the series, catalog, congruence and
parameterization layers.

Exit codes: 0 when the command ran and every check passed; 1 when at
least one verification failed or a congruence was refuted; 2 on usage
or input errors. Identical invocations print identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import lcm

from . import aaw, congruences, dissect, schur
from .series import Series, ZZ, mod_ring


DEFAULT_PRECISION = 500
DEFAULT_TABLE_SIZE = 40_000


def _check_sizes(args: argparse.Namespace) -> None:
    for flag in ("precision", "l_precision"):
        value = getattr(args, flag, None)
        if value is not None and value < 8:
            raise ValueError(f"{flag.replace('_', '-')} must be at least 8")
    if getattr(args, "table_size", 1) < 1:
        raise ValueError("table size must be positive")


def _ring(args: argparse.Namespace):
    return ZZ if args.mod is None else mod_ring(args.mod)


def _print_coeffs(series: Series, as_json: bool) -> None:
    if as_json:
        print(json.dumps(list(series.coeffs)))
    else:
        print(" ".join(str(c) for c in series.coeffs))


def _emit(results: list, as_json: bool, passed) -> int:
    """Print every result; exit code 1 unless all passed. All lines are
    rendered first, so a result that cannot be rendered prints nothing."""
    lines = [res.as_json() if as_json else res.describe() for res in results]
    for line in lines:
        print(line)
    return 0 if all(passed(res) for res in results) else 1


def cmd_dissect(args: argparse.Namespace) -> int:
    steps = dissect.parse_steps(args.steps)
    lhs = dissect.parse_lhs(args.expression)
    _print_coeffs(dissect.lhs_series(lhs, _ring(args), args.precision, steps), args.json)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all == bool(args.ids):
        raise ValueError("pass --all or one or more record ids (not both)")
    records = None if args.all else [dissect.get_record(name) for name in args.ids]
    reports = dissect.verify_catalog(records, args.precision)
    return _emit(reports, args.json, lambda r: r.passed)


def cmd_scan(args: argparse.Namespace) -> int:
    # every argument is checked before the table is built
    moduli = congruences.check_scan_args(
        args.max_a, [m for m in args.moduli.split(",") if m.strip()], args.min_support
    )
    table = schur.residue_table(args.table_size, lcm(*moduli))
    results = congruences.scan(args.max_a, moduli, table, args.min_support)
    out = congruences.scan_to_json(results)
    if out:
        print(out)
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    # A = 2^(5+2*alpha) prints only below 10^limit; refuse before any work
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and 5 + 2 * args.alpha_max >= (10**limit).bit_length():
        raise ValueError(
            f"--alpha-max {args.alpha_max} is too large: A = 2^(5+2*alpha) "
            f"would have more than {limit} digits"
        )
    table = schur.residue_table(args.table_size, 16)
    checks = congruences.verify_family(args.alpha_max, table)
    return _emit(checks, args.json, lambda c: not c.testable or c.result.holds)


def cmd_internal(args: argparse.Namespace) -> int:
    entries = congruences.INTERNAL_PROVED + congruences.INTERNAL_CONJECTURED
    table = schur.residue_table(args.table_size, lcm(*(ic.M for ic in entries)))
    # a list, not a generator: a table too short fails before any output
    checked = [congruences.check_internal(ic, table) for ic in entries]
    return _emit(checked, args.json, lambda ic: ic.holds)


def cmd_aaw_check(args: argparse.Namespace) -> int:
    pair = aaw.compute_params(args.precision)
    reports = aaw.verify_param_identities(pair, args.precision)
    reports.append(aaw.verify_L_identity(args.precision))
    obstruction = dissect.get_record("l-obstruction-mod16")
    report = dissect.verify_identity(obstruction, args.l_precision)
    reports.append(dataclasses.replace(report, name="l-divisible-by-16"))
    return _emit(reports, args.json, lambda r: r.passed)


def cmd_oracle(args: argparse.Namespace) -> int:
    if not 0 <= args.limit <= 40:
        raise ValueError("--limit must be between 0 and 40")
    table = schur.s_series(args.limit + 1)
    ok = True
    for n in range(args.limit + 1):
        counted = schur.oracle_schur_overpartitions(n)
        match = counted == table[n]
        ok = ok and match
        if args.json:
            print(json.dumps({"n": n, "oracle": counted, "table": table[n], "match": match}))
        else:
            print(f"n={n} oracle={counted} table={table[n]} {'ok' if match else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_dump_table(args: argparse.Namespace) -> int:
    if args.cache and args.mod is not None:
        raise ValueError("--cache holds exact values; drop --mod")
    if args.count is not None and args.count < 0:
        raise ValueError("--count must be nonnegative")
    if args.mod is not None:
        table = schur.residue_table(args.table_size, args.mod)
    else:
        table = schur.s_series(args.table_size, args.cache)
    stop = table.precision if args.count is None else min(args.count, table.precision)
    for n in range(stop):
        print(f"{n} {table[n]}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="Truncated q-series arithmetic, dissection identities and congruence scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several commands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--table-size", dest="table_size", type=int, default=DEFAULT_TABLE_SIZE)
    expansion = argparse.ArgumentParser(add_help=False, parents=[as_json])
    expansion.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    expansion.add_argument("--mod", type=int, default=None, help="expand over Z/m instead of Z")

    def add(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(func=func)
        return p

    # expand is dissect without trailing steps: one evaluator serves both
    p = add("expand", cmd_dissect, "expand an eta-quotient expression to coefficients", expansion)
    p.set_defaults(steps=())
    p.add_argument("expression")

    p = add("dissect", cmd_dissect, "extract arithmetic-progression components", expansion)
    p.add_argument("expression", help="DSL expression, or @root with optional inline steps")
    p.add_argument("steps", nargs="*", help="extraction steps m:r applied left to right")

    p = add("verify", cmd_verify, "verify catalog identities", as_json)
    p.add_argument("ids", nargs="*", help="record ids (default: use --all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--precision", type=int, default=None,
                   help="override the per-record default precision")

    p = add("scan", cmd_scan, "scan for vanishing arithmetic progressions", sized)
    p.add_argument("--max-a", dest="max_a", type=int, default=128)
    p.add_argument("--moduli", default="8,16,32", help="comma-separated moduli")
    p.add_argument("--min-support", dest="min_support", type=int,
                   default=congruences.MIN_SUPPORT_FLOOR)

    p = add("family", cmd_family, "check the infinite mod-16 progression family", sized, as_json)
    p.add_argument("--alpha-max", dest="alpha_max", type=int, default=4)

    add("internal", cmd_internal, "check internal congruences (proved and empirical)",
        sized, as_json)

    p = add("aaw-check", cmd_aaw_check, "verify the theta parameterization suite", as_json)
    p.add_argument("--precision", type=int, default=300)
    p.add_argument("--l-precision", dest="l_precision", type=int, default=None,
                   help="depth of the divisibility-by-16 check (default: the record's "
                   f"own, {dissect.DEFAULT_MOD_PRECISION} terms)")

    p = add("oracle", cmd_oracle, "compare the brute-force count against the table", as_json)
    p.add_argument("--limit", type=int, default=20, help="largest n to enumerate (max 40)")

    p = add("dump-table", cmd_dump_table, "print the count table", sized)
    p.add_argument("--mod", type=int, default=None, help="dump residues instead of exact values")
    p.add_argument("--count", type=int, default=None, help="print only the first K values")
    p.add_argument("--cache", default=None, help="exact-table cache file, read or written")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_sizes(args)
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller precision or table size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end over the series, catalog, congruence and
parameterization layers.

Exit codes: 0 when the command ran and every check passed; 1 when at
least one verification failed or a congruence was refuted; 2 on usage
or input errors. Identical invocations print identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from math import lcm

from . import aaw, congruences, dissect, eta, schur
from .series import Series, ZZ, mod_ring


@dataclass(frozen=True)
class Config:
    precision: int = 500
    table_size: int = 40_000
    output: str = "text"
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if self.precision < 8:
            raise ValueError("precision must be at least 8")
        if self.table_size < 1:
            raise ValueError("table size must be positive")
        if self.output not in ("text", "json"):
            raise ValueError("output must be 'text' or 'json'")


def _config(args: argparse.Namespace) -> Config:
    precision = getattr(args, "precision", None)
    flag_cache = getattr(args, "cache", None)
    # the environment variable wins over the flag
    env_cache = os.environ.get(schur.CACHE_ENV) or None
    if env_cache and flag_cache and env_cache != flag_cache:
        print(f"note: {schur.CACHE_ENV} overrides --cache; using {env_cache}", file=sys.stderr)
    return Config(
        precision=500 if precision is None else precision,
        table_size=getattr(args, "table_size", 40_000),
        output="json" if getattr(args, "json", False) else "text",
        cache_path=env_cache or flag_cache,
    )


def _ring(args: argparse.Namespace):
    mod = getattr(args, "mod", None)
    return ZZ if mod is None else mod_ring(mod)


def _print_coeffs(series: Series, as_json: bool) -> None:
    if as_json:
        print(json.dumps(list(series.coeffs)))
    else:
        print(" ".join(str(c) for c in series.coeffs))


def _report_json(rep: dissect.VerificationReport) -> str:
    mm = None
    if rep.mismatch is not None:
        mm = {"degree": rep.mismatch.degree, "lhs": rep.mismatch.lhs, "rhs": rep.mismatch.rhs}
    return json.dumps(
        {
            "name": rep.name,
            "passed": rep.passed,
            "precision": rep.precision,
            "modulus": rep.modulus,
            "required_root_precision": rep.required_root_precision,
            "mismatch": mm,
        }
    )


def _emit_reports(reports, as_json: bool) -> int:
    for rep in reports:
        print(_report_json(rep) if as_json else rep.describe())
    return 0 if all(r.passed for r in reports) else 1


def _parse_steps(texts) -> tuple[tuple[int, int], ...]:
    steps = []
    for item in texts:
        m, _, r = item.partition(":")
        try:
            step = (int(m), int(r))
        except ValueError:
            raise ValueError(f"extraction step {item!r} is not of the form m:r") from None
        if step[0] < 2 or not 0 <= step[1] < step[0]:
            raise ValueError(f"extraction step {item!r} needs m >= 2 and 0 <= r < m")
        steps.append(step)
    return tuple(steps)


def cmd_expand(args: argparse.Namespace) -> int:
    cfg = _config(args)
    series = eta.expand_expression(eta.parse(args.expression), cfg.precision, _ring(args))
    _print_coeffs(series, cfg.output == "json")
    return 0


def cmd_dissect(args: argparse.Namespace) -> int:
    cfg = _config(args)
    ring = _ring(args)
    steps = _parse_steps(args.steps)
    parsed = dissect._parse_lhs(args.expression)
    if isinstance(parsed, dissect.RootRecipe):
        steps = parsed.steps + steps
        need = dissect.required_root_precision(steps, cfg.precision)
        series = dissect._shared_provider.series(parsed.root, ring, need)
    else:
        need = dissect.required_root_precision(steps, cfg.precision)
        series = eta.expand_expression(parsed, need, ring)
    for m, r in steps:
        series = dissect.extract(series, m, r)
    _print_coeffs(series.truncate(cfg.precision), cfg.output == "json")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.all == bool(args.ids):
        raise ValueError("pass --all or one or more record ids (not both)")
    records = dissect.load_catalog() if args.all else tuple(
        dissect.get_record(name) for name in args.ids
    )
    reports = dissect.verify_catalog(records, args.precision)
    return _emit_reports(reports, cfg.output == "json")


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _config(args)
    moduli = sorted({int(m) for m in args.moduli.split(",") if m.strip()})
    if not moduli:
        raise ValueError("at least one modulus is required")
    table = schur.residue_table(cfg.table_size, lcm(*moduli))
    results = congruences.scan(args.max_a, moduli, table, args.min_support)
    out = congruences.scan_to_json(results)
    if out:
        print(out)
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    cfg = _config(args)
    table = schur.residue_table(cfg.table_size, 16)
    checks = congruences.verify_family(args.alpha_max, table)
    ok = True
    for check in checks:
        if cfg.output == "json":
            payload = {
                "alpha": check.alpha, "A": check.A, "B": check.B,
                "testable": check.testable,
                "status": check.result.status if check.testable else None,
                "tested_to": check.result.tested_to if check.testable else None,
            }
            print(json.dumps(payload))
        else:
            print(check.describe())
        if check.testable and not check.result.holds:
            ok = False
    return 0 if ok else 1


def cmd_internal(args: argparse.Namespace) -> int:
    cfg = _config(args)
    entries = congruences.INTERNAL_PROVED + congruences.INTERNAL_CONJECTURED
    table = schur.residue_table(cfg.table_size, lcm(*(ic.M for ic in entries)))
    ok = True
    for ic in entries:
        checked = congruences.check_internal(ic, table)
        if cfg.output == "json":
            print(checked.as_json())
        else:
            print(
                f"S({checked.a}N+{checked.b}) == S({checked.c}N+{checked.d}) "
                f"(mod {checked.M}): {checked.status}, tested_to={checked.tested_to}"
            )
        ok = ok and checked.holds
    return 0 if ok else 1


def cmd_aaw_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
    pair = aaw.compute_params(cfg.precision)
    reports = list(aaw.verify_param_identities(pair, cfg.precision))
    reports.append(aaw.verify_L_identity(cfg.precision))
    obstruction = aaw.compute_L(args.l_precision).reduce_mod(16)
    mm = dissect.compare_series(obstruction, Series.zero(mod_ring(16), args.l_precision))
    reports.append(
        dissect.VerificationReport(
            "l-divisible-by-16", mm is None, args.l_precision, 16, None, mm
        )
    )
    return _emit_reports(reports, cfg.output == "json")


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if not 0 <= args.limit <= 40:
        raise ValueError("--limit must be between 0 and 40")
    table = schur.s_series(args.limit + 1, cfg.cache_path)
    ok = True
    for n in range(args.limit + 1):
        counted = schur.oracle_schur_overpartitions(n)
        match = counted == table[n]
        ok = ok and match
        if cfg.output == "json":
            print(json.dumps({"n": n, "oracle": counted, "table": table[n], "match": match}))
        else:
            print(f"n={n} oracle={counted} table={table[n]} {'ok' if match else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_dump_table(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.save and args.mod is not None:
        raise ValueError("--save stores exact values; drop --mod")
    if args.count is not None and args.count < 0:
        raise ValueError("--count must be nonnegative")
    if args.mod is not None:
        table = schur.residue_table(cfg.table_size, args.mod)
    else:
        table = schur.s_series(cfg.table_size, cfg.cache_path)
    if args.save:
        schur.save_table(args.save, table)
        print(f"saved {table.precision} values to {args.save}")
        return 0
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

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("expand", cmd_expand, "expand an eta-quotient expression to coefficients")
    p.add_argument("expression")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--mod", type=int, default=None, help="expand over Z/m instead of Z")
    p.add_argument("--json", action="store_true")

    p = add("dissect", cmd_dissect, "extract arithmetic-progression components")
    p.add_argument("expression", help="DSL expression, or @root with optional inline steps")
    p.add_argument("steps", nargs="*", help="extraction steps m:r applied left to right")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = add("verify", cmd_verify, "verify catalog identities")
    p.add_argument("ids", nargs="*", help="record ids (default: use --all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--precision", type=int, default=None,
                   help="override the per-record default precision")
    p.add_argument("--json", action="store_true")

    p = add("scan", cmd_scan, "scan for vanishing arithmetic progressions")
    p.add_argument("--max-a", dest="max_a", type=int, default=128)
    p.add_argument("--moduli", default="8,16,32", help="comma-separated moduli")
    p.add_argument("--table-size", dest="table_size", type=int, default=40_000)
    p.add_argument("--min-support", dest="min_support", type=int,
                   default=congruences.MIN_SUPPORT_FLOOR)

    p = add("family", cmd_family, "check the infinite mod-16 progression family")
    p.add_argument("--alpha-max", dest="alpha_max", type=int, default=4)
    p.add_argument("--table-size", dest="table_size", type=int, default=40_000)
    p.add_argument("--json", action="store_true")

    p = add("internal", cmd_internal, "check internal congruences (proved and empirical)")
    p.add_argument("--table-size", dest="table_size", type=int, default=40_000)
    p.add_argument("--json", action="store_true")

    p = add("aaw-check", cmd_aaw_check, "verify the theta parameterization suite")
    p.add_argument("--precision", type=int, default=300)
    p.add_argument("--l-precision", dest="l_precision", type=int, default=2000,
                   help="depth of the divisibility-by-16 check")
    p.add_argument("--json", action="store_true")

    p = add("oracle", cmd_oracle, "compare the brute-force count against the table")
    p.add_argument("--limit", type=int, default=20, help="largest n to enumerate (max 40)")
    p.add_argument("--json", action="store_true")

    p = add("dump-table", cmd_dump_table, "print or save the count table")
    p.add_argument("--table-size", dest="table_size", type=int, default=40_000)
    p.add_argument("--mod", type=int, default=None, help="dump residues instead of exact values")
    p.add_argument("--count", type=int, default=None, help="print only the first K values")
    p.add_argument("--cache", default=None, help="exact-table cache file")
    p.add_argument("--save", default=None, help="write the exact table to a cache file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (eta.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

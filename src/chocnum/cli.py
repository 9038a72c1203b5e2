"""Single command-line entry point.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 all checks
pass/consistent, 1 a verifiable claim failed, 2 usage error, 3 unresolved
(insufficient evidence).  Big integers are always printed as exact decimal
strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .arith import divisors, factor, nu_p
from .chocolate import (
    CacheFormatError,
    ChocolateTable,
    SequenceFrontierError,
    SequenceKind,
    SequenceSpec,
    chocolate2,
    chocolate_number,
    generate,
    load_cache,
    save_cache,
)
from .modular import (
    INCONSISTENT,
    UNRESOLVED,
    chocolate2_mod,
    conjecture_scan,
    detect_eventual_period,
    hyper_numerators_mod,
)
from .oracle import DEFAULT_AREA_LIMIT, count_sequences
from .series import riccati_residual, verify_linear_ode, verify_log_derivative

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3

CACHE_ENV = "CHOCNUM_CACHE"
CACHE_FILENAME = "chocolate_table.cache"

_EPILOG = """\
output formats:
  plain  space-separated fields, one record per line ('-' for empty fields)
  csv    header row (fixed per subcommand) then one record per line
  jsonl  one JSON object per record

csv/jsonl fields per subcommand:
  gen --seq table|triangle   m,n,value
  gen --seq b|square         n,value
  gen --seq distinct         value
  factor --seq b             n,value,factorization
  factor --seq table         m,n,value,factorization
  nu --seq b|square          n,nu            (+ bound,ok with --check-bound)
  nu --seq table             m,n,nu          (+ bound,ok with --check-bound)
  mod                        seq,modulus,n,residue
  period                     seq,modulus,n_max,resolved,preperiod,period,
                             eventually_zero,evidence_length
  conjecture                 conjecture,modulus,n_max,status,preperiod,
                             period,notes

exit codes: 0 ok, 1 a verifiable claim failed, 2 usage error, 3 unresolved.
The default cache directory may be named in the CHOCNUM_CACHE environment
variable; --cache overrides it.  No cache is touched unless one is named.
"""


def _int_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _render(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _emit(records: list[dict], fields: list[str], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "plain":
        for rec in records:
            print(" ".join(_render(rec[f]) for f in fields), file=out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_render(rec[f]) for f in fields])
    elif fmt == "jsonl":
        for rec in records:
            print(json.dumps({f: rec[f] for f in fields}), file=out)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {fmt}")


def _cache_dir(args) -> str | None:
    return args.cache or os.environ.get(CACHE_ENV) or None


def _load_table(cache_dir: str | None) -> ChocolateTable:
    if not cache_dir:
        return ChocolateTable()
    path = Path(cache_dir) / CACHE_FILENAME
    if path.exists():
        return load_cache(path)
    return ChocolateTable()


def _save_table(table: ChocolateTable, cache_dir: str | None) -> None:
    if not cache_dir:
        return
    path = Path(cache_dir) / CACHE_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    save_cache(table, path)


def _cmd_gen(args) -> int:
    needs_limit = args.seq == "distinct"
    if needs_limit and args.limit is None:
        print("gen --seq distinct requires --limit (a value bound)", file=sys.stderr)
        return EXIT_USAGE
    if not needs_limit and args.max is None:
        print(f"gen --seq {args.seq} requires --max (an index bound)", file=sys.stderr)
        return EXIT_USAGE
    if needs_limit and args.max is not None or not needs_limit and args.limit is not None:
        print("use exactly one of --max / --limit for this sequence", file=sys.stderr)
        return EXIT_USAGE

    cache_dir = _cache_dir(args)
    table = _load_table(cache_dir)
    if args.seq == "table":
        records = [
            {"m": m, "n": n, "value": chocolate_number(m, n, table)}
            for m in range(1, args.max + 1)
            for n in range(1, args.max + 1)
        ]
        fields = ["m", "n", "value"]
    elif args.seq == "triangle":
        entries = generate(SequenceSpec(SequenceKind.TRIANGLE_ROWS, args.max), table)
        records = [{"m": m, "n": n, "value": v} for (m, n), v in entries]
        fields = ["m", "n", "value"]
    elif args.seq == "b":
        entries = generate(SequenceSpec(SequenceKind.TWO_BY_N, args.max), table)
        records = [{"n": n, "value": v} for n, v in entries]
        fields = ["n", "value"]
    elif args.seq == "square":
        entries = generate(SequenceSpec(SequenceKind.SQUARE, args.max), table)
        records = [{"n": n, "value": v} for n, v in entries]
        fields = ["n", "value"]
    else:
        entries = generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, args.limit), table)
        records = [{"value": v} for _, v in entries]
        fields = ["value"]
    _emit(records, fields, args.format)
    _save_table(table, cache_dir)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    brute = count_sequences(args.m, args.n, args.area_limit)
    if not args.compare:
        print(brute)
        return EXIT_OK
    recursed = chocolate_number(args.m, args.n)
    marker = "==" if brute == recursed else "!="
    print(f"{brute} {marker} {recursed}")
    if brute != recursed:
        print(
            f"oracle mismatch for {args.m} x {args.n}: enumeration {brute}, "
            f"recursion {recursed}",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def _cmd_factor(args) -> int:
    if args.seq == "b":
        if len(args.index) != 1:
            print("factor --seq b takes --index N", file=sys.stderr)
            return EXIT_USAGE
        n = args.index[0]
        value = chocolate2(n)
        records = [{"n": n, "value": value, "factorization": str(factor(value))}]
        fields = ["n", "value", "factorization"]
    else:
        if len(args.index) != 2:
            print("factor --seq table takes --index M N", file=sys.stderr)
            return EXIT_USAGE
        m, n = args.index
        value = chocolate_number(m, n)
        records = [
            {"m": m, "n": n, "value": value, "factorization": str(factor(value))}
        ]
        fields = ["m", "n", "value", "factorization"]
    _emit(records, fields, args.format)
    return EXIT_OK


def _cmd_nu(args) -> int:
    if args.check_bound and args.p != 2:
        print("--check-bound states bounds for p=2 only", file=sys.stderr)
        return EXIT_USAGE
    table = ChocolateTable()
    records = []
    violated = False
    if args.seq == "table":
        fields = ["m", "n", "nu"]
        for m in range(1, args.max + 1):
            for n in range(1, args.max + 1):
                rec = {"m": m, "n": n, "nu": nu_p(chocolate_number(m, n, table), args.p)}
                if args.check_bound:
                    bound = m + n - 2 if m > 1 and n > 1 else None
                    rec["bound"] = bound
                    rec["ok"] = bound is None or rec["nu"] >= bound
                    violated |= rec["ok"] is False
                records.append(rec)
    else:
        fields = ["n", "nu"]
        for n in range(1, args.max + 1):
            if args.seq == "b":
                value = chocolate2(n, table)
                bound = n if n > 1 else None
            else:
                value = chocolate_number(n, n, table)
                bound = 2 * n - 2 if n > 1 else None
            rec = {"n": n, "nu": nu_p(value, args.p)}
            if args.check_bound:
                rec["bound"] = bound
                rec["ok"] = bound is None or rec["nu"] >= bound
                violated |= rec["ok"] is False
            records.append(rec)
    if args.check_bound:
        fields = fields + ["bound", "ok"]
    _emit(records, fields, args.format)
    if violated:
        print("valuation bound violated", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _residues(seq: str, modulus: int, n_max: int) -> list[int]:
    if seq == "b":
        return chocolate2_mod(n_max, modulus)
    return hyper_numerators_mod(n_max, modulus)


def _cmd_mod(args) -> int:
    records = []
    for modulus in args.modulus:
        for n, r in enumerate(_residues(args.seq, modulus, args.max), start=1):
            records.append({"seq": args.seq, "modulus": modulus, "n": n, "residue": r})
    _emit(records, ["seq", "modulus", "n", "residue"], args.format)
    return EXIT_OK


def _cmd_period(args) -> int:
    residues = _residues(args.seq, args.modulus, args.max)
    candidates = None
    if args.hint_pp1:
        candidates = divisors(args.modulus * (args.modulus - 1))
    report = detect_eventual_period(residues, candidates)
    record = {
        "seq": args.seq,
        "modulus": args.modulus,
        "n_max": args.max,
        "resolved": report.resolved,
        "preperiod": report.preperiod,
        "period": report.period,
        "eventually_zero": report.eventually_zero,
        "evidence_length": report.evidence_length,
    }
    _emit(
        [record],
        ["seq", "modulus", "n_max", "resolved", "preperiod", "period",
         "eventually_zero", "evidence_length"],
        args.format,
    )
    return EXIT_OK if report.resolved else EXIT_UNRESOLVED


def _cmd_series(args) -> int:
    if args.check == "riccati":
        residual = riccati_residual(args.order)
        if residual.is_zero():
            print(f"residual zero through order {args.order - 1}")
            return EXIT_OK
        k = residual.first_nonzero()
        print(f"residual nonzero at order {k}: {residual[k]}")
        return EXIT_FAILED
    if args.check == "ode":
        if verify_linear_ode(args.order):
            print(f"identity holds through order {args.order - 1}")
            return EXIT_OK
        print("linear ODE residual nonzero")
        return EXIT_FAILED
    ok, residual = verify_log_derivative(args.order)
    if ok:
        print(f"residual zero through order {args.order}")
        return EXIT_OK
    k = residual.first_nonzero()
    print(f"residual nonzero at order {k}: {residual[k]}")
    return EXIT_FAILED


def _cmd_conjecture(args) -> int:
    records = [r.as_dict() for r in conjecture_scan(args.id, args.primes, args.max)]
    _emit(
        records,
        ["conjecture", "modulus", "n_max", "status", "preperiod", "period", "notes"],
        args.format,
    )
    statuses = {r["status"] for r in records}
    if INCONSISTENT in statuses:
        return EXIT_FAILED
    if UNRESOLVED in statuses:
        return EXIT_UNRESOLVED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chocnum",
        description="Exact chocolate-bar break counts, their sequences, and "
        "divisibility/periodicity scans.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "csv", "jsonl"), default="plain")

    p = sub.add_parser("gen", help="generate a sequence")
    p.add_argument("--seq", required=True,
                   choices=("table", "triangle", "b", "square", "distinct"))
    p.add_argument("--max", type=int, help="index bound (all but distinct)")
    p.add_argument("--limit", type=int, help="value bound (distinct only)")
    add_format(p)
    p.add_argument("--cache", help="cache directory (default: $CHOCNUM_CACHE)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force count, optionally compared "
                       "against the recursion")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--area-limit", type=int, default=DEFAULT_AREA_LIMIT)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("factor", help="factor one sequence value")
    p.add_argument("--seq", required=True, choices=("b", "table"))
    p.add_argument("--index", type=int, nargs="+", required=True,
                   help="N for --seq b, M N for --seq table")
    add_format(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("nu", help="p-adic valuations along a sequence")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seq", required=True, choices=("b", "square", "table"))
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--check-bound", action="store_true",
                   help="verify the 2-adic lower bounds (p=2 only)")
    add_format(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("mod", help="residue prefix of a sequence")
    p.add_argument("--seq", required=True, choices=("b", "p"))
    p.add_argument("--modulus", type=_int_list, required=True,
                   help="modulus or comma-separated moduli")
    p.add_argument("--max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_mod)

    p = sub.add_parser("period", help="eventual-period detection on a residue "
                       "sequence")
    p.add_argument("--seq", required=True, choices=("b", "p"))
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--hint-pp1", action="store_true",
                   help="seed candidates with the divisors of p(p-1)")
    add_format(p)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("series", help="exact generating-function checks")
    p.add_argument("--check", required=True, choices=("riccati", "ode", "hypergeom"))
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("conjecture", help="scan one of the open statements")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--primes", type=_int_list, required=True,
                   help="comma-separated primes (moduli for --id 2)")
    p.add_argument("--max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CacheFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SequenceFrontierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

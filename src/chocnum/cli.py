"""Single command-line entry point.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 all checks
pass/consistent, 1 a verifiable claim failed, 2 usage error, 3 unresolved
(insufficient evidence), 4 out of memory, 130 interrupted (Ctrl-C), 141
stdout closed early by its reader.  Big integers are always printed as
exact decimal strings.  Each subcommand imports the modules it runs when
it runs, so start-up does not pay for the others: ``chocolate`` (gen,
factor, nu, oracle --compare), ``oracle`` (oracle), ``arith`` (factor,
nu), ``modular`` (mod, period, conjecture), ``series`` (series), ``csv``
and ``json`` (--format), and ``textwrap`` (--help).  ``chocolate`` and
``modular`` load ``fill``, and numpy with it, only for residue work.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import unlimited_int_digits

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_OUT_OF_MEMORY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

CACHE_ENV = "CHOCNUM_CACHE"
CACHE_FILENAME = "chocolate_table.cache"

# csv/jsonl fields of each record-producing subcommand, keyed by the command
# and the --seq values it covers; the --help epilog is generated from here.
# period and conjecture list the fields of modular.PeriodReport and
# modular.ScanRecord as literals, so that --help need not import modular,
# and their handlers read each record's values by these names.
FIELDS = {
    "gen --seq table|triangle": ("m", "n", "value"),
    "gen --seq b|square": ("n", "value"),
    "gen --seq distinct": ("value",),
    "factor --seq b": ("n", "value", "factorization"),
    "factor --seq table": ("m", "n", "value", "factorization"),
    "nu --seq b|square": ("n", "nu"),
    "nu --seq table": ("m", "n", "nu"),
    "mod": ("seq", "modulus", "n", "residue"),
    "period": ("seq", "modulus", "n_max", "resolved", "preperiod", "period",
               "eventually_zero", "evidence_length"),
    "conjecture": ("conjecture", "modulus", "n_max", "status", "preperiod", "period",
                   "notes"),
}
BOUND_FIELDS = ("bound", "ok")  # appended by nu --check-bound


class _Failed(Exception):
    """A verifiable claim failed before any record: ``main`` prints the
    message on stderr and exits with EXIT_FAILED."""


class _Parser(argparse.ArgumentParser):
    """The top-level parser, whose epilog is built only when its help is."""

    def format_help(self) -> str:
        self.epilog = _epilog()
        return super().format_help()


def _epilog() -> str:
    import textwrap

    rows = []
    for variant, fields in FIELDS.items():
        # wrap between fields at 79 columns: break after ", ", then drop the spaces
        text = textwrap.fill(", ".join(fields), 79, initial_indent=f"  {variant:<27}",
                             subsequent_indent=" " * 29).replace(", ", ",")
        if variant.startswith("nu "):
            text = f"{text:<45}(+ {','.join(BOUND_FIELDS)} with --check-bound)"
        rows.append(text)
    fields_table = "\n".join(rows)
    return f"""\
output formats:
  plain  space-separated fields, one record per line ('-' for empty fields)
  csv    header row (fixed per subcommand) then one record per line
  jsonl  one JSON object per record

csv/jsonl fields per subcommand:
{fields_table}

exit codes: 0 ok, 1 a verifiable claim failed, 2 usage error, 3 unresolved,
4 out of memory, 130 interrupted, 141 stdout closed early by its reader.
The default cache directory may be named in the CHOCNUM_CACHE environment
variable; --cache overrides it.  No cache is touched unless one is named.
"""


def _fields(args) -> tuple[str, ...]:
    for variant, fields in FIELDS.items():
        command, _, seqs = variant.partition(" --seq ")
        if command == args.command and (not seqs or args.seq in seqs.split("|")):
            return fields
    raise KeyError(args.command)  # pragma: no cover - every variant is listed


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _render(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _emit(records, fields, fmt: str) -> None:
    """Write records (value tuples in field order) to stdout in ``fmt``."""
    if fmt == "plain":
        for rec in records:
            print(" ".join(map(_render, rec)))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(map(_render, rec) for rec in records)
    else:
        import json

        for rec in records:
            print(json.dumps(dict(zip(fields, rec))))


def _records(seq: str, bound: int, table) -> list[tuple]:
    """(index..., value) records of ``gen --seq SEQ``; ``nu`` reads them too."""
    from .chocolate import SequenceSpec, generate

    entries = generate(SequenceSpec(seq, bound), table)
    if seq in ("table", "triangle"):
        return [(m, n, v) for (m, n), v in entries]
    if seq == "distinct":
        return [(v,) for _, v in entries]
    return entries


def _cmd_gen(args):
    from .chocolate import ChocolateTable, SequenceFrontierError, load_cache, save_cache

    if args.seq == "distinct":
        bound, other, wanted = args.limit, args.max, "--limit (a value bound)"
    else:
        bound, other, wanted = args.max, args.limit, "--max (an index bound)"
    if bound is None or other is not None:
        raise ValueError(f"gen --seq {args.seq} takes exactly one bound, {wanted}")
    cache_dir = args.cache or os.environ.get(CACHE_ENV)
    path = Path(cache_dir) / CACHE_FILENAME if cache_dir else None
    table = load_cache(path) if path and path.exists() else ChocolateTable()
    try:
        records = _records(args.seq, bound, table)
    except SequenceFrontierError as exc:
        raise _Failed(exc) from None
    finally:
        # the memo holds finished values only, so a fill cut short by Ctrl-C
        # is saved too, and a rerun resumes it; a warm read leaves the file alone
        if path and table.computed:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_cache(table, path)
    return _fields(args), records, EXIT_OK


def _cmd_oracle(args):
    from .oracle import DEFAULT_AREA_LIMIT, count_sequences

    brute = count_sequences(args.m, args.n, args.area_limit or DEFAULT_AREA_LIMIT)
    if not args.compare:
        return (), [(brute,)], EXIT_OK
    from .chocolate import chocolate_number

    recursed = chocolate_number(args.m, args.n)
    if brute == recursed:
        return (), [(brute, "==", recursed)], EXIT_OK
    print(
        f"oracle mismatch for {args.m} x {args.n}: enumeration {brute}, "
        f"recursion {recursed}",
        file=sys.stderr,
    )
    return (), [(brute, "!=", recursed)], EXIT_FAILED


def _cmd_factor(args):
    from .arith import factor
    from .chocolate import chocolate_number

    fields = _fields(args)
    index = fields[:-2]  # ("n",) or ("m", "n")
    if len(args.index) != len(index):
        raise ValueError(f"factor --seq {args.seq} takes --index "
                         + " ".join(name.upper() for name in index))
    value = chocolate_number(2 if args.seq == "b" else args.index[0], args.index[-1])
    return fields, [(*args.index, value, str(factor(value)))], EXIT_OK


def _cmd_nu(args):
    from .arith import nu_p
    from .chocolate import ChocolateTable

    if args.check_bound and args.p != 2:
        raise ValueError("--check-bound states bounds for p=2 only")
    records = []
    for *index, value in _records(args.seq, args.max, ChocolateTable()):
        rec = (*index, nu_p(value, args.p))
        if args.check_bound:
            # the 2-adic bound nu_2 >= m + n - 2, stated for m, n > 1
            m, n = 2 if args.seq == "b" else index[0], index[-1]
            bound = m + n - 2 if m > 1 and n > 1 else None
            rec += (bound, bound is None or rec[-1] >= bound)
        records.append(rec)
    if not args.check_bound:
        return _fields(args), records, EXIT_OK
    violated = any(rec[-1] is False for rec in records)
    if violated:
        print("valuation bound violated", file=sys.stderr)
    return _fields(args) + BOUND_FIELDS, records, EXIT_FAILED if violated else EXIT_OK


def _residues(seq: str, moduli: list[int], n_max: int) -> list[list[int]]:
    """One residue prefix per modulus, in order."""
    from .modular import chocolate2_mod_many, hyper_numerators_mod

    if seq == "b":
        return chocolate2_mod_many(n_max, moduli)
    return [hyper_numerators_mod(n_max, m) for m in moduli]


def _cmd_mod(args):
    records = [(args.seq, modulus, n, r)
               for modulus, prefix in zip(args.modulus,
                                          _residues(args.seq, args.modulus, args.max))
               for n, r in enumerate(prefix, start=1)]
    return _fields(args), records, EXIT_OK


def _cmd_period(args):
    from .modular import detect_eventual_period

    fields = _fields(args)
    [residues] = _residues(args.seq, [args.modulus], args.max)
    report = detect_eventual_period(residues)
    record = (args.seq, args.modulus, args.max, *(getattr(report, f) for f in fields[3:]))
    return fields, [record], EXIT_OK if report.resolved else EXIT_UNRESOLVED


def _cmd_series(args):
    from .series import riccati_residual, verify_linear_ode, verify_log_derivative

    if args.check == "ode":
        if verify_linear_ode(args.order):
            return (), [(f"identity holds through order {args.order - 1}",)], EXIT_OK
        return (), [("linear ODE residual nonzero",)], EXIT_FAILED
    if args.check == "riccati":
        residual, through = riccati_residual(args.order), args.order - 1
    else:
        residual, through = verify_log_derivative(args.order)[1], args.order
    if residual.is_zero():
        return (), [(f"residual zero through order {through}",)], EXIT_OK
    k = residual.first_nonzero()
    return (), [(f"residual nonzero at order {k}: {residual[k]}",)], EXIT_FAILED


def _cmd_conjecture(args):
    from .modular import INCONSISTENT, UNRESOLVED, conjecture_scan

    fields = _fields(args)
    scan = conjecture_scan(args.id, args.primes, args.max)
    records = [tuple(getattr(r, f) for f in fields) for r in scan]
    statuses = {r.status for r in scan}
    if INCONSISTENT in statuses:
        return fields, records, EXIT_FAILED
    return fields, records, EXIT_UNRESOLVED if UNRESOLVED in statuses else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chocnum",
        description="Exact chocolate-bar break counts, their sequences, and "
        "divisibility/periodicity scans.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # subcommands get plain parsers, and no epilog
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "csv", "jsonl"), default="plain")

    p = sub.add_parser("gen", help="generate a sequence")
    p.add_argument("--seq", required=True, choices=("table", "triangle", "b", "square", "distinct"))
    p.add_argument("--max", type=_positive_int, help="index bound (all but distinct)")
    p.add_argument("--limit", type=_positive_int, help="value bound (distinct only)")
    add_format(p)
    p.add_argument("--cache", help="cache directory (default: $CHOCNUM_CACHE)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force count, optionally compared "
                       "against the recursion")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--area-limit", type=_positive_int)  # default: oracle.DEFAULT_AREA_LIMIT
    p.set_defaults(func=_cmd_oracle, format="plain")

    p = sub.add_parser("factor", help="factor one sequence value")
    p.add_argument("--seq", required=True, choices=("b", "table"))
    p.add_argument("--index", type=int, nargs="+", required=True,
                   help="N for --seq b, M N for --seq table")
    add_format(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("nu", help="p-adic valuations along a sequence")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seq", required=True, choices=("b", "square", "table"))
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--check-bound", action="store_true",
                   help="verify the 2-adic lower bounds (p=2 only)")
    add_format(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("mod", help="residue prefix of a sequence")
    p.add_argument("--seq", required=True, choices=("b", "p"))
    p.add_argument("--modulus", type=_int_list, required=True,
                   help="modulus or comma-separated moduli")
    p.add_argument("--max", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_mod)

    p = sub.add_parser("period", help="eventual-period detection on a residue "
                       "sequence")
    p.add_argument("--seq", required=True, choices=("b", "p"))
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--hint-pp1", action="store_true",
                   help="accepted and ignored: the scan finds the minimal "
                   "period without hints")
    add_format(p)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("series", help="exact generating-function checks")
    p.add_argument("--check", required=True, choices=("riccati", "ode", "hypergeom"))
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_series, format="plain")

    p = sub.add_parser("conjecture", help="scan one of the open statements")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--primes", type=_int_list, required=True,
                   help="comma-separated primes (moduli for --id 2)")
    p.add_argument("--max", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # exact values print in full at any size
        with unlimited_int_digits():
            fields, records, code = args.func(args)
            _emit(records, fields, args.format)
            sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
            return code
    except BrokenPipeError:
        # the reader has gone: no message, and nothing left for the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError:
        # the failed allocation's frames are gone, so one line still prints
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    # CacheFormatError is a ValueError
    except (OSError, ValueError, _Failed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED if isinstance(exc, _Failed) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Fixed query catalogues for the three workloads, the seeded selection that
turns a catalogue into one pass's query list, and the canonical digests that
prove an answer bit-identical to the reference.

A catalogue is a list of slots.  Each slot lists alternative parameters of
near-equal cost; the seed picks ``k`` of them and then orders the whole
list.  The alternatives differ in their inputs (bar sizes, moduli, sequence
content), not in the amount of work, so every seed measures the same load
while a claim can still be rerun on inputs nobody tuned against.

A query is one public library call, a short fixed chain of them (a sweep or a
cross-check) or one ``chocnum`` invocation.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("exact_counts", "residue_scans", "cli_session")

# Residue products stay exact in int64 up to this modulus; above it
# chocolate2_mod switches to object dtype.
INT64_SAFE_MODULUS = 3_037_000_499


@dataclass
class Query:
    """One catalogue entry.  ``qid`` keys the reference digest.

    Library queries carry ``call`` (no arguments, resolves every chocnum
    function at call time so a tracer patched in later is seen) and may
    carry ``check``, a by-construction test of the result.  CLI queries
    carry ``argv`` (with ``{cache}`` standing for the pass's cache
    directory) and the exit code the README gives for the outcome.
    """

    qid: str
    call: Callable[[], object] | None = None
    check: Callable[[object], bool] | None = None
    argv: tuple[str, ...] | None = None
    expected_exit: int = 0


def canon(x) -> str:
    """Deterministic text form of a result.  Integers go out as hex, which
    Python converts without the 4300-digit decimal limit."""
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return format(x, "x")
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, enum.Enum):
        return f"{type(x).__name__}.{x.name}"
    if dataclasses.is_dataclass(x):
        fields = (getattr(x, f.name) for f in dataclasses.fields(x))
        return type(x).__name__ + "(" + ",".join(canon(v) for v in fields) + ")"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(canon(k) + ":" + canon(v) for k, v in sorted(x.items())) + "}"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(result) -> str:
    """SHA-256 of a library result's canonical form, or of CLI stdout bytes."""
    data = result if isinstance(result, bytes) else canon(result).encode()
    return hashlib.sha256(data).hexdigest()


def q(qid, fn, *args, check=None):
    """A library query.  ``fn`` must look chocnum functions up when called,
    not bind them here, or a tracer installed later would not see them."""
    return Query(qid, call=lambda: fn(*args), check=check)


# ---------------------------------------------------------------- exact_counts


def _exact_counts_slots():
    from chocnum import arith, chocolate

    def fresh(m, n):
        return chocolate.chocolate_number(m, n, chocolate.ChocolateTable())

    def sweep(kind, bound):
        spec = chocolate.SequenceSpec(getattr(chocolate.SequenceKind, kind), bound)
        return chocolate.generate(spec, chocolate.ChocolateTable())

    def cross(n):
        exact2 = chocolate.chocolate2(n, chocolate.ChocolateTable())
        return exact2, exact2 == fresh(2, n)

    def factor_table(m, n):
        return arith.factor(fresh(m, n))

    def factor_b(n):
        return arith.factor(chocolate.chocolate2(n, chocolate.ChocolateTable()))

    def c2(n):
        return chocolate.chocolate2(n)

    def nu_sweep(p, n_max):
        table = chocolate.ChocolateTable()
        return [arith.nu_p(chocolate.chocolate2(n, table), p) for n in range(1, n_max + 1)]

    # (slot, alternatives, picks, factory)
    return [
        ("square", [(s,) for s in (16, 20, 24, 28, 32, 36, 40)], 7,
         lambda s: q(f"square:{s}", fresh, s, s)),
        ("rect2", [(2, n) for n in range(282, 290, 2)], 1,
         lambda m, n: q(f"rect:{m}x{n}", fresh, m, n)),
        ("rect3", [(3, n) for n in range(206, 216, 2)], 1,
         lambda m, n: q(f"rect:{m}x{n}", fresh, m, n)),
        ("rect_mid", [(5, 60), (60, 5), (6, 50), (50, 6), (8, 40), (40, 8),
                      (10, 33), (33, 10), (12, 30), (30, 12)], 2,
         lambda m, n: q(f"rect:{m}x{n}", fresh, m, n)),
        ("sweep_square", [(b,) for b in (33, 34)], 1,
         lambda b: q(f"sweep_square:{b}", sweep, "SQUARE", b)),
        ("sweep_triangle", [(b,) for b in (42, 43)], 2,
         lambda b: q(f"sweep_triangle:{b}", sweep, "TRIANGLE_ROWS", b)),
        ("chocolate2_low", [(n,) for n in (159, 160, 161)], 2,
         lambda n: q(f"chocolate2:{n}", c2, n)),
        ("chocolate2_high", [(n,) for n in range(296, 306, 2)], 1,
         lambda n: q(f"chocolate2:{n}", c2, n)),
        ("cross_check", [(n,) for n in range(180, 188, 2)], 1,
         lambda n: q(f"cross:{n}", cross, n, check=lambda r: r[1] is True)),
        ("factor_table", [(m, n) for m in range(2, 6) for n in range(m, 6)], 2,
         lambda m, n: q(f"factor_table:{m}x{n}", factor_table, m, n)),
        ("factor_b", [(n,) for n in range(8, 15)], 2,
         lambda n: q(f"factor_b:{n}", factor_b, n)),
        ("nu_sweep", [(p, 160) for p in (3, 5, 7)], 2,
         lambda p, n: q(f"nu_sweep:{p}:{n}", nu_sweep, p, n)),
    ]


# --------------------------------------------------------------- residue_scans

SMALL_MODULI = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 19, 21, 23, 25,
                29, 31, 37, 41, 43)
PRIMES_BELOW_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97)
# primes the zero-tail classifier excludes (p = +-2 mod 5), where the
# numerator products stay periodic
CLASSIFIER_FALSE_PRIMES = (3, 7, 13, 17, 23, 37, 43, 47)
LEMMA_N_MAX = 1500
LEMMA_CHUNKS = 4


def _lemma_bounds():
    """Split 8..LEMMA_N_MAX into chunks of about equal work.  Measured, the
    sweep to N costs about N^3.6, so chunk edges sit at N * (k/chunks)^(1/3.6)."""
    edges = [8] + [round(LEMMA_N_MAX * (k / LEMMA_CHUNKS) ** (1 / 3.6))
                   for k in range(1, LEMMA_CHUNKS + 1)]
    edges[-1] = LEMMA_N_MAX + 1
    return list(zip(edges[:-1], edges[1:]))


def synthetic_sequence(seed: int, length: int, preperiod: int, period: int,
                       modulus: int, zero_tail: bool) -> list[int]:
    """A residue sequence whose eventual period is known by construction.

    The cycle is drawn until it is primitive (not a repetition of a shorter
    block) and nonzero, so its length is the minimal period; the last
    preperiod term is forced to differ from the term one period later, so
    the preperiod is exact.  With ``zero_tail`` the tail is all zeros and
    the preperiod term is nonzero.
    """
    rng = random.Random(f"synthetic:{seed}:{length}:{preperiod}:{period}:{modulus}")
    if zero_tail:
        cycle = [0]
    else:
        while True:
            cycle = [rng.randrange(modulus) for _ in range(period)]
            primitive = all(cycle != cycle[d:] + cycle[:d]
                            for d in range(1, period) if period % d == 0)
            if primitive and any(cycle):
                break
    seq = [rng.randrange(modulus) for _ in range(preperiod)]
    tail = [cycle[i % len(cycle)] for i in range(length - preperiod)]
    if preperiod:
        nxt = tail[len(cycle) - 1]
        if seq[-1] == nxt or (zero_tail and seq[-1] == 0):
            seq[-1] = (nxt + 1) % modulus or 1
    return seq + tail


def expected_report(length, preperiod, period, zero_tail):
    """The PeriodReport fields detect_eventual_period must return at its
    default thresholds (3 cycles, tail at least half the evidence)."""
    tail = length - preperiod
    if zero_tail:
        return (True, preperiod, 1, True, length)
    if tail >= 3 * period and 2 * tail >= length:
        return (True, preperiod, period, False, length)
    return (False, None, None, False, length)


# (length, preperiod, period, zero_tail, hinted); the last two rows leave a
# tail shorter than half the evidence and must come back unresolved.
SYNTHETIC_SHAPES = (
    (20_000, 1_200, 37, False, False),
    (20_000, 5_000, 120, False, True),
    (20_000, 3_000, 1, True, False),
    (12_000, 400, 420, False, False),
    (3_000, 1_800, 7, False, False),
    (3_000, 1_600, 1, False, True),
)


def _residue_scans_slots(seed: int):
    from chocnum import modular

    def c2mod(n, m):
        return modular.chocolate2_mod(n, m)

    def scan(cid, moduli, n_max):
        return [r.as_dict() for r in modular.conjecture_scan(cid, list(moduli), n_max)]

    def hyper_period(p, n_max, hinted):
        residues = modular.hyper_numerators_mod(n_max, p)
        pp1 = p * (p - 1)
        hints = [d for d in range(1, pp1 + 1) if pp1 % d == 0] if hinted else None
        return modular.detect_eventual_period(residues, hints)

    def synthetic(shape):
        length, pre, period, zero_tail, hinted = shape
        seq = synthetic_sequence(seed, length, pre, period, 97, zero_tail)
        hints = [period * k for k in (1, 2, 6)] + [5] if hinted else None
        return modular.detect_eventual_period(seq, hints)

    def synthetic_check(shape):
        want = expected_report(shape[0], shape[1], shape[2], shape[3])
        return lambda r: (r.resolved, r.preperiod, r.period, r.eventually_zero,
                          r.evidence_length) == want

    def mod3(n):
        return modular.mod3_pattern_check(n)

    def lemma(lo, hi):
        ones = [modular.binom_sum_1_mod6(n) for n in range(lo + (2 - lo) % 6, hi, 6) if n > 2]
        fives = [modular.binom_sum_5_mod6(n) for n in range(lo + (4 - lo) % 6, hi, 6) if n > 4]
        return ones, fives

    big_moduli = (3_037_000_507, 3_037_000_537, 4_294_967_311)  # object dtype
    return [
        ("c2mod_5000", [(5000, m) for m in SMALL_MODULI], 1,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("c2mod_4000", [(4000, m) for m in SMALL_MODULI], 2,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("c2mod_3000", [(3000, m) for m in SMALL_MODULI], 3,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("c2mod_2000", [(2000, m) for m in SMALL_MODULI], 2,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("c2mod_readme", [(10_000, 9)], 1,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("c2mod_near_1e6", [(4000, m) for m in (999_953, 999_983, 1_000_003)], 1,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("c2mod_object", [(1200, m) for m in big_moduli], 1,
         lambda n, m: q(f"c2mod:{n}:{m}", c2mod, n, m)),
        ("conjecture1", [tuple(PRIMES_BELOW_100[i::3]) for i in range(3)], 1,
         lambda *ps: q(f"conjecture:1:{'-'.join(map(str, ps))}:560", scan, 1, ps, 560)),
        ("conjecture2", [(4, 6, 8, 10), (9, 12, 14, 15), (16, 18, 20, 21)], 1,
         lambda *ms: q(f"conjecture:2:{'-'.join(map(str, ms))}:1500", scan, 2, ms, 1500)),
        ("conjecture3", [(3, 7, 13, 43)], 1,
         lambda *ps: q(f"conjecture:3:{'-'.join(map(str, ps))}:1800", scan, 3, ps, 1800)),
        ("hyper_period", [(p, h) for p in CLASSIFIER_FALSE_PRIMES for h in (True, False)], 2,
         lambda p, h: q(f"hyper_period:{p}:{'hint' if h else 'plain'}",
                        hyper_period, p, 10 * p * (p - 1), h)),
        ("synthetic", [(s,) for s in SYNTHETIC_SHAPES], len(SYNTHETIC_SHAPES),
         lambda s: q("synthetic:" + ":".join(map(str, s)), synthetic, s,
                     check=synthetic_check(s))),
        ("mod3", [(n,) for n in range(500, 700, 25)], 1,
         lambda n: q(f"mod3:{n}", mod3, n, check=lambda r: r is True)),
        ("lemma", _lemma_bounds(), LEMMA_CHUNKS,
         lambda lo, hi: q(f"lemma:{lo}:{hi}", lemma, lo, hi,
                          check=lambda r: set(r[0]) <= {1} and set(r[1]) <= {0})),
    ]


# ----------------------------------------------------------------- cli_session


def _cli_slots():
    def c(qid_args, expected=0):
        return Query("cli:" + " ".join(qid_args), argv=tuple(qid_args),
                     expected_exit=expected)

    def cached(*args):
        return c([*args, "--cache", "{cache}"])

    fmts = ("plain", "csv", "jsonl")
    return [
        ("readme", [
            ("gen", "--seq", "b", "--max", "5"),
            ("oracle", "--m", "2", "--n", "2", "--compare"),
            ("factor", "--seq", "table", "--index", "4", "4"),
            ("series", "--check", "riccati", "--order", "20"),
            ("period", "--seq", "p", "--modulus", "43", "--max", "18060", "--hint-pp1"),
            ("conjecture", "--id", "3", "--primes", "3,7,13", "--max", "2000",
             "--format", "jsonl"),
        ], 6, lambda *a: c(a)),
        *((f"series_{k}", [("series", "--check", k, "--order", str(o))
                           for o in (148, 150, 152)], picks, lambda *a: c(a))
          for k, picks in (("riccati", 1), ("ode", 1), ("hypergeom", 2))),
        ("oracle", [("oracle", "--m", str(m), "--n", str(n), "--compare")
                    for m, n in ((2, 3), (3, 3), (2, 5), (3, 4), (4, 3), (2, 6), (1, 12))], 3,
         lambda *a: c(a)),
        ("factor", [("factor", "--seq", "b", "--index", str(n)) for n in range(9, 14)]
         + [("factor", "--seq", "table", "--index", str(m), str(n))
            for m, n in ((3, 5), (5, 3), (4, 5), (5, 5))], 2,
         lambda *a: c(a)),
        ("nu", [("nu", "--p", "2", "--seq", s, "--max", str(n), "--check-bound",
                 "--format", f) for s, n in (("b", 60), ("square", 24), ("table", 10))
                for f in fmts], 2,
         lambda *a: c(a)),
        ("mod", [("mod", "--seq", s, "--modulus", ms, "--max", "300")
                 for s in ("b", "p") for ms in ("5,11", "7,9", "13,4")], 1,
         lambda *a: c(a)),
        ("period", [("period", "--seq", "b", "--modulus", str(m), "--max", "900")
                    for m in (3, 9, 11)], 1,
         lambda *a: c(a)),
        ("period_unresolved", [("period", "--seq", "b", "--modulus", str(m), "--max", "40")
                               for m in (7, 13)], 1,
         lambda *a: c(a, expected=3)),
        # cold first, then warm reads of the same and other sequences
        ("gen_cold", [("gen", "--seq", "table", "--max", "36")], 1,
         lambda *a: cached(*a)),
        ("gen_warm", [("gen", "--seq", s, "--max", str(n), "--format", f)
                      for s, n in (("table", 36), ("square", 36), ("triangle", 36))
                      for f in fmts], 3,
         lambda *a: cached(*a)),
    ]


# Run outside the timed loop: at the parent commit it prints 39 of 45 lines
# and exits 2 at the 4300-digit conversion limit.
KNOWN_DEFECT = Query("cli:gen --seq square --max 45",
                     argv=("gen", "--seq", "square", "--max", "45"))


def layer_probe(work) -> list[Query]:
    """One small call into every traced layer.  A traced pass ends with it
    so that no span reads a constant zero on a workload that skips a layer;
    its counts are the same on every workload and every commit."""
    from chocnum import arith, chocolate, modular, oracle, series

    def cache_roundtrip():
        table = chocolate.ChocolateTable()
        chocolate.chocolate_number(4, 5, table)
        path = work / "probe.cache"
        chocolate.save_cache(table, path)
        return sorted(chocolate.load_cache(path).memo.items())

    calls = {
        "binomial": lambda: arith.binomial(30, 12),
        "factor": lambda: arith.factor(63_352_393_728),
        "divides_factorial": lambda: arith.divides_factorial(2**10 * 3**5, 20),
        "nu_p": lambda: arith.nu_p(3 * 2**20, 2),
        "chocolate_number": lambda: chocolate.chocolate_number(5, 6),
        "chocolate2": lambda: chocolate.chocolate2(20),
        "generate": lambda: chocolate.generate(
            chocolate.SequenceSpec(chocolate.SequenceKind.SQUARE, 6)),
        "cache": cache_roundtrip,
        "chocolate2_mod": lambda: modular.chocolate2_mod(60, 7),
        "detect_eventual_period": lambda: modular.detect_eventual_period([1, 2, 3, 4] * 5),
        "conjecture_scan": lambda: [r.as_dict() for r in modular.conjecture_scan(2, [9], 100)],
        "hyper_numerators_mod": lambda: modular.hyper_numerators_mod(40, 7),
        "binom_sum": lambda: (modular.binom_sum_1_mod6(20), modular.binom_sum_5_mod6(22)),
        "mod3_pattern_check": lambda: modular.mod3_pattern_check(30),
        "riccati_residual": lambda: series.riccati_residual(8),
        "verify_linear_ode": lambda: series.verify_linear_ode(8),
        "verify_log_derivative": lambda: series.verify_log_derivative(8),
        "count_sequences": lambda: oracle.count_sequences(2, 3),
    }
    return [Query(f"probe:{name}", call=fn) for name, fn in calls.items()] + [
        Query("probe:cli gen --seq b --max 3", argv=("gen", "--seq", "b", "--max", "3"))]


def _slots(workload: str, seed: int):
    if workload == "exact_counts":
        return _exact_counts_slots()
    if workload == "residue_scans":
        return _residue_scans_slots(seed)
    if workload == "cli_session":
        return _cli_slots()
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> list[Query]:
    """The seed's query list for one pass: ``k`` picks per slot, shuffled.
    In cli_session the cold cache write is moved ahead of every warm read."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [(slot, make(*alt))
              for slot, alternatives, picks, make in _slots(workload, seed)
              for alt in rng.sample(alternatives, picks)]
    rng.shuffle(picked)
    slots = [slot for slot, _ in picked]
    if "gen_cold" in slots:
        cold, warm = slots.index("gen_cold"), slots.index("gen_warm")
        if warm < cold:
            picked[cold], picked[warm] = picked[warm], picked[cold]
    return [query for _, query in picked]


def every_query(workload: str) -> list[Query]:
    """Every alternative of every slot, for recording reference digests.
    Synthetic sequences depend on the seed, but their reports do not."""
    return [make(*alt) for _slot, alternatives, _picks, make in _slots(workload, 0)
            for alt in alternatives]

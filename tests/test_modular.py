"""Tests for the residue engine, period detection, and the scan harness."""

import dataclasses
import functools
import itertools
import json
import random
import time
import warnings
from math import comb, factorial, isqrt, prod

import numpy as np
import pytest

import chocnum.fill as fill_mod
import chocnum.modular as modular_mod
from chocnum.arith import binomial, divides_factorial, factor, is_prime
from chocnum.modular import (
    CONSISTENT,
    INCONSISTENT,
    UNRESOLVED,
    PeriodReport,
    ScanRecord,
    binom_sum_1_mod6,
    binom_sum_5_mod6,
    chocolate2_mod,
    chocolate2_mod_many,
    conjecture_scan,
    detect_eventual_period,
    hyper_numerators_mod,
    persistent_divisor_check,
    residue_kernel,
    zero_tail_prime,
)

from shared import every_term_chocolate2, plain_primes


# ----------------------------------------------------- residue references


def exact(n_max, m):
    """B_1..B_n_max mod m from the big-integer sum over every term."""
    return [v % m for v in every_term_chocolate2(n_max)]


def full_row_chocolate2_mod(n_max, m):
    """The straightforward kernel: a full Pascal row of Python integers,
    every term of the sum, and a reduction after every product."""
    row = [1 % m]  # C(0, k) mod m
    out = [None, 1 % m]
    fact = 1 % m
    for n in range(2, n_max + 1):
        for _ in range(2):  # row 2n-4 to row 2n-2
            row = [(a + b) % m for a, b in zip([0] + row, row + [0])]
        fact = fact * (2 * n - 3) * (2 * n - 2) % m
        s = sum(row[2 * i - 1] * (out[i] * out[n - i] % m) % m for i in range(1, n))
        out.append((fact + s) % m)
    return out[1:]


def pascal_rows(n_max, m):
    """The Pascal-row kernel on the whole modulus, whatever the plan: it
    shares no arithmetic with the scaled route."""
    return fill_mod.pascal_residues(n_max, m, residue_kernel(n_max, m))


def crt_reference(n_max, m):
    """chocolate2_mod(n_max, m) joined by CRT from its prime-power factors,
    each of which runs its own kernel pass, mostly with other caps."""
    residues, modulus = [0] * n_max, 1
    for p, e in factor(m).factors:
        q = p**e
        for n, r in enumerate(chocolate2_mod(n_max, q)):
            t = (r - residues[n]) * pow(modulus, -1, q) % q
            residues[n] += modulus * t
        modulus *= q
    assert modulus == m
    return residues


def log_derivative_chocolate2_mod(n_max, m):
    """B_1..B_n_max mod an odd m from the log-derivative identity
    2X u' + f u = 0 cleared of denominators,

        4^n B_n = -P_n - sum_{k<n} C(2n-1, 2k-1) 4^k P_{n-k} B_k,

    with P_0 = 1 and P_n from hyper_numerators_mod: a recurrence that shares
    no step with the split recursion of chocolate2_mod."""
    P = np.array([1 % m] + hyper_numerators_mod(n_max, m), dtype=np.int64)
    a = np.zeros(n_max + 1, dtype=np.int64)  # a[k] = 4^k B_k mod m
    row = np.zeros(2 * n_max, dtype=np.int64)  # C(r, k) mod m, r = 2n-1
    row[0] = 1 % m
    inv4, inv4n, r, out = pow(4, -1, m), 1, 0, []
    for n in range(1, n_max + 1):
        while r < 2 * n - 1:
            row[1 : r + 2] = (row[1 : r + 2] + row[0 : r + 1]) % m
            r += 1
        terms = a[1:n] * P[n - 1 : 0 : -1] % m * row[1 : 2 * n - 2 : 2] % m
        a[n] = (-int(P[n]) - int(terms.sum())) % m
        inv4n = inv4n * inv4 % m
        out.append(int(a[n]) * inv4n % m)
    return out


def test_log_derivative_reference_matches_exact_values():
    for m in (3, 9, 43, 999_983):
        assert log_derivative_chocolate2_mod(40, m) == exact(40, m), m


# ------------------------------------------------------ residue kernel paths


def int64_dot_edge(n_max):
    """The largest modulus with n_max (m-1)^2 < 2^63: the int64-dot kernel's."""
    return isqrt((2**63 - 1) // n_max) + 1


INT64_SAFE = 3_037_000_499
EDGE_600 = int64_dot_edge(600)
FALLBACK_INT64 = 3_037_000_493  # int64 products, but no int64 dot even at n_max = 2
OBJECT = 3_037_000_507
MIXED = 3 * 1_012_333_503  # 9 * 337 444 501


def test_residue_kernel_bound_is_exact():
    assert 600 * (EDGE_600 - 1) ** 2 < 2**63 <= 600 * EDGE_600**2
    assert residue_kernel(600, EDGE_600) == "int64-dot"
    assert residue_kernel(600, EDGE_600 + 1) == "int64"
    assert residue_kernel(1, INT64_SAFE) == "int64-dot"
    assert residue_kernel(2, INT64_SAFE) == "int64"
    assert residue_kernel(40, FALLBACK_INT64) == "int64"
    assert residue_kernel(1, INT64_SAFE + 1) == "object"
    # the edge at n = 3000, and a modulus whose whole would take "object" there
    assert int64_dot_edge(3000) == 55_447_790
    assert residue_kernel(3000, 55_447_790) == "int64-dot" != residue_kernel(3000, 55_447_791)
    assert residue_kernel(3000, MIXED) == "object"


def test_int64_safe_modulus_keeps_a_product_of_residues_in_int64():
    # residues mod m <= M are at most M - 1, so a product is at most (M-1)^2;
    # M + 1 would still fit, as M^2 <= 2^63 - 1, and M + 2 would not
    M = modular_mod._INT64_SAFE_MODULUS
    assert M == INT64_SAFE == isqrt(2**63 - 1)
    assert (M - 1) ** 2 <= 2**63 - 1


def test_numpy_integer_arguments_act_as_python_ints():
    # numpy scalars would run the int64 precondition arithmetic in int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = residue_kernel(np.int64(3000), np.int64(3_037_000_493))
        assert kernel == residue_kernel(3000, 3_037_000_493) == "int64"
        for fn, n_max, m in [(hyper_numerators_mod, 2000, 10**12 + 39),
                             (chocolate2_mod, 8000, 100_000_007)]:
            got = fn(np.int64(n_max), np.int64(m))
            assert got == fn(n_max, m) and all(type(x) is int for x in got), fn.__name__
        scan = conjecture_scan(2, np.array([9, 1_000_000_007]), 100)
        grouped = conjecture_scan(2, np.array([4, 6, 8, 10]), 300)
        many = chocolate2_mod_many(np.int64(300), np.array([4, 6, 8, 10]))
    assert scan == conjecture_scan(2, [9, 1_000_000_007], 100)
    assert grouped == conjecture_scan(2, [4, 6, 8, 10], 300)
    assert all(type(r.modulus) is int for r in scan + grouped)
    assert many == [chocolate2_mod(300, m) for m in (4, 6, 8, 10)]
    assert all(type(x) is int for prefix in many for x in prefix)


def test_numpy_integers_leave_plain_types_in_scan_results():
    assert zero_tail_prime(np.int64(1_000_003)) is False
    assert persistent_divisor_check(np.int64(5), 10, [0] * 20) is True
    (record,) = conjecture_scan(2, [4], np.int64(100))
    assert record == conjecture_scan(2, [4], 100)[0] and type(record.n_max) is int
    report = detect_eventual_period(np.array([1, 2, 3] + [0] * 9))
    assert report == PeriodReport(True, 3, 1, True, 12)
    assert report.eventually_zero is True
    json.dumps(record.as_dict())
    json.dumps(dataclasses.asdict(report))


def planned(n_max, m):
    """The kernel passes that chocolate2_mod(n_max, m) plans, in order, each
    as (route, modulus of the pass, its residue_kernel class)."""
    s, r, facts = modular_mod._split(n_max, m)
    passes = [("scaled", r, residue_kernel(len(facts), r))] if r > 1 else []
    return passes + [("pascal", s, residue_kernel(n_max, s))] * (s > 1)


def scaled_lengths(n_max, m):
    """The length of the scaled pass that chocolate2_mod(n_max, m) plans, if any."""
    _, r, facts = modular_mod._split(n_max, m)
    return [len(facts)] * (r > 1)


# m -> the kernel passes of chocolate2_mod(600, m): both routes with every
# kernel, on the whole modulus or split between them
PLANS_AT_600 = {
    2: [("scaled", 2, "int64-dot")],
    4: [("scaled", 4, "int64-dot")],
    9: [("pascal", 9, "int64-dot")],
    13: [("pascal", 13, "int64-dot")],
    999_983: [("scaled", 999_983, "int64-dot")],
    EDGE_600: [("scaled", 3_999_517, "int64-dot"), ("pascal", 31, "int64-dot")],
    EDGE_600 + 1: [("pascal", EDGE_600 + 1, "int64")],  # 2^2 * 71 * 461 * 947
    FALLBACK_INT64: [("scaled", FALLBACK_INT64, "int64")],
    3**21: [("pascal", 3**21, "object")],
    OBJECT: [("scaled", OBJECT, "object")],
}
SPAN = fill_mod._SPAN
# (n_max - 1) // 2 crosses 64 and 128 here, so the limb width changes
LIMB_EDGES = (1, 2, 3, 127, 128, 129, 130, 255, 256, 257, 258)

# (n_max, m, the passes planned, or None where not pinned, the reference
# that chocolate2_mod(n_max, m) equals)
VALUE_CASES = [
    *((600, m, plan, exact) for m, plan in PLANS_AT_600.items()),
    # odd and even n_max, and short prefixes
    *((n_max, m, None, exact) for m in PLANS_AT_600 for n_max in (599, 1, 2, 3, 4, 7, 10)),
    # the Pascal kernel builds its views once per span of fill._SPAN steps:
    # one modulus of each kernel class at every n_max next to a span edge;
    # 10**9 stops at n = 124 (KNOWN_STOPS), 3**19 runs the "int64" arm in full
    *((n_max, m, [("pascal", m, kernel)], full_row_chocolate2_mod)
      for m, kernel in ((9, "int64-dot"), (10**9, "int64"), (3**19, "int64"), (3**21, "object"))
      for n_max in (SPAN - 1, SPAN, SPAN + 1, SPAN + 2, 2 * SPAN + 1, 2 * SPAN + 2)),
    # route boundaries: a prime p >= 2 n_max, the prime 2 n_max - 1, and 2q
    # with q <= 2 n_max - 1 < 2q; the recursion divides by odd numbers only,
    # so powers of 2 do not count.  Past n = 601 the full row is slow, and
    # Pascal rows share no arithmetic with the scaled route
    (600, 1201, [("scaled", 1201, "int64-dot")], full_row_chocolate2_mod),
    (601, 1201, [("pascal", 1201, "int64-dot")], full_row_chocolate2_mod),
    (600, 2 * 601, [("pascal", 2 * 601, "int64-dot")], full_row_chocolate2_mod),
    (600, 8, [("scaled", 8, "int64-dot")], full_row_chocolate2_mod),
    (600, 32 * 1201, [("scaled", 32 * 1201, "int64-dot")], full_row_chocolate2_mod),
    (3000, 4 * 999_983, [("scaled", 4 * 999_983, "int64-dot")], pascal_rows),
    (600, EDGE_600 + 1, [("pascal", EDGE_600 + 1, "int64")], full_row_chocolate2_mod),
    # a modulus that needs the Pascal "object" kernel whole walks Pascal
    # rows on its smooth part only
    (3000, MIXED, [("scaled", 337_444_501, "int64"), ("pascal", 9, "int64-dot")], crt_reference),
    (200, MIXED, None, exact),
    # 55 447 790, the last modulus the int64-dot kernel takes at n = 3000,
    # walks Pascal rows mod 10 only: its odd prime 5 544 779 lies above 2n.
    # 55 447 788 = 2^2 * 3 * 11 * 101 * 4159 walks them whole, the row and
    # products reduced every step; merging the two caps into one overflows
    # int64 there.  55 447 795 = 5 * 13 * 17 * 19^2 * 139 lies above the
    # edge, on the "int64" kernel
    (3000, 55_447_790, [("scaled", 5_544_779, "int64-dot"), ("pascal", 10, "int64-dot")],
     crt_reference),
    (3000, 55_447_788, [("pascal", 55_447_788, "int64-dot")], crt_reference),
    (3000, 55_447_795, [("pascal", 55_447_795, "int64")], crt_reference),
    # scaled limbs at their width boundaries: "object" above 3 037 000 499,
    # and below it int64 products, with an int64 dot at n_max = 1 only
    *((n_max, m, [("scaled", m, "object" if m > INT64_SAFE else
                   "int64-dot" if n_max == 1 else "int64")], exact)
      for m in (2**64 + 13, 10**30 + 57, FALLBACK_INT64, OBJECT) for n_max in LIMB_EDGES),
    # every small modulus, stopped or not, on both routes and all three
    # kernel classes, through the CRT join of 11 * 3 037 000 507 (OBJECT),
    # and the scaled route's limbs mod a semiprime above the int64-dot bound
    *((600, m, None, exact) for m in [*range(2, 301), 2**40, 10**12, 41 * 1024,
                                       11 * OBJECT, 1_000_003 * 1_000_033]),
    # beyond the big-integer counts, the log-derivative recurrence: 41 stops
    # at n = 1681, and 11 739 = lcm(3, 7, 13, 43), the conjecture-3 set's
    # group, is odd and joins its parts
    *((1500, m, None, log_derivative_chocolate2_mod) for m in (9, 43, 999_983, 3 * 7 * 13 * 43)),
    (1500, 3 * 7 * 13 * 43, None, crt_reference),
    (3000, 41, None, log_derivative_chocolate2_mod),
]


@pytest.mark.parametrize("n_max,m,plan,reference", VALUE_CASES,
                         ids=[f"{n}-{m}-{ref.__name__}" for n, m, _, ref in VALUE_CASES])
def test_chocolate2_mod_matches_its_reference(n_max, m, plan, reference):
    assert plan is None or planned(n_max, m) == plan
    assert chocolate2_mod(n_max, m) == reference(n_max, m)


def test_chocolate2_mod_runs_the_passes_of_its_plan():
    # the one test that hooks the kernels: both scaled kernels are exact on
    # "int64-dot" moduli, so only a hook sees a dispatch to the slower one,
    # and the Pascal kernel runs the class it is given
    cases = [(n_max, m) for n_max, m, plan, _ in VALUE_CASES if plan] + [(3000, 2**40)]
    for n_max, m in cases:
        ran = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("pascal_residues", "scaled_dot", "scaled_limbs"):
                kernel = getattr(fill_mod, name)
                mp.setattr(fill_mod, name, lambda *args, name=name, kernel=kernel:
                           ran.append((name, *args)) or kernel(*args))
            chocolate2_mod(n_max, m)
        s, r, facts = modular_mod._split(n_max, m)
        scaled = "scaled_dot" if residue_kernel(len(facts), r) == "int64-dot" else "scaled_limbs"
        want = ([(scaled, len(facts), r)] * (r > 1)
                + [("pascal_residues", n_max, s, residue_kernel(n_max, s))] * (s > 1))
        assert ran == want, m


def prime_from(x, step):
    while not is_prime(x):
        x += step
    return x


def smooth_factor(rng, n_max, limit):
    """A random odd modulus above 1 and at most limit whose prime factors
    all lie below 2 n_max."""
    primes = plain_primes(3, 2 * n_max)
    s = rng.choice(primes)
    while (p := rng.choice(primes)) * s <= limit and rng.randrange(3):
        s *= p
    return s


def smooth_on_each_side(rng, n_max, bound):
    """Two moduli whose odd prime factors all lie below 2 n_max, the first at
    most bound and the second above it, each within a factor 2 of it."""
    below = smooth_factor(rng, n_max, bound)
    while 2 * below <= bound:
        below *= 2
    above = smooth_factor(rng, n_max, bound)
    while above <= bound:
        above *= 2
    return [below, above]


def fuzz_moduli(seed, n_max, count):
    """Random moduli on both routes, each side of every kernel bound at n_max:
    the int64-dot edge and 3 037 000 499, the last modulus with int64
    products.  A smooth modulus (odd prime factors below 2 n_max only) takes
    the Pascal route whole, a power of 2 times a prime above 2 n_max the
    scaled route, and a multiple of 3 mostly splits between the two."""
    rng = random.Random(seed)
    moduli = []
    for bound in (int64_dot_edge(n_max), INT64_SAFE):
        for _ in range(count):
            off = rng.randint(0, 40)
            below, above = bound - off, bound + 1 + off
            moduli += [below, above, below - below % 3, above + -above % 3,
                       *smooth_on_each_side(rng, n_max, bound),
                       prime_from(below, -1) << rng.randrange(3),
                       prime_from(above, 1) << rng.randrange(3)]
    for bits in (12, 20, 40, 70):
        moduli.append(3 * rng.randrange(1, 2**bits))
        moduli.append(prime_from(rng.randrange(2 * n_max, 2**bits), 1) << rng.randrange(3))
    return moduli


@pytest.mark.parametrize("seed", [0, 1])
def test_chocolate2_mod_fuzz_across_the_kernel_bounds(seed):
    n_max = 150
    seen = set()
    for m in fuzz_moduli(seed, n_max, 3):
        seen.update((route, kernel) for route, _, kernel in planned(n_max, m))
        got = chocolate2_mod(n_max, m)
        assert got == full_row_chocolate2_mod(n_max, m), m
        assert got == exact(n_max, m), m
    # every route meets every kernel
    assert seen == {(r, k) for r in ("pascal", "scaled") for k in ("int64-dot", "int64", "object")}


def mixed_moduli(seed, n_max, count):
    """(modulus, smooth part with the powers of 2, rough part) on each side
    of the int64-dot edge and of 3 037 000 499 at n_max: a smooth odd factor
    times a rough one (a prime above 2 n_max, or two) times 2^k."""
    rng = random.Random(seed)
    cases = []
    for bound in (int64_dot_edge(n_max), INT64_SAFE):
        for _ in range(count):
            s = smooth_factor(rng, n_max, 10**4) << rng.randrange(3)
            off = rng.randint(0, 40)
            below = prime_from(bound // s - off, -1)
            above = prime_from(bound // s + 1 + off, 1)
            cases += [(s * below, s, below), (s * above, s, above)]
            if rng.randrange(2):  # a rough part of two primes
                p = prime_from(rng.randrange(2 * n_max, 4000), 1)
                q = prime_from(max(2 * n_max, bound // (s * p) + 1 + off), 1)
                cases.append((s * p * q, s, p * q))
    for bits in (40, 70):  # large parts, the smooth one on Pascal "object" rows
        s = 3**21 if bits == 70 else smooth_factor(rng, n_max, 2**bits)
        r = prime_from(rng.randrange(2 * n_max, 2**bits), 1)
        cases.append((s * r, s, r))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_mixed_moduli_split_into_a_pascal_and_a_scaled_pass(seed):
    n_max = 150
    crossed = set()
    for m, s, r in mixed_moduli(seed, n_max, 3):
        passes, got = planned(n_max, m), chocolate2_mod(n_max, m)
        assert passes == [("scaled", r, residue_kernel(n_max, r)),
                          ("pascal", s, residue_kernel(n_max, s))], m
        assert got == full_row_chocolate2_mod(n_max, m), m
        assert got == exact(n_max, m), m
        crossed.add((residue_kernel(n_max, m), {k for _, _, k in passes} == {"int64-dot"}))
    # whole moduli of every class, and parts that both run int64-dot below
    # a whole modulus that would not
    assert {whole for whole, _ in crossed} == {"int64-dot", "int64", "object"}
    assert ("int64", True) in crossed and ("object", True) in crossed


def test_limb_width_is_the_widest_below_2_62():
    # a dot of h = (n_max - 1) // 2 limb products of w >= 11 bits stays
    # below 2^62, and w + 1 would take it to 2^62 or past it
    for n_max in itertools.chain(range(1, 70), (2**k + d for k in range(6, 40) for d in (-1, 0, 1, 2))):
        h, w = (n_max - 1) // 2, fill_mod._limb_width(n_max)
        assert w >= 11 and h * 2 ** (2 * w) < 2**62, n_max
        assert h == 0 or 2**62 <= h * 2 ** (2 * (w + 1)), n_max
    assert len({fill_mod._limb_width(n_max) for n_max in LIMB_EDGES}) == 4


# every conjecture set of the benchmark, at its evidence length
BENCHMARK_SCANS = [(1, tuple(plain_primes(2, 100)[i::3]), 560) for i in range(3)] + [
    (2, ms, 1500) for ms in [(4, 6, 8, 10), (9, 12, 14, 15), (16, 18, 20, 21)]
] + [(3, (3, 7, 13, 43), 1800)]


@pytest.mark.parametrize("conjecture,moduli,n_max", BENCHMARK_SCANS)
def test_grouped_scan_matches_one_modulus_at_a_time(conjecture, moduli, n_max):
    # no benchmark set has a prime that conjecture 3 leaves out
    lcms, _ = modular_mod._groups(n_max, moduli)
    assert len(lcms) < len(moduli)
    assert all(residue_kernel(n_max, m) == "int64-dot" for m in lcms)
    grouped = conjecture_scan(conjecture, moduli, n_max)
    assert grouped == [rec for m in moduli for rec in conjecture_scan(conjecture, [m], n_max)]


def test_grouping_never_leaves_the_int64_dot_kernel():
    # one group would need the object kernel (lcm 7 943 076 345), and the
    # first six primes alone the int64 one at n_max = 1500
    primes = (3, 5, 17, 53, 73, 83, 97)
    lcms, member_of = modular_mod._groups(1500, primes)
    assert (lcms, member_of) == ([3 * 5 * 17 * 53 * 73, 83 * 97], [0, 0, 0, 0, 0, 1, 1])
    assert all(residue_kernel(1500, m) == "int64-dot" for m in lcms)
    assert chocolate2_mod_many(1500, primes) == [chocolate2_mod(1500, p) for p in primes]


def test_grouping_keeps_the_scaled_route():
    # 999983, 9 and 3 share one pass mod their lcm 8 999 847, which keeps
    # 999983 on the scaled route and walks Pascal rows mod 9 only; powers of
    # 2 share the Pascal pass of small odd moduli
    assert planned(3000, 9 * 999_983) == [("scaled", 999_983, "int64-dot"),
                                          ("pascal", 9, "int64-dot")]
    assert planned(1500, 8) == [("scaled", 8, "int64-dot")]
    assert planned(1500, 120) == [("pascal", 120, "int64-dot")]
    for n_max, moduli, lcm in ((3000, [999_983, 9, 3], 9 * 999_983), (1500, [4, 6, 8, 10], 120)):
        assert modular_mod._groups(n_max, moduli) == ([lcm], [0] * len(moduli))
        assert chocolate2_mod_many(n_max, moduli) == [chocolate2_mod(n_max, m) for m in moduli]


def test_grouping_keeps_order_and_duplicates():
    moduli = [12, 4, 12, 9, 999_983, 8]
    assert chocolate2_mod_many(300, moduli) == [chocolate2_mod(300, m) for m in moduli]
    assert chocolate2_mod_many(300, []) == []
    with pytest.raises(ValueError, match="got 1"):
        chocolate2_mod_many(300, [9, 1, 0])


@pytest.mark.parametrize("seed", [0, 1])
def test_grouped_moduli_fuzz_matches_one_modulus_at_a_time(seed):
    # random lists of smooth, rough and mixed moduli and powers of 2, some
    # repeated, on each side of the int64-dot edge
    rng = random.Random(seed)
    n_max = 300
    pool = [2**rng.randrange(1, 40), 3**rng.randrange(1, 30), int64_dot_edge(n_max)]
    for _ in range(12):
        smooth = smooth_factor(rng, n_max, 10**rng.randrange(1, 9))
        rough = prime_from(rng.randrange(2 * n_max, 10**rng.randrange(4, 12)), 1)
        pool += [smooth, rough << rng.randrange(3), smooth * rough, rng.randrange(2, 10**6)]
    for _ in range(25):
        moduli = rng.sample(pool, rng.randrange(1, 8))
        moduli += rng.sample(moduli, rng.randrange(2))
        want = [chocolate2_mod(n_max, m) for m in moduli]
        assert chocolate2_mod_many(n_max, moduli) == want, moduli


def test_moduli_below_twice_n_max_skip_the_route_rule():
    # the running factorial is 0 mod 9 from 7! on, so the plan stops at n = 3
    # of the 10^12 it could take
    assert modular_mod._split(10**12, 9) == (9, 1, [])


def split_reference(n_max, m):
    """(s, r) of chocolate2_mod's plan from its definition alone: r is the
    odd part of m with every odd factor below 2 n_max divided out, and the
    powers of 2 go to s unless s = 1."""
    q = m
    while q % 2 == 0:
        q //= 2
    r = q
    for k in range(3, 2 * n_max, 2):
        while r % k == 0:
            r //= k
    return (1, m) if r == q else (m // r, r)


def split_cases(count, seed):
    """count seeded (n_max, m) pairs: smooth, rough, mixed and power-of-2
    moduli, odd parts just below and just above 2 n_max, and small odd
    parts times up to 2^200."""
    rng = random.Random(seed)
    odd_primes = plain_primes(3, 1400)
    for i in range(count):
        n_max = rng.randint(1, 600)
        smooth = [p for p in odd_primes if p < 2 * n_max] or [1]
        rough = [p for p in odd_primes if 2 * n_max <= p < 2 * n_max + 200]
        kind = i % 6
        if kind == 0:  # smooth
            m = prod(rng.choices(smooth, k=rng.randint(1, 4))) << rng.randint(0, 3)
        elif kind == 1:  # rough
            m = prod(rng.choices(rough, k=rng.randint(1, 2))) << rng.randint(0, 3)
        elif kind == 2:  # mixed
            m = prod(rng.choices(smooth, k=rng.randint(1, 3))) * rng.choice(rough)
        elif kind == 3:  # a power of 2
            m = 1 << rng.randint(1, 200)
        elif kind == 4:  # an odd part just below or just above 2 n_max
            m = max(1, 2 * n_max + rng.choice((-3, -1, 1, 3))) << rng.randint(0, 40)
        else:  # a small odd part times up to 2^200
            m = rng.randrange(1, 60, 2) << rng.randint(0, 200)
        yield n_max, max(m, 2)


def test_the_plan_splits_as_its_definition_says():
    cases = list(split_cases(2400, seed=36))
    assert len(set(cases)) > 2000
    for n_max, m in cases:
        s, r, facts = modular_mod._split(n_max, m)
        assert (s, r) == split_reference(n_max, m), (n_max, m)


INT64_MAX = 2**63 - 1


def deferral_schedule(n_max, m):
    """Per step n = 2..n_max of the int64-dot kernel: the bound on the row
    entries after the step, and whether the row and the products are
    reduced, derived from the int64 limit alone."""
    h = (n_max - 1) // 2
    row_cap = min(INT64_MAX // 4, INT64_MAX // (h * (m - 1)))
    prod_cap = INT64_MAX // (h * (m - 1) ** 2)
    # the cap sits on the int64 limit: the next step and a dot against
    # reduced products fit below it and not at 4x it
    assert 4 * row_cap <= INT64_MAX and h * row_cap * (m - 1) <= INT64_MAX
    assert 16 * row_cap > INT64_MAX or h * 4 * row_cap * (m - 1) > INT64_MAX
    assert h * (prod_cap + 1) * (m - 1) ** 2 > INT64_MAX
    bound, schedule = m - 1, []
    for _ in range(2, n_max + 1):
        bound *= 4
        row_reduced = bound > row_cap
        if row_reduced:
            bound = m - 1
        schedule.append((bound, row_reduced, bound > prod_cap))
    return schedule


# 123 985 020 = 2^2 * 3 * 5 * 53 * 127 * 307 sits 7 below EDGE_600 and walks
# Pascal rows whole; EDGE_600 = 31 * 3 999 517 walks them mod 31 only
@pytest.mark.parametrize("m,deferred_steps", [(123_985_020, 0), (9, 24)])
def test_int64_dot_defers_reductions_up_to_the_int64_bound(monkeypatch, m, deferred_steps):
    import numpy as np

    schedule = deferral_schedule(600, m)
    # the row is reduced once every deferred_steps + 1 steps
    assert [r for _, r, _ in schedule[: deferred_steps + 1]] == [False] * deferred_steps + [True]
    seen = []
    real_dot = np.dot

    def recording_dot(weights, prods):
        seen.append((int(weights.max(initial=0)), int(prods.max(initial=0))))
        return real_dot(weights, prods)

    monkeypatch.setattr(np, "dot", recording_dot)
    assert planned(600, m) == [("pascal", m, "int64-dot")]
    got = chocolate2_mod(600, m)
    assert got == full_row_chocolate2_mod(600, m)
    assert len(seen) == len(schedule)
    for n, ((w, p), (bound, row_reduced, prods_reduced)) in enumerate(zip(seen, schedule), 2):
        assert w <= bound, n
        assert p <= (m - 1 if prods_reduced else (m - 1) ** 2), n
        if n >= 100:  # long rows show whether a step left them unreduced
            assert (w < m) == row_reduced, n
            assert (p < m) == prods_reduced, n


# ------------------------------------------------------------- zero tails


def pascal_steps(run):
    """run() and the Pascal steps its kernel passes took, each of which
    calls numpy.add twice."""
    adds = []
    real_add = np.add

    def recording_add(*args, **kwargs):
        adds.append(None)
        return real_add(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "add", recording_add)
        got = run()
    assert len(adds) % 2 == 0
    return got, len(adds) // 2


def certified_from(m, residues):
    """The smallest n at which persistent_divisor_check certifies that m
    divides every B_j from j = n on, or None."""
    return next((n for n in range(1, len(residues) + 2)
                 if persistent_divisor_check(m, n, residues)), None)


# the first n at which persistent_divisor_check certifies the zero tail
KNOWN_STOPS = {11: 11, 19: 361, 41: 1681, 10**9: 125, 10**12: 151}


@pytest.mark.parametrize("n_max,m", [
    *((3000, m) for m in (5, 10, 11, 19, 25, 29, 31, 41, 55, 121, 10**9, 10**12)),
    (20_000, 11),  # a long prefix that the stop makes cheap
])
def test_pascal_rows_stop_at_the_certified_zero_tail(n_max, m):
    assert scaled_lengths(n_max, m) == []
    got, steps = pascal_steps(lambda: chocolate2_mod(n_max, m))
    k = certified_from(m, got)
    assert k is not None and k == KNOWN_STOPS.get(m, k)
    assert steps == k - 2  # B_2..B_{k-1}, nothing more
    assert got[k - 1 :] == [0] * (n_max - k + 1)
    assert got[:600] == chocolate2_mod(600, m)


# 131 stops at n = 130, the first step of a span, and 139 at n = 138, inside one
@pytest.mark.parametrize("m,stop,first", [(131, 130, True), (139, 138, False)])
def test_pascal_rows_stop_on_the_first_step_of_a_span_and_inside_one(m, stop, first):
    assert ((stop - 2) % fill_mod._SPAN == 0) == first
    got, steps = pascal_steps(lambda: chocolate2_mod(600, m))
    assert steps == stop - 1
    assert certified_from(m, got) == stop + 1
    assert got == full_row_chocolate2_mod(600, m)


@pytest.mark.parametrize("m,live", [(2, 1), (4, 2), (8, 2), (2**40, 22)])
def test_scaled_route_stops_where_the_factorial_vanishes(m, live):
    # (2n-1)! is not 0 mod m up to n = live, and 0 from n = live + 1 on, so
    # the plan holds live factorials and the scaled pass is that long
    assert factorial(2 * live - 1) % m != 0 == factorial(2 * live + 1) % m
    assert scaled_lengths(3000, m) == [live]
    got, steps = pascal_steps(lambda: chocolate2_mod(3000, m))
    assert steps == 0
    assert got[live:] == [0] * (3000 - live)
    assert got[:600] == chocolate2_mod(600, m)


@pytest.mark.parametrize("m,steps,lengths", [
    *((m, 2999, []) for m in (3, 9, 12, 37, 43)),
    (999_983, 0, [3000]),
    # the smooth part 11 stops at n = 11, the rough part runs in full
    (11 * 3_037_000_507, 9, [3000]),
])
def test_kernel_passes_without_a_certified_tail_run_the_full_length(m, steps, lengths):
    assert scaled_lengths(3000, m) == lengths
    assert pascal_steps(lambda: chocolate2_mod(3000, m))[1] == steps


def test_a_group_stops_when_its_lcm_does():
    many, steps = pascal_steps(lambda: chocolate2_mod_many(3000, [5, 11]))
    lcm = chocolate2_mod(3000, 55)
    assert many == [[r % 5 for r in lcm], [r % 11 for r in lcm]]
    assert steps == certified_from(55, lcm) - 2 == 23


@pytest.mark.parametrize(
    "n_max,m,expected",
    [(1, 7, [3]), (2, 100, [96, 84])],
)
def test_hyper_numerators_mod_examples(n_max, m, expected):
    assert hyper_numerators_mod(n_max, m) == expected


def test_hyper_numerators_mod_five_dies_at_index_five():
    residues = hyper_numerators_mod(5, 5)
    assert residues[4] == 0 and all(r != 0 for r in residues[:4])


def test_hyper_numerators_periodicity_congruence():
    # for the primes the classifier excludes, the products repeat with
    # period p(p-1) from the very first term
    for p in (3, 7, 13, 23, 37):
        pp1 = p * (p - 1)
        residues = hyper_numerators_mod(pp1 + 200, p)
        for n in range(200):
            assert residues[n + pp1] == residues[n], (p, n)


# ------------------------------------------------------------------ detector


def _reference_period(seq):
    """The per-period search the linear scan replaced: for each length in
    increasing order, the preperiod ends after the last mismatch between the
    sequence and its shift by that length."""
    L = len(seq)

    def tail_ok(tail, period):
        return tail >= 3 * period and 2 * tail >= L

    t = next((j + 1 for j in reversed(range(L)) if seq[j] != 0), 0)
    if t < L and tail_ok(L - t, 1):
        return PeriodReport(True, t, 1, True, L)

    def fit(period):
        pre = next((j + 1 for j in reversed(range(L - period)) if seq[j] != seq[j + period]), 0)
        return pre if tail_ok(L - pre, period) else None

    for period in range(1, L // 3 + 1):
        pre = fit(period)
        if pre is not None:
            return PeriodReport(True, pre, period, False, L)
    return PeriodReport(False, None, None, False, L)


def _random_eventually_periodic(rng):
    period = rng.randint(1, 12)
    symbols = rng.randint(2, 5)  # few symbols: shorter periods fit by chance
    cycle = [rng.randrange(symbols) for _ in range(period)]
    tail = [cycle[i % period] for i in range(rng.randint(2 * period, 5 * period + 8))]
    pre_length = max(8 - len(tail), rng.randint(0, len(tail) + 3))
    pre = [rng.randrange(symbols) for _ in range(pre_length)]
    return pre + tail


def _exhaustive_and_random_sequences():
    for symbols, lengths in ((2, range(8, 17)), (3, range(8, 12))):
        for length in lengths:
            yield from itertools.product(range(symbols), repeat=length)
    rng = random.Random(20151021)
    for _ in range(2000):
        yield _random_eventually_periodic(rng)


def test_detect_matches_the_per_period_reference():
    # every binary sequence of length 8-16, every ternary one of length
    # 8-11 and 2000 random eventually periodic ones; hints change nothing
    checked = resolved = 0
    for seq in _exhaustive_and_random_sequences():
        seq = list(seq)
        report = detect_eventual_period(seq)
        assert report == _reference_period(seq), seq
        hints = [2, 3, 5, 6, len(seq) // 3] if report.period is None else [
            report.period * 2, report.period * 6, 5]
        assert detect_eventual_period(seq, hints) == report, seq
        checked += 1
        resolved += report.resolved
    assert checked == sum(2**n for n in range(8, 17)) + sum(3**n for n in range(8, 12)) + 2000
    assert 0 < resolved < checked


def test_detect_library_residues_and_hints():
    # mod 13 the numerator products have period p(p-1) = 156 from the start
    residues = hyper_numerators_mod(1560, 13)
    pp1 = 156
    report = detect_eventual_period(residues)
    assert report.resolved and report.period == 156 and report.preperiod == 0
    assert detect_eventual_period(residues, [d for d in range(1, pp1 + 1) if pp1 % d == 0]) == report
    # a multiple of the true period, or useless hints, still give period 3
    for hints in ([30], [7, 11], None):
        plain = detect_eventual_period(hyper_numerators_mod(120, 3), hints)
        assert plain.resolved and plain.period == 3
    for m in (7, 9, 13, 43):
        residues = chocolate2_mod(600, m)
        assert detect_eventual_period(residues) == _reference_period(residues), m


def test_detect_is_linear_on_aperiodic_evidence():
    rng = random.Random(999983)
    aperiodic = [rng.randrange(999_983) for _ in range(10**5)]
    # and a period-37 tail just short of half the evidence, whose every
    # multiple of 37 matches over 40 000 terms: linear only if the scan
    # reuses earlier matches instead of comparing again
    near_miss = aperiodic[:60_000] + aperiodic[:37] * 1081 + aperiodic[:3]
    for seq in (aperiodic, near_miss):
        start = time.perf_counter()
        report = detect_eventual_period(seq)
        assert time.perf_counter() - start < 1.0
        assert not report.resolved and report.evidence_length == 10**5


def test_detect_unresolved_below_thresholds():
    # period 156 mod 13: 200 terms hold about 1.3 periods and 400 terms 2.6
    for length in (200, 400):
        report = detect_eventual_period(hyper_numerators_mod(length, 13))
        assert not report.resolved
        assert report.period is None and report.preperiod is None
        assert report.evidence_length == length
    residues = hyper_numerators_mod(400, 13)
    assert not detect_eventual_period(residues, [156]).resolved


def test_detect_tail_ratio_is_exact():
    seq = list(range(3, 11)) + [1, 2] * 4  # tail of 8 in 16 terms: exactly half
    report = detect_eventual_period(seq)
    assert report.resolved and (report.preperiod, report.period) == (8, 2)
    assert not detect_eventual_period([0] + seq).resolved  # 8 in 17: short


@pytest.mark.parametrize("period", [2, 3, 5])
def test_detect_thresholds_at_both_edges(period):
    pre = list(range(1, 3 * period + 1))  # distinct, and no term is a cycle term
    tail = list(range(100, 100 + period)) * 3
    # a tail of exactly 3 periods that is exactly half the evidence resolves
    report = detect_eventual_period(pre + tail)
    assert report.resolved and not report.eventually_zero
    assert (report.preperiod, report.period) == (len(pre), period)
    assert detect_eventual_period(pre + tail, [period]) == report
    short = [
        pre + tail[:-1],  # one tail term fewer: under 3 periods and under half
        [0] + pre + tail,  # one preperiod term more: 3 periods, under half
        pre[1:] + tail[:-1],  # one term fewer at each end: half, under 3 periods
    ]
    for seq in short:
        assert not detect_eventual_period(seq).resolved
        assert not detect_eventual_period(seq, [period]).resolved


def test_detect_is_idempotent_under_extension():
    full = hyper_numerators_mod(600, 3)
    reports = [detect_eventual_period(full[:length]) for length in (9, 30, 100, 600)]
    assert all(r.resolved and not r.eventually_zero for r in reports)
    assert {(r.preperiod, r.period) for r in reports} == {(0, 3)}


# ----------------------------------------------------------------- theorems


def test_zero_tail_prime_matches_legendre():
    for p in plain_primes(2, 100):
        if p in (2, 5):
            continue
        # Euler's criterion: 5 is a square mod p
        assert zero_tail_prime(p) == (pow(5, (p - 1) // 2, p) == 1)


def test_persistent_divisor_check_windows():
    b11 = chocolate2_mod(30, 11)
    # the honest window for 11: it divides B_6..B_10, not B_3..B_5
    assert persistent_divisor_check(11, 11, b11) is True
    assert persistent_divisor_check(11, 6, b11) is False
    b5 = chocolate2_mod(30, 5)
    assert persistent_divisor_check(5, 25, b5) is True
    b3 = chocolate2_mod(30, 3)
    assert all(not persistent_divisor_check(3, n, b3) for n in range(1, 30))


def binomial_mod_prime(n, k, p):
    """C(n, k) mod the prime p by Lucas' theorem: the product of the
    binomials of the base-p digits of n and k, which is 0 as soon as a digit
    of k exceeds the digit of n.  Any k outside [0, n] gives 0, as for
    ``binomial``.  Primality of p is the caller's promise; p < 2 raises."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if p < 2:
        raise ValueError(f"binomial_mod_prime requires a prime p, got {p}")
    if k < 0 or k > n:
        return 0
    r = 1
    while k and r:
        n, n_digit = divmod(n, p)
        k, k_digit = divmod(k, p)
        r = r * comb(n_digit, k_digit) % p
    return r


def test_binomial_mod_prime_matches_exact_mod_3():
    for n in range(300):
        for k in range(-1, n + 2):
            assert binomial_mod_prime(n, k, 3) == binomial(n, k) % 3, (n, k)


def test_binomial_mod_prime_other_primes():
    for p in (2, 5, 7, 13):
        for n in range(0, 120, 7):
            for k in range(n + 1):
                assert binomial_mod_prime(n, k, p) == comb(n, k) % p
    with pytest.raises(ValueError):
        binomial_mod_prime(-1, 0, 3)
    with pytest.raises(ValueError):
        binomial_mod_prime(5, 2, 1)


def termwise_binom_sum(n, first, stop):
    """sum C(n, i) mod 3 over i = first, first + 6, ... below stop, by
    Lucas' theorem term by term."""
    return sum(binomial_mod_prime(n, i, 3) for i in range(first, stop, 6)) % 3


def test_binom_sums_match_the_termwise_sum_below_3000():
    for n in range(8, 3000, 6):
        assert binom_sum_1_mod6(n) == termwise_binom_sum(n, 1, n), n
    for n in range(10, 3000, 6):
        assert binom_sum_5_mod6(n) == termwise_binom_sum(n, 5, n - 4), n


# -------------------------------------------------------------- scan harness


_divides_factorial = functools.cache(divides_factorial)


def _searched_certificate(k, tail_start, residues):
    """The search the certificate formula replaced: step n up from the
    window's start until k divides (2n-2)!.  Once the window leaves the
    evidence the answer is None whatever n the search would reach, so the
    loop stops there instead of stepping on."""
    L = len(residues)
    n = max(2, 2 * tail_start - 1)
    while n - 1 <= L and not _divides_factorial(k, 2 * n - 2):
        n += 1
    if n - 1 > L:
        return None
    return n if persistent_divisor_check(k, n, residues) else None


def test_zero_tail_certificate_matches_the_search():
    # every prime below 1500, three evidence lengths and every tail start
    checked = certified = 0
    for p in plain_primes(2, 1500):
        for L in (100, 137, 300):
            for tail_start in range(1, L + 1):
                residues = [1] * (tail_start - 1) + [0] * (L - tail_start + 1)
                cert = modular_mod._certify_zero_tail(p, tail_start, residues)
                assert cert == _searched_certificate(p, tail_start, residues), (p, L, tail_start)
                checked += 1
                certified += cert is not None
    assert (checked, certified) == (128_343, 22_807)


# (conjecture, moduli, n_max, residues that stand in for chocolate2_mod's,
# or None, and the (status, preperiod, period, notes) of each record)
UNCERTIFIABLE = "on a classifier-false prime; cannot certify either way"
NO_PERIOD = "terms at the configured thresholds"
SCAN_CASES = [
    (1, [11], 200, None, [(CONSISTENT, 5, 1, "zero tail from index 6; persistence certified"
                           " by divisibility window at n=11")]),
    (1, [3], 200, None, [(CONSISTENT, None, None,
                          "no zero tail within 200 terms, matching the classifier")]),
    # the zero tail mod 41 starts at index 841, far beyond this horizon
    (1, [41], 200, None, [(CONSISTENT, None, None, "no zero tail within 200 terms;"
                           " predicted tail would start beyond the evidence")]),
    (1, [3], 300, [1, 2, 1] + [0] * 297, [(INCONSISTENT, 3, 1, "certified persistent zero"
                                           " tail from index 4 contradicts the classifier")]),
    (1, [3], 300, [1] * 295 + [0] * 5,
     [(UNRESOLVED, 295, 1, f"trailing zeros from index 296 {UNCERTIFIABLE}")]),
    # B_107 has the prime factor 2 751 857; a certificate search would step n
    # up to 1 375 930, where a prime that large first divides (2n-2)!
    (1, [2751857], 107, None,
     [(UNRESOLVED, 106, 1, f"trailing zeros from index 107 {UNCERTIFIABLE}")]),
    (2, [3, 9], 400, None, [
        (CONSISTENT, 1, 3, "periodic on the evidence with period 3 after preperiod 1; evidence only"),
        (CONSISTENT, 3, 9, "periodic on the evidence with period 9 after preperiod 3; evidence only"),
    ]),
    (2, [13], 150, None, [(UNRESOLVED, None, None, f"no period certified within 150 {NO_PERIOD}")]),
    (3, [3], 400, None, [(CONSISTENT, 1, 3, "minimal observed period 3, p(p-1)=6;"
                          " p(p-1) divides period: no; period divides p(p-1): yes")]),
    (3, [43], 100, None, [(UNRESOLVED, None, None, f"no period certified within 100 {NO_PERIOD}")]),
    # no classifier-false prime is known to die; a stand-in sequence does
    (3, [3], 100, [1, 2] + [0] * 98, [(UNRESOLVED, 2, 1, "sequence died to zeros,"
                                       " which the hypothesis does not anticipate")]),
    (3, [11], 200, None, [(CONSISTENT, None, None,
                           "hypothesis excludes this prime (classifier-true); nothing to test")]),
]


@pytest.mark.parametrize("conjecture,moduli,n_max,fake,expected", SCAN_CASES,
                         ids=[f"{c}-{'-'.join(map(str, ms))}-{n}{'-stand-in' * bool(fake)}"
                              for c, ms, n, fake, _ in SCAN_CASES])
def test_scan_records_and_their_dicts(monkeypatch, conjecture, moduli, n_max, fake, expected):
    if fake is not None:
        monkeypatch.setattr(modular_mod, "chocolate2_mod", lambda n, m: fake[:n])
    start = time.perf_counter()
    records = conjecture_scan(conjecture, moduli, n_max)
    assert time.perf_counter() - start < 2  # no scan here searches for a certificate
    rows = [(conjecture, m, n_max, *e) for m, e in zip(moduli, expected)]
    assert records == [ScanRecord(*row) for row in rows]
    fields = ("conjecture", "modulus", "n_max", "status", "preperiod", "period", "notes")
    assert [r.as_dict() for r in records] == [dict(zip(fields, row)) for row in rows]

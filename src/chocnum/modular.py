"""Residue arithmetic for the 2 x n break counts and the hypergeometric
numerator products, plus the machinery that scans them:
divisibility-propagation certificates, the forced mod-3 pattern, eventual
period detection, and the three-conjecture scan harness.

Residues are always normalized to [0, m).  The 2 x n residues cost time
quadratic in n, so they run in three int64 numpy kernels of
``chocnum.fill``: ``chocolate2_mod`` splits m into a rough part for the
scaled counts (``scaled_dot``, ``scaled_limbs``) and a smooth part for
Pascal rows (``pascal_residues``), ``residue_kernel`` names the int64
class that picks the arithmetic of each, and several moduli share one pass
mod their lcm (``chocolate2_mod_many``).

Zero tails: if m divides B_i for every i in floor((n+1)/2)..n-1 and m
divides (2n-2)!, then m divides every B_j with j >= n.  By induction on j:
m divides (2j-2)!, and each product B_i B_{j-i} of the recursion has an
index max(i, j-i) in floor((n+1)/2)..j-1, inside the window or at or
beyond n.  ``persistent_divisor_check`` certifies this lemma, and
``fill.pascal_residues`` stops on it.  A stop rests on this proof about the
residues computed so far, never on the classifier ``zero_tail_prime``,
which states an open conjecture (conjecture 1, which the scans test) and
speaks of primes only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

from . import load_fill
from .arith import divides_factorial, is_prime

# isqrt(2**63 - 1): a product of two residues mod m <= this fits int64
_INT64_SAFE_MODULUS = 3_037_000_499

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"
UNRESOLVED = "UNRESOLVED"


def residue_kernel(n_max: int, m: int) -> str:
    """Name of the int64 precondition class of a kernel pass mod m up to
    n_max, which picks the arithmetic of either route of ``chocolate2_mod``.
    Each kernel states the bound it relies on.

    ``"int64-dot"``: every product of two residues fits int64 and so does a
    dot of fewer than n_max of them.  The scaled route takes one int64 dot
    of reduced residues per step (``fill.scaled_dot``); the Pascal route one
    int64 dot of row entries and products that are reduced only when a
    running bound says int64 might not hold the next step.
    ``"int64"``: the products fit (m <= 3 037 000 499) but a dot product
    might not.  The scaled route splits the residues into limbs, whose
    int64 inner product stays exact (``fill.scaled_limbs``); the Pascal route
    reduces every product before the sum.
    ``"object"``: not even one product fits.  The scaled route runs on
    limbs as for ``"int64"``; the Pascal route carries Python integers, an
    exact dot reduced once per step.
    """
    n_max, m = operator.index(n_max), operator.index(m)
    if m > _INT64_SAFE_MODULUS:
        return "object"
    if n_max * (m - 1) ** 2 < 2**63:
        return "int64-dot"
    return "int64"


def chocolate2_mod(n_max: int, m: int) -> list[int]:
    """Residues of the 2 x n break counts B_1..B_n_max mod m, computed
    entirely in residue arithmetic.  m = s r: the rough part r is the
    largest factor of m coprime to every odd number below 2 n_max, the
    smooth part s the rest, and the powers of 2 of m go to s unless s = 1,
    for they ride free on Pascal rows.  r takes the scaled route, s walks
    Pascal rows, and one CRT per index joins them; a modulus that is all
    rough or all smooth runs its one route alone.

    The plan comes first, from the pure ``_split(n_max, m)``: (s, r, facts),
    with facts the running factorials (2n-1)! mod m for n = 1..live, where
    live is the last n <= n_max with (2n-1)! not 0 mod m, and (m, 1, [])
    when the whole modulus walks Pascal rows.  The rest runs the passes it
    names and nothing else.

    Scaled route, for r: every 2n-1 <= 2n_max-1 is a unit mod r, and the
    scaled counts c_n = B_n / (2n-1)! satisfy

        (2n-1) c_n = 1 + sum_{j=1}^{n-1} c_j c_{n-j},  c_1 = 1,

    which divides by odd numbers only, so each step is one dot product of
    residues and one modular inverse, and B_n = (2n-1)! c_n at the end.
    From live + 1 on, (2n-1)! is 0 mod r and so is B_n, so c is filled only
    up to live; only a power of 2 gets there, such as 8 at n = 3 or 2^40 at
    n = 23.  The running product (2n-1)! mod m also finds r: the odd part
    of m, divided by its gcd with (2n_max-1)! until the two are coprime.
    An odd part q below 2 n_max divides (2n_max-1)!, so the product either
    reaches 0 mod m, which leaves r = 1, or ends at a multiple of q, which
    the gcd strips whole: the plan is (m, 1, []) either way.

    Pascal route, for s:

        B_n = (2n-2)! + sum_{i=1}^{n-1} C(2n-2, 2i-1) B_i B_{n-i}.

    The factorial term is a running product that sticks at 0 once it hits 0.
    Half row: the weights come from C(t, 0..t/2+1) mod s alone, the rest
    following from C(t, k) = C(t, t-k).  The half row advances two rows per
    n, by two Pascal steps that together give
    C(t+2, k) = C(t, k) + 2 C(t, k-1) + C(t, k-2).  The rows stop at a
    certified zero tail (``fill.pascal_residues``).

    Half sum, on both routes: the summand is symmetric under i <-> n-i, so
    only i < n/2 is summed, the sum is doubled, and the middle term is
    added when n is even.  Memory stays O(n_max).

    ``residue_kernel`` names the int64 class of each part, once, and the
    kernel of ``chocnum.fill`` that runs the part takes its arithmetic.
    ``chocnum.load_fill`` loads that module, and numpy with it, and raises
    RecursionError for a caller too deep in its stack to import numpy
    whole.  A mixed modulus stops each part on its own, and the CRT join is
    unchanged.
    """
    n_max, m = operator.index(n_max), operator.index(m)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    fill = load_fill()
    s, r, facts = _split(n_max, m)
    if r == 1:
        return fill.pascal_residues(n_max, m, residue_kernel(n_max, m))
    live = len(facts)  # B_n = 0 mod r from n = live + 1 on
    scaled = fill.scaled_dot if residue_kernel(live, r) == "int64-dot" else fill.scaled_limbs
    rough = [f * c % r for f, c in zip(facts, scaled(live, r))] + [0] * (n_max - live)
    if s == 1:
        return rough
    inverse = pow(s, -1, r)
    smooth = fill.pascal_residues(n_max, s, residue_kernel(n_max, s))
    return [a + s * ((b - a) * inverse % r) for a, b in zip(smooth, rough)]


def _split(n_max: int, m: int) -> tuple[int, int, list[int]]:
    """The plan (s, r, facts) of ``chocolate2_mod(n_max, m)``; its
    docstring defines each part."""
    q = m // (m & -m)  # the odd part
    facts, f = [], 1
    for k in range(3, 2 * n_max + 2, 2):
        facts.append(f)  # (2n-1)! mod m for n = (k-1)/2
        if not (f := f * (k - 1) * k % m):
            break
    r = q  # divided down to the rough part, coprime to (2n_max-1)!
    while (g := math.gcd(facts[-1] if len(facts) == n_max else 0, r)) > 1:
        r //= g
    s, r = (m // r, r) if r < q else (1, m)  # the powers of 2 go to s unless s = 1
    return (m, 1, []) if r == 1 else (s, r, facts)


def chocolate2_mod_many(n_max: int, moduli) -> list[list[int]]:
    """``chocolate2_mod(n_max, m)`` for each m of moduli, in order, from one
    kernel pass per group: residues mod the lcm of a group reduce to each
    member's.  Each modulus joins the first group whose lcm keeps the
    ``"int64-dot"`` kernel; one that fits no group runs alone.  A pass
    splits its lcm as ``chocolate2_mod`` splits any modulus, so the smooth
    parts of the members share its Pascal rows and their rough parts its
    scaled route.  The pure ``_groups(n_max, moduli)`` plans this first:
    (lcms, member_of), the lcm of each group and the group of each
    modulus."""
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    moduli = [operator.index(m) for m in moduli]
    lcms, member_of = _groups(n_max, moduli)
    residues = [chocolate2_mod(n_max, lcm) for lcm in lcms]
    return [[r % m for r in residues[g]] for m, g in zip(moduli, member_of)]


def _groups(n_max: int, moduli: list[int]) -> tuple[list[int], list[int]]:
    """The plan (lcms, member_of) of ``chocolate2_mod_many(n_max, moduli)``."""
    lcms, member_of = [], []
    for m in moduli:
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        g = next((g for g, lcm in enumerate(lcms)
                  if residue_kernel(n_max, math.lcm(lcm, m)) == "int64-dot"), len(lcms))
        if g == len(lcms):
            lcms.append(1)
        lcms[g] = math.lcm(lcms[g], m)
        member_of.append(g)
    return lcms, member_of


def hyper_numerators_mod(n_max: int, m: int) -> list[int]:
    """Residues mod m of the running products prod_{i<=n} ((4i-5)^2 - 5),
    the numerators of the rearranged hypergeometric series.  Once a factor
    kills the product mod m, the tail is filled with zeros directly."""
    n_max, m = operator.index(n_max), operator.index(m)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    out = []
    x = 1 % m
    for i in range(1, n_max + 1):
        x = x * (((4 * i - 5) ** 2 - 5) % m) % m
        out.append(x)
        if x == 0:
            out.extend([0] * (n_max - i))
            break
    return out


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of eventual-period detection on a residue sequence.

    When resolved and not eventually_zero, every term after the preperiod
    repeats with the stated period across the observed evidence, the
    periodic tail covers at least 3 periods and at least half the evidence,
    and the period is minimal among all periods up to L//3.  When
    eventually_zero, everything after the preperiod is 0 and period is 1.
    Unresolved reports are a valid outcome, not an error.
    """

    resolved: bool
    preperiod: int | None
    period: int | None
    eventually_zero: bool
    evidence_length: int


def detect_eventual_period(seq, candidate_periods=None) -> PeriodReport:
    """Find (preperiod, period) for an eventually periodic residue sequence.

    One scan tries every length P up to a third of the evidence in
    increasing order, so the first fit is minimal.  The Z-function of the
    reversed sequence gives, for each P, how many terms from the end repeat
    P terms earlier, so the periodic tail for P is that count plus P.  A fit
    must leave a periodic tail of at least 3 periods and at least half the
    evidence (integer comparisons: tail >= 3 * period and 2 * tail >= L) --
    with fewer than 3 periods or less than half the evidence the report
    comes back unresolved rather than overclaiming.  The scan is linear in
    the evidence, found or not.

    ``candidate_periods`` is accepted and ignored: hints could only change
    the speed.  Two fitting periods leave tails of at least half the
    evidence and are at most a third of it, so the shorter tail spans both,
    and by the Fine-Wilf theorem it has their gcd as a period; so every
    fitting candidate is a multiple of the minimal period.

    A zero tail needs no check of its own: the P = 1 tail is the final run of
    equal terms and is tried first, so the P = 1 fit reports eventually_zero
    when the last term is 0.  An all-zero tail long enough for any P > 1
    would already have fit P = 1.
    """
    seq = list(seq)
    L = len(seq)
    if L < 8:
        raise ValueError(f"need at least 8 terms of evidence, got {L}")

    # z[P]: longest common prefix of r and r[P:]; a fit needs a tail of
    # 3 periods, so longer periods are hopeless
    r = seq[::-1]
    max_period = L // 3
    z = [0] * (max_period + 1)
    lo = hi = 0  # r[lo:hi] matches r[:hi - lo], with hi the largest seen
    for period in range(1, max_period + 1):
        k = min(hi - period, z[period - lo]) if period < hi else 0
        while period + k < L and r[k] == r[period + k]:
            k += 1
        z[period] = k
        if period + k > hi:
            lo, hi = period, period + k
        tail = k + period
        if tail >= 3 * period and 2 * tail >= L:
            return PeriodReport(True, L - tail, period, bool(period == 1 and seq[-1] == 0), L)
    return PeriodReport(False, None, None, False, L)


def zero_tail_prime(p: int) -> bool:
    """Whether the hypergeometric numerator products mod p die out to an
    all-zero tail: exactly for p in {2, 5} and primes with 5 a square mod p,
    i.e. p = +-1 mod 5."""
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    return p in (2, 5) or p % 5 in (1, 4)


def persistent_divisor_check(k: int, n: int, b_mod) -> bool:
    """Certificate that k divides every 2 x j break count from j = n on.

    True iff k divides B_i for every i in the window floor((n+1)/2) .. n-1
    and k divides (2n-2)!, the hypotheses of the zero-tail lemma in the
    module docstring.  ``b_mod`` must hold residues of B_1..B_L mod k with
    L >= n-1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(b_mod) < n - 1:
        raise ValueError(
            f"residues cover B_1..B_{len(b_mod)} but the window needs B_{n - 1}"
        )
    window = range((n + 1) // 2, n)
    return all(b_mod[i - 1] == 0 for i in window) and divides_factorial(k, 2 * n - 2)


def mod3_pattern_check(n_max: int) -> bool:
    """True iff the 2 x n break counts follow the forced mod-3 pattern (1 when
    n = 2 mod 3, else 2) for all 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    residues = chocolate2_mod(n_max, 3)
    return all(residues[n - 1] == (1 if n % 3 == 2 else 2) for n in range(2, n_max + 1))


def _odd_class_sum_mod3(n: int, r: int) -> int:
    """The sum of C(n, i) mod 3 over every i = r mod 6, for odd r.

    By Lucas' theorem C(n, i) = prod_k C(n_k, i_k) mod 3 over the base-3
    digits, and each i is one choice of digits i_k <= n_k.  i mod 3 is its
    lowest digit, and i mod 2 the parity of its digit sum, since 3 is odd.
    So the digits are walked from the lowest, the lowest fixed to r mod 3,
    keeping for each parity of the digit sum so far the sum mod 3 of the
    products of the digit binomials; the odd one is the answer."""
    n, digit = divmod(n, 3)
    sums = [0, 0]  # by parity of the digit sum
    if r % 3 <= digit:
        sums[r % 3 % 2] = math.comb(digit, r % 3)
    while n:
        n, digit = divmod(n, 3)
        new = [0, 0]
        for k in range(digit + 1):
            for parity in (0, 1):
                new[parity ^ k % 2] += sums[parity] * math.comb(digit, k)
        sums = [x % 3 for x in new]
    return sums[1]


def binom_sum_1_mod6(n: int) -> int:
    """(C(n,1) + C(n,7) + ... + C(n,n-1)) mod 3 for n = 2 mod 6, n > 2;
    the mod-3 pattern proof needs this to be 1 in that range.  These are
    all the nonzero C(n, i) with i = 1 mod 6, summed digit by digit."""
    if n <= 2 or n % 6 != 2:
        raise ValueError(f"n must be > 2 with n = 2 mod 6, got {n}")
    return _odd_class_sum_mod3(n, 1)


def binom_sum_5_mod6(n: int) -> int:
    """(C(n,5) + C(n,11) + ... + C(n,n-5)) mod 3 for n = 4 mod 6, n > 4;
    the mod-3 pattern proof needs this to be 0 in that range.  These are
    all the nonzero C(n, i) with i = 5 mod 6, summed digit by digit."""
    if n <= 4 or n % 6 != 4:
        raise ValueError(f"n must be > 4 with n = 4 mod 6, got {n}")
    return _odd_class_sum_mod3(n, 5)


@dataclass(frozen=True)
class ScanRecord:
    """One line of a conjecture scan.  Statuses mean: CONSISTENT -- nothing
    in the evidence contradicts the claim; INCONSISTENT -- the evidence
    certifiably contradicts it; UNRESOLVED -- the evidence is ambiguous.
    A scan never claims to settle an open statement."""

    conjecture: int
    modulus: int
    n_max: int
    status: str
    preperiod: int | None
    period: int | None
    notes: str

    def as_dict(self) -> dict:
        return asdict(self)


def _certify_zero_tail(p: int, tail_start: int, residues) -> int | None:
    """Smallest n at which persistent_divisor_check certifies the observed
    zero tail (starting at index tail_start) to be permanent, or None when
    the window cannot fit inside the evidence.

    The window floor((n+1)/2) .. n-1 lies in the tail from n = 2*tail_start-1
    on.  conjecture_scan admits only primes here, and a prime p divides
    (2n-2)! iff 2n-2 >= p, i.e. n >= (p+3)//2; so n is the larger bound,
    with no search.  persistent_divisor_check still confirms it."""
    n = max(2, 2 * tail_start - 1, (p + 3) // 2)
    if n - 1 > len(residues):
        return None
    return n if persistent_divisor_check(p, n, residues) else None


# what one scan finds for one modulus: status, preperiod, period, notes
_Finding = tuple[str, int | None, int | None, str]


def _no_period(n_max: int) -> _Finding:
    return UNRESOLVED, None, None, (
        f"no period certified within {n_max} terms at the configured thresholds"
    )


def _scan_conjecture1(p: int, n_max: int, residues) -> _Finding:
    predicted = zero_tail_prime(p)
    nz = [i + 1 for i, r in enumerate(residues) if r != 0]
    tail_start = (nz[-1] + 1) if nz else 1
    if tail_start > n_max:
        if predicted:
            notes = (
                f"no zero tail within {n_max} terms; predicted tail would start "
                "beyond the evidence"
            )
        else:
            notes = f"no zero tail within {n_max} terms, matching the classifier"
        return CONSISTENT, None, None, notes
    cert = _certify_zero_tail(p, tail_start, residues)
    if predicted and cert is not None:
        status, notes = CONSISTENT, (
            f"zero tail from index {tail_start}; persistence certified by "
            f"divisibility window at n={cert}"
        )
    elif predicted:
        status, notes = CONSISTENT, (
            f"trailing zeros from index {tail_start}; window too short to "
            "certify persistence"
        )
    elif cert is not None:
        status, notes = INCONSISTENT, (
            f"certified persistent zero tail from index {tail_start} "
            "contradicts the classifier"
        )
    else:
        status, notes = UNRESOLVED, (
            f"trailing zeros from index {tail_start} on a classifier-false "
            "prime; cannot certify either way"
        )
    return status, tail_start - 1, 1, notes


def _scan_conjecture2(m: int, n_max: int, residues) -> _Finding:
    report = detect_eventual_period(residues)
    if not report.resolved:
        return _no_period(n_max)
    notes = (
        f"eventually zero from index {report.preperiod + 1}; evidence only"
        if report.eventually_zero else
        f"periodic on the evidence with period {report.period} after "
        f"preperiod {report.preperiod}; evidence only"
    )
    return CONSISTENT, report.preperiod, report.period, notes


def _scan_conjecture3(p: int, n_max: int, residues) -> _Finding:
    if residues is None:
        return CONSISTENT, None, None, (
            "hypothesis excludes this prime (classifier-true); nothing to test"
        )
    report = detect_eventual_period(residues)
    if not report.resolved:
        return _no_period(n_max)
    if report.eventually_zero:
        return UNRESOLVED, report.preperiod, report.period, (
            "sequence died to zeros, which the hypothesis does not anticipate"
        )
    period, pp1 = report.period, p * (p - 1)
    return CONSISTENT, report.preperiod, period, (
        f"minimal observed period {period}, p(p-1)={pp1}; "
        f"p(p-1) divides period: {'yes' if period % pp1 == 0 else 'no'}; "
        f"period divides p(p-1): {'yes' if pp1 % period == 0 else 'no'}"
    )


def conjecture_scan(conjecture: int, moduli, n_max: int) -> list[ScanRecord]:
    """Empirically scan one of the three open statements over the given
    moduli: (1) the zero-tail classification of the 2 x n counts mod p,
    (2) eventual periodicity mod any m, (3) period divisibility by p(p-1)
    for the primes the classifier excludes.  Records report evidence and
    certificates only; no record ever claims to settle a conjecture."""
    if conjecture not in (1, 2, 3):
        raise ValueError(f"conjecture must be 1, 2 or 3, got {conjecture}")
    n_max = operator.index(n_max)
    if n_max < 100:
        raise ValueError(f"n_max must be >= 100 for a meaningful scan, got {n_max}")
    moduli = [operator.index(m) for m in moduli]
    if conjecture != 2:
        for p in moduli:
            if not is_prime(p):
                raise ValueError(f"conjecture {conjecture} takes primes, got {p}")
    # conjecture 3 needs no residues for the primes the classifier excludes
    tested = [m for m in moduli if conjecture != 3 or not zero_tail_prime(m)]
    residues = dict(zip(tested, chocolate2_mod_many(n_max, tested)))
    scan = {1: _scan_conjecture1, 2: _scan_conjecture2, 3: _scan_conjecture3}[conjecture]
    return [ScanRecord(conjecture, m, n_max, *scan(m, n_max, residues.get(m)))
            for m in moduli]

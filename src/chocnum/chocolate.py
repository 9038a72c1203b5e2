"""Exact chocolate numbers and the sequence generators built on them.

A chocolate number counts the ordered ways to break a gridded m x n bar all
the way down to unit squares, where two breaks differ if they act on
different pieces or along different grid lines.  The count satisfies a
split recursion: the first break severs the bar into two sub-bars, the
remaining moves interleave freely (a binomial weight), and each sub-bar is
then an independent subproblem.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

CACHE_HEADER = "chocnum cache v1"

# The residue fill works modulo primes below 2**26: a product of two residues
# is below 2**52, so an int64 dot of at most _DOT_BLOCK products stays below
# 2**63.
_PRIME_CEILING = 1 << 26
_DOT_BLOCK = (1 << 11) - 1
_crt_primes: list[int] = []  # primes below _PRIME_CEILING, largest first


@contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int <-> decimal string conversion (4300 digits
    by default since 3.10.7) for the duration of the block, so exact values
    print and parse in full at any size.  The limit is process-wide; the
    caller's value is restored on exit.  Pythons without it are left alone."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class CacheFormatError(ValueError):
    """Raised when a cache file has the wrong header or a malformed line."""


class SequenceFrontierError(RuntimeError):
    """Raised when the distinct-value generator cannot certify completeness.

    The generator stops extending a row once a value exceeds the bound, which
    is only sound if rows are nondecreasing.  That is checked at runtime; a
    violation aborts the enumeration instead of silently dropping values.
    """


class ChocolateTable:
    """Memo table of break counts keyed by normalized (m, n) with m <= n.

    Normalizing keys halves the table: an m x n bar and its transpose break
    in equally many ways.  ``computed`` counts the bars actually filled (memo
    misses), which lets tests prove that a reloaded cache short-circuits the
    computation.
    """

    def __init__(self) -> None:
        self.memo: dict[tuple[int, int], int] = {}
        self.computed = 0

    def __len__(self) -> int:
        return len(self.memo)


def chocolate_number(m: int, n: int, table: ChocolateTable | None = None) -> int:
    """Number of ways to fully break an m x n bar, exactly.

    A 1 x k bar has (k-1)! break orders.  Otherwise, summing over the first
    break: a horizontal cut after row i leaves an i x n and an (m-i) x n bar
    whose remaining i*n-1 and (m-i)*n-1 moves interleave in C(mn-2, in-1)
    ways; vertical cuts contribute symmetrically.

    No recursion: the bars the sums reach, a x b with a <= min(b, m) and
    2 <= b <= n (only 1 x n itself when m = 1), are filled in order of b,
    then a, so every term is in the memo before it is read.  Cuts i and
    cuts-i give equal terms, as C(mn-2, in-1) = C(mn-2, (m-i)n-1), so each
    sum takes the cuts i < cuts/2 twice and the middle cut, if any, once.
    Along a sum, with N = ab-2, C(N, k+side) = C(N, k)*perm(N-k, side) //
    perm(k+side, side): the quotient is a binomial, so the division is exact.

    One fresh count of a long bar is rebuilt from residues instead, when
    ``_residue_primes`` gives primes for it; its docstring has the rule and
    ``_count_from_residues`` the math.  Only the m x n entry is stored.
    """
    if m < 1 or n < 1:
        raise ValueError(f"bar dimensions must be positive, got {m} x {n}")
    if table is None:
        table = ChocolateTable()
    m, n = min(m, n), max(m, n)
    memo = table.memo
    cached = memo.get((m, n))
    if cached is not None:
        return cached
    primes = _residue_primes(m, n, memo)
    if primes:
        memo[(m, n)] = _count_from_residues(m, n, primes)
        table.computed += 1
        return memo[(m, n)]

    def count(x: int, y: int) -> int:
        return memo[(x, y) if x <= y else (y, x)]

    for b in range(n if m == 1 else 2, n + 1):
        for a in range(1, min(b, m) + 1):
            if (a, b) in memo:
                continue
            if a == 1:
                value = math.factorial(b - 1)
            else:
                value = 0
                top = a * b - 2
                # cutting a side of `cuts` units after i leaves i x side and
                # (cuts-i) x side: horizontal cuts are (a, b), vertical (b, a)
                for cuts, side in ((a, b), (b, a)):
                    weight = math.comb(top, side - 1)  # C(top, k), k = i*side - 1
                    for i in range(1, cuts // 2 + 1):
                        term = weight * count(i, side) * count(cuts - i, side)
                        value += term if 2 * i == cuts else 2 * term
                        if i < cuts // 2:  # step to C(top, k + side)
                            k = i * side - 1
                            weight = weight * math.perm(top - k, side) // math.perm(k + side, side)
            memo[(a, b)] = value
            table.computed += 1
    return memo[(m, n)]


def _residue_primes(m: int, n: int, memo: dict) -> list[int] | None:
    """The primes for the residue fill of the m x n bar (m <= n), or None
    when the big-integer fill should run instead.

    The residue route pays only for one large, long value.  It needs m >= 2
    and an empty memo, so a sweep or a warm table keeps reusing the
    big-integer memo.  Above that, the crossover was measured over 2 x n,
    3 x n, 5 x n, 6 x n, 10 x n, 20 x n, 30 x n and squares: the route wins
    once (mn-1) * E.bit_length() >= 900 m and n >= 4 m.  Squares stay on
    big integers for memory: the fill holds about 12 bytes per prime and
    cell, and a square gains on time what it loses on peak memory (README,
    Performance notes).
    E = m(n-1) + n(m-1) bounds the breaks one state offers, since every
    available break cuts interior unit edges that no other available break
    cuts.  The primes bound the count by ``_count_bound``.
    """
    top = m * n - 1
    breaks = m * (n - 1) + n * (m - 1)
    if m < 2 or memo or n < 4 * m or top * breaks.bit_length() < 900 * m:
        return None
    return _fewest_primes(_count_bound(m, n), top)


def _count_bound(a: int, b: int) -> int:
    """(a+b-2) (ab-2)!, an upper bound on count(a, b) for ab >= 2, equal at
    2 x 2.  The scaled counts c(a, b) = count(a, b) / (ab-1)! have
    c(1, b) = c(a, 1) = 1, and the scaled recursion (``_count_from_residues``)
    divides a sum of a+b-2 products of smaller ones by ab-1 >= a+b-2.  So by
    induction every c <= 1, then c(a, b) <= (a+b-2) / (ab-1), and
    count(a, b) = (ab-1)! c(a, b) <= (a+b-2) (ab-2)!."""
    return (a + b - 2) * math.factorial(a * b - 2)


def _fewest_primes(bound: int, floor: int) -> list[int] | None:
    """The fewest primes below 2**26 whose product exceeds ``bound``: the
    largest ones, found by stepping down with ``is_prime`` and kept for the
    next call.  None if that takes a prime <= ``floor``."""
    from .arith import is_prime

    product, primes = 1, []
    while product <= bound:
        if len(primes) == len(_crt_primes):
            p = (_crt_primes[-1] if _crt_primes else _PRIME_CEILING) - 1
            while not is_prime(p):
                p -= 1
            _crt_primes.append(p)
        p = _crt_primes[len(primes)]
        if p <= floor:
            return None
        primes.append(p)
        product *= p
    return primes


def _count_from_residues(m: int, n: int, primes: list[int]) -> int:
    """count(m, n) from the scaled counts c(a, b) = count(a, b) / (ab-1)!,
    whose binomial weights cancel:

        (ab-1) c(a,b) = sum_{i<a} c(i,b) c(a-i,b) + sum_{j<b} c(a,j) c(a,b-j),

    with c(1, b) = c(a, 1) = 1.  The fill runs modulo all the primes at once,
    all above mn-1, one int64 lane per prime; both sums are symmetric, so
    each takes the terms below its middle twice and the middle term once.
    One CRT then gives c(m, n) modulo the primes' product, and the count is
    that times (mn-1)!, reduced once more.  The fill holds about 12 bytes per
    prime and cell of c: the int64 residues and the int32 inverses of ab-1."""
    import numpy as np

    q = np.array(primes, dtype=np.int64)
    lanes = np.arange(len(q))
    c = np.empty((m - 1, n + 1, len(q)), dtype=np.int64)  # c[a - 2, b]
    # the int32 inverses of 1..mn-1 fit in c's memory, which they use until
    # those of ab-1 are copied out and the fill starts
    inv = c.reshape(-1).view(np.int32)[:m * n * len(q)].reshape(m * n, len(q))
    inv[1] = 1
    for i in range(2, m * n):  # q = d i + r, so 1/i = -d/r
        d, r = np.divmod(q, i)
        inv[i] = (q - d) * inv[r, lanes] % q
    inverse = inv[np.arange(2, m + 1)[:, None] * np.arange(n + 1) - 1]  # 1/(ab-1)

    def twice_dot(x, y):  # 2 sum_j x[j] y[j] over the first axis, reduced
        total = np.einsum("j...,j...->...", x[:_DOT_BLOCK], y[:_DOT_BLOCK]) % q
        for s in range(_DOT_BLOCK, len(x), _DOT_BLOCK):
            total += np.einsum("j...,j...->...", x[s:s + _DOT_BLOCK], y[s:s + _DOT_BLOCK]) % q
        return 2 * total

    c[:, 1] = 1
    for a in range(2, m + 1):
        # the row first holds the sum over i < a, for every column at once;
        # c(1, b) = 1 is not stored, so its two terms are 2 c(a-1, b)
        row = c[a - 2]
        if a == 2:
            row[2:] = 1
        else:
            np.multiply(c[a - 3, 2:], 2, out=row[2:])
            rows, pairs = c[:a - 3, 2:], (a - 3) // 2  # i = 2 .. a-2
            if pairs:
                row[2:] += twice_dot(rows[:pairs], rows[::-1][:pairs])
            if a % 2 == 0:
                row[2:] += c[a // 2 - 2, 2:] ** 2 % q
        for b in range(2, n + 1):
            h = (b - 1) // 2
            value = twice_dot(row[1:h + 1], row[b - 1:b - h - 1:-1])
            value += row[b]
            if b % 2 == 0:
                value += row[b // 2] * row[b // 2]
            value %= q
            value *= inverse[a - 2, b]
            np.remainder(value, q, out=row[b])
    modulus = math.prod(primes)
    scaled = 0
    for r, p in zip(c[m - 2, n].tolist(), primes):
        rest = modulus // p
        scaled += r * pow(rest, -1, p) % p * rest
    return scaled * math.factorial(m * n - 1) % modulus


def chocolate2(n: int, table: ChocolateTable | None = None) -> int:
    """Break count for a 2 x n bar via the dedicated one-dimensional
    recursion B_n = (2n-2)! + sum_{i=1}^{n-1} C(2n-2, 2i-1) B_i B_{n-i},
    filled bottom-up; terms i and n-i are equal, so i < n/2 counts twice
    and the middle term once.  With r = 2n-2, C(r, k+2) = C(r, k)*(r-k)*
    (r-k-1) // ((k+1)*(k+2)), an exact division: the quotient is C(r, k+2).
    Must agree with chocolate_number(2, n); the two routes are kept
    independent so they can check each other."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if table is None:
        table = ChocolateTable()
    cached = table.memo.get((2, n))  # a warm read costs one lookup, not n
    if cached is not None:
        return cached
    values = [0, 1]  # values[j] = B_j
    for j in range(2, n + 1):
        v = table.memo.get((2, j))
        if v is None:
            r = 2 * j - 2
            v = math.factorial(r)
            weight = r  # C(r, k) with k = 2i - 1, then stepped to C(r, k + 2)
            for i in range(1, j // 2 + 1):
                term = weight * values[i] * values[j - i]
                v += term if 2 * i == j else 2 * term
                weight = weight * (r - 2 * i + 1) * (r - 2 * i) // (2 * i * (2 * i + 1))
            table.memo[(2, j)] = v
            table.computed += 1
        values.append(v)
    return values[n]


class SequenceKind(Enum):
    TRIANGLE_ROWS = "triangle_rows"
    DISTINCT_SORTED = "distinct_sorted"
    TWO_BY_N = "two_by_n"
    SQUARE = "square"


@dataclass(frozen=True)
class SequenceSpec:
    """Which derived sequence to generate and how far.

    ``bound`` is an index bound (row count / max index) for triangle_rows,
    two_by_n and square, and an inclusive value bound for distinct_sorted.
    """

    kind: SequenceKind
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError(f"bound must be positive, got {self.bound}")


def generate(spec: SequenceSpec, table: ChocolateTable | None = None) -> list[tuple]:
    """Generate one of the four derived sequences as (index-or-pair, value)
    entries in canonical order."""
    if table is None:
        table = ChocolateTable()
    if spec.kind is SequenceKind.TRIANGLE_ROWS:
        out = []
        for r in range(1, spec.bound + 1):
            for i in range(1, r + 1):
                out.append(((i, r + 1 - i), chocolate_number(i, r + 1 - i, table)))
        return out
    if spec.kind is SequenceKind.TWO_BY_N:
        return [(n, chocolate2(n, table)) for n in range(1, spec.bound + 1)]
    if spec.kind is SequenceKind.SQUARE:
        return [(n, chocolate_number(n, n, table)) for n in range(1, spec.bound + 1)]
    if spec.kind is SequenceKind.DISTINCT_SORTED:
        return [(i, v) for i, v in enumerate(_distinct_values(spec.bound, table), start=1)]
    raise ValueError(f"unknown sequence kind: {spec.kind}")


def _distinct_values(bound: int, table: ChocolateTable) -> list[int]:
    """Every distinct break count <= bound, sorted increasing.

    Rows m = 1, 2, ... are scanned from n = m upward (values with n < m are
    transposes of earlier rows); a row stops at its first value above the
    bound and the whole scan stops at the first m with the m x m value above
    the bound.  Completeness of that frontier rests on rows being
    nondecreasing in n, which is asserted at every extension step, plus
    nondecreasing diagonal values across rows; either failing raises
    SequenceFrontierError rather than emitting a possibly incomplete list.
    """
    values: set[int] = set()
    m = 1
    prev_diag = None
    while True:
        diag = chocolate_number(m, m, table)
        if prev_diag is not None and diag < prev_diag:
            raise SequenceFrontierError(
                f"diagonal decreased at m={m}: {diag} < {prev_diag}; "
                "frontier cannot certify completeness"
            )
        prev_diag = diag
        if diag > bound:
            break
        prev = None
        n = m
        while True:
            v = chocolate_number(m, n, table)
            if prev is not None and v < prev:
                raise SequenceFrontierError(
                    f"row m={m} not nondecreasing at n={n}: {v} < {prev}; "
                    "frontier cannot certify completeness"
                )
            prev = v
            if v > bound:
                break
            values.add(v)
            n += 1
        m += 1
    return sorted(values)


def save_cache(table: ChocolateTable, path) -> None:
    """Write the table as versioned plain text: header line, then one
    'm n value' line per entry in decimal (diffable and language-neutral).

    The text goes to a temporary file next to ``path`` that is then renamed
    over it, so a write that fails part-way leaves any previous cache intact.
    """
    path = Path(path)
    with unlimited_int_digits():
        lines = [f"{m} {n} {v}" for (m, n), v in sorted(table.memo.items())]
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join([CACHE_HEADER, *lines]) + "\n", encoding="ascii")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _ascii_line(data: bytes, lineno: int) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"line {lineno}: {exc}") from None


def load_cache(path) -> ChocolateTable:
    """Read a cache file back into a fresh table.

    The header must match exactly; malformed lines, non-ASCII bytes
    included, are reported with their line number.  Keys are re-normalized
    on load so hand-edited files with transposed entries still land in
    canonical form; two lines that give one normalized key different values
    are rejected.
    """
    table = ChocolateTable()
    with open(path, "rb") as fh, unlimited_int_digits():
        header = _ascii_line(fh.readline(), 1).rstrip("\r\n")
        if header != CACHE_HEADER:
            raise CacheFormatError(
                f"unsupported cache header {header!r} (expected {CACHE_HEADER!r})"
            )
        for lineno, data in enumerate(fh, start=2):
            raw = _ascii_line(data, lineno)
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise CacheFormatError(
                    f"line {lineno}: expected 'm n value', got {raw.rstrip()!r}"
                )
            try:
                m, n, v = (int(t) for t in parts)
            except ValueError:
                raise CacheFormatError(
                    f"line {lineno}: non-integer field in {raw.rstrip()!r}"
                ) from None
            if m < 1 or n < 1 or v < 1:
                raise CacheFormatError(f"line {lineno}: fields must be positive")
            if table.memo.setdefault((min(m, n), max(m, n)), v) != v:
                raise CacheFormatError(f"line {lineno}: {m} x {n} conflicts with an earlier entry")
    return table

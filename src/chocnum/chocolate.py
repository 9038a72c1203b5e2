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
import operator
import os
import sys
from collections import namedtuple
from enum import Enum
from pathlib import Path

from . import load_fill, unlimited_int_digits

CACHE_HEADER = "chocnum cache v1"


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
    computation.  ``chocolate2`` keeps its odd parts and odd(k) here, so a
    table grown one n at a time extends them instead of rebuilding them.
    """

    def __init__(self) -> None:
        self.memo: dict[tuple[int, int], int] = {}
        self.computed = 0
        self._odd_parts = [0, 1]  # h_j = B_j >> e_j of chocolate2, j < len
        self._odd = [0]  # odd(k) = k >> v2(k), k < len

    def __len__(self) -> int:
        return len(self.memo)


def chocolate_number(m: int, n: int, table: ChocolateTable | None = None) -> int:
    """Number of ways to fully break an m x n bar, exactly.

    A 1 x k bar has (k-1)! break orders.  Otherwise, summing over the first
    break: a horizontal cut after row i leaves an i x n and an (m-i) x n bar
    whose remaining i*n-1 and (m-i)*n-1 moves interleave in C(mn-2, in-1)
    ways; vertical cuts contribute symmetrically.

    A fresh count of a large bar comes from ``_route``, offered the one
    cell m x n, which stores only that entry and reads the rule's process
    state itself; otherwise the bars the sums reach, a x b with
    a <= min(b, m) and 2 <= b <= n (only 1 x n itself when m = 1), are
    one ``_fill``.
    """
    m, n = operator.index(m), operator.index(n)
    if m < 1 or n < 1:
        raise ValueError(f"bar dimensions must be positive, got {m} x {n}")
    if table is None:
        table = ChocolateTable()
    m, n = min(m, n), max(m, n)
    if (m, n) not in table.memo and not _route(table, m, n, [(m, n)]):
        _fill(table, ((b, min(b, m)) for b in range(n if m == 1 else 2, n + 1)))
    return table.memo[(m, n)]


def _fill(table: ChocolateTable, columns) -> None:
    """Count on big integers every cell a x b, 1 <= a <= last, of each
    column (b, last) of ``columns`` that the memo lacks, and store it: the
    columns in the order given, which callers make the order of b, and
    each from a = 1 up.  No recursion: every term of a sum must already be
    in the memo, from before or from an earlier cell, so the cells must be
    closed under the bars their sums read; a term that is missing raises
    ValueError, and the memo keeps the cells finished before it.

    Cuts i and cuts-i give equal terms, as C(ab-2, i side-1) =
    C(ab-2, (cuts-i) side-1), so each sum takes the cuts i < cuts/2 twice
    and the middle cut, if any, once.  Along a sum, with N = ab-2,
    C(N, k+side) = C(N, k)*perm(N-k, side) // perm(k+side, side): the
    quotient is a binomial, so the division is exact."""
    memo = table.memo

    def count(x: int, y: int) -> int:
        return memo[(x, y) if x <= y else (y, x)]

    try:
        for b, last in columns:
            for a in range(1, last + 1):
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
    except KeyError as exc:
        raise ValueError(f"{a} x {b} reads {exc.args[0]}, which no earlier cell filled") from None


def _route(table: ChocolateTable, m: int, n: int, cells: list[tuple[int, int]]) -> bool:
    """Store the counts of ``cells`` from one residue fill of the m x n bar
    (m <= n), ``fill.residue_counts``, in the memo, and count them in
    ``computed``; False, with nothing stored, when the big-integer fill
    should run instead, as it does for a bar the fill has no plan for.

    The route needs an empty memo, so a warm table keeps reusing the
    big-integer memo, and a bar that ``_routes`` takes in the state of the
    process: warm once numpy is imported, whose import is the cost the cold
    side prices, and a sweep when ``cells`` holds more than the one cell of
    a fresh count.  Both are checked before ``fill``, and numpy with it, is
    loaded by ``chocnum.load_fill``.  When the loader refuses a caller too
    deep in its stack, or the import fails, numpy missing or ``fill``
    nesting past the limit, the count is left to the big-integer fill.
    """
    if table.memo or not _routes(m, n, "numpy" in sys.modules, len(cells) > 1):
        return False
    try:
        fill = load_fill()
    except (ImportError, RecursionError):
        return False
    if not (counts := fill.residue_counts(m, n, cells)):
        return False
    table.memo.update(zip(cells, counts))
    table.computed += len(cells)
    return True


def _routes(m: int, n: int, warm: bool, sweep: bool = False) -> bool:
    """Whether a fresh m x n bar (m <= n) is worth the residue route, which
    pays only for large values: it needs m >= 2, and then time alone
    decides, by one clause per process state (README "The route rule").

    ``warm`` means numpy is imported.  Then the route takes a bar once
    (mn-1) * E.bit_length() >= 180 m.  E = m(n-1) + n(m-1) bounds the
    breaks one state offers, since every available break cuts interior
    unit edges that no other available break cuts.  A cold process pays
    numpy's import first, so there the route takes a bar once
    n m**0.7 >= 490, in integers n**10 m**7 >= 490**10.  Both constants
    are fitted by ``tools/crossover.py`` (``--cold`` for the cold side).

    ``sweep`` marks a sweep; a 2 x n one has its own edges, 2 x 400 cold
    and 2 x 170 warm, as its big-integer side is ``chocolate2``, not the
    fill.  A square sweep crosses where a fresh square does, so it takes
    the rule above."""
    if sweep and m == 2:
        return n >= (170 if warm else 400)
    breaks = m * (n - 1) + n * (m - 1)
    score = (m * n - 1) * breaks.bit_length()
    return m >= 2 and (score >= 180 * m if warm else n**10 * m**7 >= 490**10)


def chocolate2(n: int, table: ChocolateTable | None = None) -> int:
    """Break count for a 2 x n bar via the dedicated one-dimensional
    recursion B_n = (2n-2)! + sum_{i=1}^{n-1} C(2n-2, 2i-1) B_i B_{n-i},
    filled bottom-up; terms i and n-i are equal, so i < n/2 counts twice
    and the middle term once.  Must agree with chocolate_number(2, n); the
    two routes are kept independent so they can check each other.

    The sums run on odd parts: with e_j = v2((2j-2)!) = 2j-2-s2(j-1), s2 the
    binary digit sum, v2((2i-1)!) = e_i as 2i-1 is odd, so v2(C(2j-2, 2i-1))
    = e_j-e_i-e_{j-i} and h_j = B_j/2^e_j = odd((2j-2)!) + sum odd(C) h_i h_{j-i}.
    The odd weights step as C(r, k+2) = C(r, k)(r-k)(r-k-1) // ((k+1)(k+2))
    does at r = 2j-2, k = 2i-1, with the 2 of r-k-1 and of k+1 cancelled, so
    the division stays exact.  The memo keeps B_j = h_j << e_j, and the
    table keeps the h_j and odd(k) built so far: a call reads the memo only
    from the first j it has no h_j for, so a table grown one n at a time
    does work in proportion to its new indices."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if table is None:
        table = ChocolateTable()
    memo = table.memo
    cached = memo.get((2, n))  # a warm read costs one lookup, not n
    if cached is not None:
        return cached
    h, odd = table._odd_parts, table._odd  # h[j] = B_j >> e_j, odd[k] = odd(k)
    odd.extend(k // (k & -k) for k in range(len(odd), n))
    fact = None  # odd((2j-2)!) of the last j; None at the first j and after a memo hit
    for j in range(len(h), n + 1):
        e = 2 * j - 2 - (j - 1).bit_count()
        v = memo.get((2, j))
        if v is not None:
            h.append(v >> e)
            fact = None
            continue
        fact = math.factorial(2 * j - 2) >> e if fact is None else fact * (2 * j - 3) * odd[j - 1]
        weight = odd[j - 1]  # odd(C(2j-2, 2i-1)) at i = 1, then stepped to i + 1
        twice = 0
        for i in range(1, (j + 1) // 2):
            twice += weight * h[i] * h[j - i]
            weight = weight * (2 * j - 2 * i - 1) * odd[j - 1 - i] // ((2 * i + 1) * odd[i])
        v = fact + 2 * twice
        if j % 2 == 0:
            v += weight * h[j // 2] ** 2
        memo[(2, j)] = v << e
        h.append(v)
        table.computed += 1
    return h[n] << 2 * n - 2 - (n - 1).bit_count()


class SequenceKind(Enum):
    """The derived sequences; each value is its name in ``chocnum gen --seq``."""

    TABLE = "table"
    TRIANGLE_ROWS = "triangle"
    TWO_BY_N = "b"
    SQUARE = "square"
    DISTINCT_SORTED = "distinct"


class SequenceSpec(namedtuple("SequenceSpec", ("kind", "bound"))):
    """Which derived sequence to generate and how far.

    ``bound`` is an index bound (row count / max index / side) for
    TRIANGLE_ROWS, TWO_BY_N, SQUARE and TABLE, and an inclusive value bound
    for DISTINCT_SORTED.

    An immutable value whose ``bound`` is a positive int (``operator.index``
    of the argument), hashed by its two fields and equal only to a spec
    with equal fields, never to a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, kind: SequenceKind, bound: int):
        bound = operator.index(bound)
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        return super().__new__(cls, kind, bound)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks the bound too

    def __eq__(self, other):
        return isinstance(other, SequenceSpec) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def generate(spec: SequenceSpec, table: ChocolateTable | None = None) -> list[tuple]:
    """Generate one of the derived sequences as (index-or-pair, value)
    entries in canonical order: the m x n table row by row, m, n <= bound,
    and the triangle by its rows r = m + n - 1 <= bound, m increasing.

    The table and the triangle are one ``_fill`` of the bars a x b, a <= b,
    that they read, b <= bound, and a + b <= bound + 1 for the triangle.
    A square or 2 x n sweep first offers ``_route`` its largest bar, with
    the cells (k, k) or (2, k), 2 <= k <= bound, which make it a sweep to
    the rule, so the 2 x n one takes its own edges; then one ``_fill`` of
    the columns (b, b), or one ``chocolate2``, runs up to the last index
    whose entry the memo lacks, not to the bound, so a warm memo fills
    nothing it holds.  Every entry is then read from the memo."""
    if table is None:
        table = ChocolateTable()
    memo, k = table.memo, spec.bound
    if spec.kind in (SequenceKind.TABLE, SequenceKind.TRIANGLE_ROWS):
        if spec.kind is SequenceKind.TABLE:
            _fill(table, ((b, b) for b in range(1, k + 1)))
            pairs = [(m, n) for m in range(1, k + 1) for n in range(1, k + 1)]
        else:
            _fill(table, ((b, min(b, k + 1 - b)) for b in range(1, k + 1)))
            pairs = [(i, r + 1 - i) for r in range(1, k + 1) for i in range(1, r + 1)]
        return [((m, n), memo[(m, n) if m <= n else (n, m)]) for m, n in pairs]
    if spec.kind in (SequenceKind.SQUARE, SequenceKind.TWO_BY_N):
        square = spec.kind is SequenceKind.SQUARE
        cells = [(b if square else 2, b) for b in range(2, k + 1)]
        _route(table, k if square else 2, k, cells)  # False for 2 x 1, as for any small bar
        last = max((b for a, b in cells if (a, b) not in memo), default=1)
        if square:
            _fill(table, ((b, b) for b in range(1, last + 1)))  # and 1 x 1, if missing
        else:
            chocolate2(last, table)  # chocolate2(1) stores nothing
        return [(1, memo[(1, 1)] if square else 1)] + [(b, memo[(a, b)]) for a, b in cells]
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

    Row m extends by one ``_fill`` of column n, rows 1..m, not one
    ``chocolate_number`` per bar, which would walk the rectangle again:
    the m x m count filled every bar up to m x m, and each row a < m
    reached past n - 1, as count(a, k) <= count(m, k); a bar that were
    missing would make ``_fill`` raise ValueError, not drop a value.
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
        values.add(diag)
        prev, n = diag, m + 1
        while True:
            _fill(table, [(n, m)])  # column n of rows 1..m
            v = table.memo[(m, n)]
            if v < prev:
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

"""The residue route of the exact counts: count(a, b) of the cells of an
m x n bar rebuilt from the scaled recursion modulo primes below 2**26,
filled in int64 numpy lanes one chunk of primes at a time, then one CRT
per cell.  ``chocolate`` decides when the route runs and imports this
module only then, so small exact counts, the CLI and the scans neither
compile it nor load numpy for it.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .arith import primes_between

# The fill works modulo primes below 2**26: a product of two residues is
# below 2**52, so an int64 dot of at most _DOT_BLOCK products stays below
# 2**63, and so does twice a reduced residue plus _SUM_BLOCK products, plus
# one more product.  _plan states the memory ceiling.
_PRIME_CEILING = 1 << 26
_DOT_BLOCK = (1 << 11) - 1
_SUM_BLOCK = (1 << 10) - 1
_FILL_BYTES = 2 << 20
_FILL_RESERVE = 32 << 10
_crt_primes: list[int] = []  # primes below _PRIME_CEILING, largest first


def residue_counts(m: int, n: int, cells: list[tuple[int, int]]) -> list[int] | None:
    """count(a, b) of each cell (a, b), 2 <= a <= b, of the m x n bar, or
    None when the bar has no plan (``_plan``), from the scaled counts
    c(a, b) = count(a, b) / (ab-1)!, whose binomial weights cancel:

        (ab-1) c(a,b) = sum_{i<a} c(i,b) c(a-i,b) + sum_{j<b} c(a,j) c(a,b-j),

    with c(1, b) = c(a, 1) = 1.  ``fill_chunk`` fills c modulo one chunk
    of the plan's primes at a time, one int64 lane per prime, all above
    mn-1.  Each cell folds in its residues prime by prime (Garner), with
    one ``pow(modulus, -1, p)`` per prime for all cells, until the product
    of the primes so far exceeds its ``_count_bound``: the leading run of
    the primes that ``_fewest_primes`` gives it, when the cells come in
    order of their bounds (any order is exact).  Its count is then c(a, b)
    times (ab-1)!, reduced once more.  The fold keeps one running value per
    cell and reads the residues of one prime at a time from the chunk's
    block."""
    if not (plan := _plan(m, n)):
        return None
    primes, per_chunk = plan
    counts, modulus, done, top, moves = [0] * len(cells), 1, 0, 0, 1  # moves = top!
    for s in range(0, len(primes), per_chunk):
        chunk = primes[s:s + per_chunk]
        f, slots = fill_chunk(m, n, chunk, cells)
        for j, p in enumerate(chunk):
            inverse = pow(modulus, -1, p)
            for i, r in enumerate(f[slots[done:], j].tolist(), start=done):
                counts[i] += (r - counts[i] % p) * inverse % p * modulus
            modulus *= p
            while done < len(cells):
                a, b = cells[done]
                if top != a * b - 2:  # (ab-2)!, stepped up from the last cell's
                    moves = (moves * math.prod(range(top + 1, a * b - 1)) if 0 < top < a * b - 2
                             else math.factorial(a * b - 2))
                    top = a * b - 2
                if modulus <= (a + b - 2) * moves:  # _count_bound(a, b)
                    break
                counts[done] = counts[done] * moves * (a * b - 1) % modulus
                done += 1
        del f  # the next chunk's block takes its place
    return counts


def _plan(m: int, n: int) -> tuple[list[int], int] | None:
    """(primes, primes per chunk) of the m x n fill: the fewest primes
    whose product exceeds ``_count_bound``, all above mn-1, in the fewest
    chunks that fit, all of one size but the last; None if there are no
    such primes or one prime does not fit.

    One chunk holds at most ``_FILL_BYTES``: one block of ``_FILL_BYTES -
    _FILL_RESERVE`` bytes for all its arrays, whose use ``_fill_bytes``
    counts from the plan alone, and the reserve for what it holds besides
    (the running CRT, the staged inverses, numpy's iterators); a sweep's
    cells and running values, one of each per cell, come on top.  numpy
    may add a buffer of up to 64 KiB for a broadcast operand."""
    fixed = _fill_bytes(m, n, 0)
    most = (_FILL_BYTES - fixed) // (_fill_bytes(m, n, 1) - fixed)
    primes = most > 0 and _fewest_primes(_count_bound(m, n), m * n - 1)
    if not primes:
        return None
    chunks = -(-len(primes) // most)
    return primes, -(-len(primes) // chunks)


def _fill_bytes(m: int, n: int, k: int) -> int:
    """Bytes one chunk of k primes of the m x n fill needs: the reserve,
    and in the block the ``_layout`` lanes of each prime and once the
    values ab-1 as int32, two to a slot."""
    lanes, groups, width, _ = _layout(m, n)
    return _FILL_RESERVE + 8 * (k * lanes + -(-groups * width // 2))


def _layout(m: int, n: int) -> tuple[int, int, int, int]:
    """(lanes, groups, width, header): the int64 slots per prime of the
    m x n fill.  The header comes first, then the cells a <= b of rows
    m down to 2, then the spare slots, the prime and the running value.
    The cells go in G groups of W slots for the batch inversion, the
    padding at the end of the header, the G group totals at its start.
    Then the header holds the prefix of row m, and from m = 3 the column
    sums: n slots, which the prefix of no row overlaps.  The spare slots
    hold a row's column products, from a = 4, then its saved prefix."""
    cells = (m - 1) * (2 * n - m) // 2
    groups = math.isqrt(cells)
    width = -(-cells // groups)
    header = max(1 if m == 2 else n, groups * width - cells + groups)
    return header + cells + max(m - 2, (n - 3) * (m >= 4)) + 2, groups, width, header


def _count_bound(a: int, b: int) -> int:
    """(a+b-2) (ab-2)!, an upper bound on count(a, b) for ab >= 2, equal at
    2 x 2.  The scaled counts have c(1, b) = c(a, 1) = 1, and the scaled
    recursion (``residue_counts``) divides a sum of a+b-2 products of
    smaller ones by ab-1 >= a+b-2.  So by induction every c <= 1, then
    c(a, b) <= (a+b-2) / (ab-1), and count(a, b) = (ab-1)! c(a, b) <=
    (a+b-2) (ab-2)!."""
    return (a + b - 2) * math.factorial(a * b - 2)


def _fewest_primes(bound: int, floor: int) -> list[int] | None:
    """The fewest primes below 2**26 whose product exceeds ``bound``: the
    largest ones, sieved in windows and kept for the next call.  None if
    that takes a prime <= ``floor``, or more odd primes than there are.
    The first (bits - 1) // 26 of them, for a bound of that bit length,
    cannot exceed it and multiply at once in a balanced tree, then single
    primes, so the product costs no quadratic walk."""
    count = (bound.bit_length() - 1) // 26
    if not _sieve_crt_primes(count):
        return None
    product = _product(_crt_primes[:count])
    while product <= bound:
        if not _sieve_crt_primes(count + 1):
            return None
        product *= _crt_primes[count]
        count += 1
    if _crt_primes[count - 1] <= floor:
        return None
    return _crt_primes[:count]


def _sieve_crt_primes(count: int) -> bool:
    """Whether ``_crt_primes`` holds at least ``count`` primes, once the
    windows of 2**16 below its last one are sieved as far as that needs."""
    while len(_crt_primes) < count:
        top = _crt_primes[-1] if _crt_primes else _PRIME_CEILING
        if top <= 3:
            return False
        _crt_primes.extend(reversed(primes_between(max(top - (1 << 16), 3), top)))
    return True


def _product(factors: list[int]) -> int:
    """The product of ``factors``, pairwise by levels, so that factors of
    equal size meet and the big multiplications use Karatsuba."""
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def fill_chunk(m: int, n: int, primes: list[int],
               cells: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """c(a, b) modulo each prime for the cells (a, b), 2 <= a <= b, of one
    chunk of the m x n fill, with the slots of ``_layout`` in one block of
    the same size for every chunk and bar, so the allocator hands a freed
    block back instead of growing the heap.  Returns the residues of every
    slot, one row each, as a view of the block, which lives as long as the
    view, and the row of each cell.

    Each cell's slot first holds 1/(ab-1), from one batch inversion: the
    slots split into W steps of G, one per group; a group's prefix products
    of ab-1 go into its slots, all groups at once; the group totals take
    one ``pow(x, -1, p)`` per prime through their own prefix products; and
    a backward pass turns each prefix into the inverse of its own ab-1.

    Row a holds columns a..n and reads c(a, j) with j < a as c(j, a).  The
    a-1 slots before it belong to the rows above it or to the header; they
    are saved, hold c(a, 1..a-1) while row a fills, and are restored: the
    row then reads as columns 1..n, and the sum over j is one dot of that
    view with itself reversed; past b = 64, of its first half, in blocks of
    ``_DOT_BLOCK`` products, doubled, plus c(a, b/2)^2 for even b.  The sum
    over i, 2 c(a-1, b) + 2 sum_{1<i<a/2} c(i,b) c(a-i,b) + c(a/2,b)^2 for
    even a, is built first for the whole row in the header, reduced every
    ``_SUM_BLOCK`` products."""
    lanes, groups, width, header = _layout(m, n)
    start, end = {}, header  # start[a]: the slot of c(a, a)
    for a in range(m, 1, -1):
        start[a], end = end, end + n - a + 1
    block = np.empty((_FILL_BYTES - _FILL_RESERVE) // 8, dtype=np.int64)
    slots = block[:lanes * len(primes)].reshape(lanes, len(primes))
    f, scratch, q, value = slots[:end], slots[end:-2], slots[-2], slots[-1]
    q[:] = primes

    pad = groups * width - (end - header)
    values = block[slots.size:].view(np.int32)[:groups * width]  # ab-1 in slot order
    values[:] = 1
    for a in range(2, m + 1):
        lo = start[a] - header + pad
        values[lo:lo + n - a + 1] = a * np.arange(a, n + 1) - 1
    z = f[header - pad:].reshape(width, groups, len(q))  # z[t, g]: step t of group g
    _invert(z, values.reshape(width, groups, 1), f[:groups], value, q)

    def columns(i, a):  # c(i, a..n)
        return f[start[i] + a - i:start[i] + n - i + 1]

    for a in range(2, m + 1):
        if a > 2:
            col, product = f[:n - a + 1], scratch[:n - a + 1]
            np.copyto(col, columns(a - 1, a))
            for t, i in enumerate(range(2, (a + 1) // 2), start=1):
                np.multiply(columns(i, a), columns(a - i, a), out=product)
                col += product
                if t % _SUM_BLOCK == 0:
                    col %= q
            col <<= 1
            if a % 2 == 0:
                np.multiply(columns(a // 2, a), columns(a // 2, a), out=product)
                col += product
            col %= q
        row = f[start[a] - a + 1:start[a] + n - a + 1]  # row[j - 1] = c(a, j)
        saved = scratch[:a - 1]
        if a < m:
            saved[:] = row[:a - 1]
        row[0] = 1
        if a > 2:  # c(j, a): rows 2..a-1 lie after out, so take writes to it uncopied
            rows = f[start[a - 1]:]
            prefix = [start[j] + a - j - start[a - 1] for j in range(2, a)]
            np.take(rows, prefix, axis=0, out=row[1:a - 1], mode="clip")
        rev = row[::-1]  # rev[n - b + 1 + i] = c(a, b - 1 - i)
        for b, cell, total in zip(range(a, n + 1), row[a - 1:], col if a > 2 else repeat(1)):
            if b <= 64:  # every pair j < b in one dot of at most 63 products
                np.vecdot(row[:b - 1], rev[n - b + 1:n], axis=0, out=value)
            else:  # the pairs j < b/2, doubled, in blocks of _DOT_BLOCK
                pairs = (b - 1) // 2
                x, y = row[:pairs], rev[n - b + 1:n - b + 1 + pairs]
                np.vecdot(x[:_DOT_BLOCK], y[:_DOT_BLOCK], axis=0, out=value)
                for s in range(_DOT_BLOCK, pairs, _DOT_BLOCK):
                    value %= q
                    value += np.vecdot(x[s:s + _DOT_BLOCK], y[s:s + _DOT_BLOCK], axis=0)
                value %= q
                value <<= 1
                if b % 2 == 0:
                    value += row[b // 2 - 1] ** 2
            value += total
            value %= q
            value *= cell
            np.remainder(value, q, out=cell)
        if a < m:
            row[:a - 1] = saved
    return f, np.array([start[a] + b - a for a, b in cells])


def _invert(z, values, totals, inverse, q) -> None:
    """z[t, g] = 1 / values[t, g] modulo each lane's prime q: the batch
    inversion of ``fill_chunk``, with the G lanes ``totals`` and the lane
    ``inverse`` as scratch."""
    z[0] = values[0]
    for t in range(1, len(z)):
        np.multiply(z[t - 1], values[t], out=z[t])
        np.remainder(z[t], q, out=z[t])
    totals[:] = z[-1]  # the group totals, their prefix products, their inverses
    for g in range(1, len(totals)):
        totals[g] *= totals[g - 1]
        totals[g] %= q
    inverse[:] = np.fromiter((pow(int(x), -1, int(p)) for x, p in zip(totals[-1], q)),
                             dtype=np.int64, count=len(q))
    for g in range(len(totals) - 1, 0, -1):
        np.multiply(inverse, totals[g - 1], out=totals[g])
        np.remainder(totals[g], q, out=totals[g])
        inverse *= z[-1, g]
        inverse %= q
    totals[0] = inverse
    for t in range(len(z) - 1, 0, -1):  # totals: the inverses of the prefixes through t
        np.multiply(totals, z[t - 1], out=z[t])
        np.remainder(z[t], q, out=z[t])
        totals *= values[t]
        totals %= q
    z[0] = totals

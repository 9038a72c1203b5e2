"""Every int64 numpy kernel of both residue routes.

The residue route of the exact counts: count(a, b) of the cells of an
m x n bar rebuilt from the scaled recursion modulo primes below 2**26,
filled in int64 numpy lanes one chunk of primes at a time, then one CRT
per cell (``residue_counts``).

The residue scans of the 2 x n counts: the scaled counts mod a rough
modulus (``scaled_dot``, ``scaled_limbs``) and Pascal rows mod a smooth
one (``pascal_residues``), which ``modular.chocolate2_mod`` plans, each on
the arithmetic of the int64 class that ``modular.residue_kernel`` names.

``chocnum.load_fill`` is the one way in, and it checks the recursion
headroom before numpy's first import.  ``chocolate`` loads this module
only when its route runs and ``modular`` only when a 2 x n residue scan
does, so small exact counts, the CLI, factorizations, series checks and
period detection neither compile it nor load numpy.
"""

from __future__ import annotations

import math
import operator
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
_INT64_MAX = 2**63 - 1  # the caps of pascal_residues


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


def scaled_dot(n_max: int, m: int) -> list[int]:
    """The scaled counts c_1..c_n_max mod m, each step one int64 dot of
    h < n_max reduced residues, which stays below h (m-1)^2 < 2^63 under
    the ``"int64-dot"`` precondition n_max (m-1)^2 < 2^63."""
    c = np.zeros(n_max + 1, dtype=np.int64)  # c[n] = B_n / (2n-1)! mod m
    c[1] = 1
    for n in range(2, n_max + 1):
        h = (n - 1) // 2  # pairs (j, n-j) with j < n/2
        s = 1 + 2 * int(np.dot(c[1 : h + 1], c[n - 1 : n - h - 1 : -1]))
        if n % 2 == 0:
            s += int(c[n // 2]) ** 2
        c[n] = s % m * pow(2 * n - 1, -1, m) % m
    return c[1:].tolist()


def scaled_limbs(n_max: int, m: int) -> list[int]:
    """The scaled counts c_1..c_n_max mod any m.  Each c_n is held as L
    limbs of w = ``_limb_width(n_max)`` bits in one L x (n_max+1) array, and
    the sum of step n is one int64 inner product of its columns 1..h with
    its columns n-1..n-h, read reversed as a view.  Each of the L^2 entries
    is below h 2^(2w) <= 2^62, and one Python sum of the entries, shifted
    by their limbs' weights, gives the exact sum."""
    w = _limb_width(n_max)
    shifts = [w * k for k in range(-(-(m - 1).bit_length() // w))]  # limb weights
    pairs = [a + b for a in shifts for b in shifts]  # weights of the L^2 limb pairs
    mask = (1 << w) - 1
    c = np.zeros((len(shifts), n_max + 1), dtype=np.int64)  # c[k, n]: limb k of c_n
    values = [0, 1]  # values[n] = c_n mod m
    c[0, 1] = 1
    for n in range(2, n_max + 1):
        h = (n - 1) // 2  # pairs (j, n-j) with j < n/2
        products = np.inner(c[:, 1 : h + 1], c[:, n - 1 : n - h - 1 : -1]).ravel().tolist()
        s = 1 + 2 * sum(map(operator.lshift, products, pairs))
        if n % 2 == 0:
            s += values[n // 2] ** 2
        value = s % m * pow(2 * n - 1, -1, m) % m
        values.append(value)
        c[:, n] = [value >> k & mask for k in shifts]
    return values[1:]


def _limb_width(n_max: int) -> int:
    """Bits per limb w at n_max: the widest with h_max 2^(2w) < 2^62, where
    h_max = (n_max-1)//2 is the most terms of one dot (when h_max >= 1)."""
    return (62 - ((n_max - 1) // 2).bit_length()) // 2


def pascal_residues(n_max: int, m: int, kernel: str) -> list[int]:
    """B_1..B_n_max mod m on half Pascal rows (see
    ``modular.chocolate2_mod``), on the arithmetic of ``kernel``, the class
    ``residue_kernel(n_max, m)``.  The row steps and the products go into
    buffers allocated once; a reversed copy of the residues makes both
    factors of the products contiguous.

    Under ``"int64-dot"`` a bound on the row entries starts at m-1 and grows
    4x per step.  With LIM = 2^63 - 1 and h_max = (n_max-1)//2, the row is
    reduced once the bound passes min(LIM // 4, LIM // (h_max (m-1))), so
    the next step and a dot with reduced products stay in int64, and the
    products only while it exceeds LIM // (h_max (m-1)^2).  Otherwise both
    caps are 0, so the row is reduced every step.

    Stop: after step n, fact is (2n)! mod m and last the last index with a
    nonzero residue.  Once B_n = 0, n >= 2 last and m divides (2n)!, the
    zeros cover floor((n+2)/2)..n and the zero-tail lemma of
    ``chocnum.modular`` holds at n + 1, so every later residue is the 0
    already in ``out``.  At odd n the window alone gives m | (2n-2)!, since
    every product of the recursion for B_n has an index in it and so
    B_n = (2n-2)! mod m; at even n that is not proved, and the stop checks
    both."""
    dtype = object if kernel == "object" else np.int64

    def reduce(x):
        # x mod m, in place; for int64, floor division by a scalar is much
        # cheaper than numpy's remainder, and x - (x // m) * m is exact
        if dtype is object:
            x %= m
        else:
            x -= x // m * m
        return x

    top = n_max + 1
    out = np.zeros(top + 1, dtype=dtype)  # out[n] = B_n mod m
    rev = np.zeros(top + 1, dtype=dtype)  # rev[top - n] = out[n]
    out[1] = rev[top - 1] = 1 % m
    # row[k + 2] = C(r, k) mod m for k = 0..r/2 at r = 2n-2; two leading
    # zeros stand for C(r, -2) and C(r, -1)
    row = np.zeros(n_max + 3, dtype=dtype)
    row[2] = 1 % m
    odd = np.zeros(n_max + 2, dtype=dtype)  # odd[j] = C(r+1, j-1)
    prods = np.zeros(max(1, (n_max - 1) // 2), dtype=dtype)

    # row entries stay <= bound, reduced past row_cap (see above)
    bound, row_cap, prod_cap = m - 1, 0, 0
    if kernel == "int64-dot":
        hm = max(1, (n_max - 1) // 2) * (m - 1)  # most dot terms, times m-1
        row_cap = min(_INT64_MAX // 4, _INT64_MAX // hm)
        prod_cap = _INT64_MAX // (hm * (m - 1))
    fact = 2 % m  # (2n-2)! mod m at step n, maintained incrementally
    last = 1  # the last n with B_n not 0 mod m
    for n in range(2, n_max + 1):
        # row r = 2n-4 to r + 2 = 2n-2; C(r, n-1) = C(r, n-3) by symmetry
        row[n + 1] = row[n - 1]
        # two Pascal steps: odd[j] = C(r+1, j-1), then C(r+2, k) = odd[k+1] + odd[k]
        np.add(row[1 : n + 2], row[: n + 1], out=odd[: n + 1])
        np.add(odd[1 : n + 1], odd[:n], out=row[2 : n + 2])
        bound *= 4
        if bound > row_cap:
            reduce(row[2 : n + 2])
            bound = m - 1
        h = (n - 1) // 2  # pairs (i, n-i) with i < n/2
        weights = row[3 : 2 * h + 2 : 2]  # C(2n-2, 2i-1), i = 1..h
        p = np.multiply(out[1 : h + 1], rev[top - n + 1 : top - n + h + 1], out=prods[:h])
        if kernel == "int64":
            s = int(reduce(np.multiply(reduce(p), weights, out=p)).sum())
        elif kernel == "int64-dot":
            s = int(np.dot(weights, reduce(p) if bound > prod_cap else p))
        else:
            s = int(np.dot(weights, p))
        s = 2 * s % m
        if n % 2 == 0:
            b = int(out[n // 2])
            s += int(row[n + 1]) * (b * b % m)  # C(2n-2, n-1) B_{n/2}^2
        value = (fact + s) % m
        out[n] = rev[top - n] = value
        fact = fact * (2 * n - 1) * (2 * n) % m  # the next step's (2n-2)!
        if value:
            last = n
        elif not fact and n >= 2 * last:  # the lemma needs m | (2n)! beside the zeros
            break
    return out[1:top].tolist()

"""The residue fill behind ``chocolate._count_from_residues``: c(a, b) of
the cells of an m x n bar modulo one chunk of primes, in int64 numpy
lanes.  ``chocolate`` imports this module only when the residue route
runs, so small exact counts, the CLI and the scans neither compile it nor
load numpy for it; the contract (recursion, layout, bounds and memory
ceiling) lives in ``chocolate``.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np


def fill_chunk(m: int, n: int, primes: list[int], cells: list[tuple[int, int]],
               layout: tuple[int, int, int, int, int], block_bytes: int, dot_block: int,
               sum_block: int) -> tuple[np.ndarray, np.ndarray]:
    """c(a, b) modulo each prime for the cells (a, b), 2 <= a <= b, of one
    chunk of the m x n fill, with the slots of ``layout``
    (``chocolate._fill_layout``) in one block of ``block_bytes``, dots in
    blocks of ``dot_block`` products and column sums reduced every
    ``sum_block`` products.  Returns the residues of every slot, one row
    each, as a view of the block, which lives as long as the view, and the
    row of each cell."""
    size, groups, width, header, spare = layout
    start, end = {}, header  # start[a]: the slot of c(a, a)
    for a in range(m, 1, -1):
        start[a], end = end, end + n - a + 1
    block = np.empty(block_bytes // 8, dtype=np.int64)
    slots = block[:(end + spare + 2) * len(primes)].reshape(-1, len(primes))
    f, scratch, q, value = slots[:end], slots[end:-2], slots[-2], slots[-1]
    q[:] = primes

    pad = groups * width - size
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
                if t % sum_block == 0:
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
            else:  # the pairs j < b/2, doubled, in blocks of dot_block
                pairs = (b - 1) // 2
                x, y = row[:pairs], rev[n - b + 1:n - b + 1 + pairs]
                np.vecdot(x[:dot_block], y[:dot_block], axis=0, out=value)
                for s in range(dot_block, pairs, dot_block):
                    value %= q
                    value += np.vecdot(x[s:s + dot_block], y[s:s + dot_block], axis=0)
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
    inversion of ``chocolate._count_from_residues``, with the G lanes
    ``totals`` and the lane ``inverse`` as scratch."""
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

"""Brute-force break-sequence counting by explicit game-state recursion.

This is the ground truth the split recursion is validated against: states
are multisets of pieces, a move picks one piece and one of its grid lines,
and sequences are counted one move at a time.  Nothing here shares code
with the recursion in ``chocolate``.
"""

from __future__ import annotations

DEFAULT_AREA_LIMIT = 12


def _canon(w: int, h: int) -> tuple[int, int]:
    return (w, h) if w <= h else (h, w)


def _splits(w: int, h: int):
    """All single breaks of a w x h piece, one per grid line."""
    for i in range(1, w):
        yield _canon(i, h), _canon(w - i, h)
    for j in range(1, h):
        yield _canon(w, j), _canon(w, h - j)


def count_sequences(m: int, n: int, area_limit: int = DEFAULT_AREA_LIMIT) -> int:
    """Count ordered break sequences from one m x n bar to all unit squares.

    The state is the multiset of non-unit pieces (unit squares can never be
    chosen again, so they are dropped).  From a state, a move picks any
    physical piece -- two pieces of equal dimensions are distinct choices,
    hence the multiplicity factor -- and any of its grid lines.  Memoization
    is over canonical states: piece orientation is irrelevant, so each piece
    is stored as (w, h) with w <= h and the multiset sorted.

    The multiset state space blows up super-exponentially, so areas above
    ``area_limit`` are rejected up front.
    """
    if m < 1 or n < 1:
        raise ValueError(f"bar dimensions must be positive, got {m} x {n}")
    if m * n > area_limit:
        raise ValueError(
            f"area {m * n} exceeds the enumeration limit {area_limit}; "
            "raise area_limit explicitly if you really want this"
        )
    area = m * n
    memo: dict[tuple, int] = {}

    def ways(state: tuple[tuple[tuple[int, int], int], ...]) -> int:
        if not state:
            return 1
        cached = memo.get(state)
        if cached is not None:
            return cached
        if __debug__:
            remaining = sum(w * h * mult for (w, h), mult in state)
            assert remaining <= area, "break created area out of thin air"
        total = 0
        for (w, h), mult in state:
            per_piece = 0
            for part_a, part_b in _splits(w, h):
                pieces = dict(state)
                pieces[(w, h)] -= 1
                if pieces[(w, h)] == 0:
                    del pieces[(w, h)]
                for part in (part_a, part_b):
                    if part != (1, 1):
                        pieces[part] = pieces.get(part, 0) + 1
                per_piece += ways(tuple(sorted(pieces.items())))
            total += mult * per_piece
        memo[state] = total
        return total

    start = _canon(m, n)
    if start == (1, 1):
        return 1
    return ways(((start, 1),))

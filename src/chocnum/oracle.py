"""Brute-force break-sequence counting by explicit game states.

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

    A state is the sorted tuple of non-unit pieces, one entry per physical
    piece, each stored as (w, h) with w <= h (orientation is irrelevant; unit
    squares can never be chosen again, so they are dropped).  Every full
    sequence has exactly m*n - 1 moves, so the count runs forward one move at
    a time: each layer maps the states reachable in k moves to the number of
    sequences reaching them, and the answer is the count of the empty state
    after the last move.  A move picks any physical piece -- equal pieces
    are distinct choices, so each distinct piece is expanded once and
    weighted by its multiplicity -- and any of its grid lines.  Areas above
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
    layer = {() if area == 1 else (_canon(m, n),): 1}
    for move in range(1, area):
        successors: dict[tuple, int] = {}
        for state, ways in layer.items():
            if __debug__:
                # move pieces exist before this move; the missing ones are units
                covered = sum(w * h for w, h in state) + move - len(state)
                assert covered == area, "a break changed the total area"
            for i, piece in enumerate(state):
                if i and piece == state[i - 1]:
                    continue
                rest = state[:i] + state[i + 1:]
                weight = ways * state.count(piece)
                for parts in _splits(*piece):
                    key = tuple(sorted(rest + tuple(p for p in parts if p != (1, 1))))
                    successors[key] = successors.get(key, 0) + weight
        layer = successors
    return layer[()]

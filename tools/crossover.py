"""Time the big-integer counts against the residue route, bar by bar.

    python tools/crossover.py [--bars | --cold]

For each bar of each family it prints the big-integer time, the route
time, their ratio and the bar's score.  ``chocolate._routes`` routes a bar
once its score reaches its constant, so the constant belongs where the
ratio crosses 1.  The score is (mn-1) * E.bit_length() / m,
E = m(n-1) + n(m-1), in a warm process and n m**0.7 in a cold one.

The families are what ``_routes`` decides:

- ``square`` and ``long``: one fresh count, ``chocolate_number``, which
  fills every bar a x b, a <= m, b <= n, on big integers against one
  ``fill.residue_counts`` of the m x n cell;
- ``square-sweep``: ``generate`` with ``SQUARE``, the big-integer fill of
  the columns (b, b) against one route fill of the cells (k, k);
- ``2xn-sweep``: ``generate`` with ``TWO_BY_N``, ``chocolate2`` against
  one route fill of the cells (2, k);
- ``long-cold`` (2, 3, 5, 10 and 20 x n), ``square-cold``,
  ``square-sweep-cold`` and ``2xn-sweep-cold``: the same calls in a process
  that has not imported numpy, timed only by ``--cold``.

Without an option it times the warm families in this process, as medians
of 7 interleaved calls, the big-integer ones each on a fresh table, after
numpy is imported, ``chocnum.fill`` loaded and every bar's primes sieved,
as in a process that has already run a route.

``--cold`` times the cold families in fresh processes, each after
``import chocnum.chocolate``: the big-integer call in one, and in the other
``chocnum.load_fill``, which imports numpy and compiles ``fill.py``, then
the route call, which sieves the primes and fills.  Medians of 9
interleaved process pairs.  The children run with
PYTHONDONTWRITEBYTECODE=1 and this script writes no bytecode, so each child
compiles the package as a fresh process does; ``--cold`` exits 2 if
``src/chocnum/__pycache__`` exists, whose stale bytecode would skip that
compile.

Pin it to one core (``taskset -c 0``) for steady numbers.  ``--bars``
prints the family, m and n of every bar, one a line, and times nothing.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

# a cold child imports this module for ``paths``: it loads no more than a
# fresh chocnum process, so ``statistics`` and ``subprocess`` are imported
# where they run, and it writes no bytecode
sys.dont_write_bytecode = True
TOOLS = str(Path(__file__).resolve().parent)
SRC = str(Path(TOOLS).parent / "src")
sys.path.insert(0, SRC)

from chocnum import chocolate, load_fill  # noqa: E402

FAMILIES = {
    "square": [(k, k) for k in (14, 16, 17, 18, 19, 20, 22, 24, 27, 28)],
    "long": [(2, n) for n in (20, 26, 27, 30, 34, 40, 60, 100, 101)]
            + [(3, n) for n in (20, 23, 26, 27, 29, 34, 40, 60, 100, 101)]
            + [(4, 20), (4, 23), (4, 25), (5, 60), (6, 50), (8, 40), (9, 20), (12, 30)]
            + [(10, n) for n in (16, 18, 20, 21, 33, 81, 82, 200)]
            + [(27, n) for n in (29, 75, 76)],
    "square-sweep": [(k, k) for k in (16, 18, 19, 20, 22, 24, 27, 28, 34)],
    "2xn-sweep": [(2, n) for n in (27, 40, 60, 100, 101, 150, 160, 169, 170, 180, 190, 200,
                                   250, 300)],
    "long-cold": [(2, n) for n in (101, 250, 280, 300, 301, 302, 310, 320, 350)]
                 + [(3, n) for n in (150, 206, 215, 222, 227, 228, 235, 250)]
                 + [(5, n) for n in (120, 140, 150, 158, 159, 165, 180)]
                 + [(10, n) for n in (80, 90, 95, 97, 98, 105, 120)]
                 + [(20, n) for n in (50, 55, 60, 61, 65, 70)],
    "square-cold": [(k, k) for k in (28, 32, 36, 37, 38, 39, 40, 42, 44)],
    "square-sweep-cold": [(k, k) for k in (28, 32, 36, 37, 38, 39, 40, 42, 44)],
    "2xn-sweep-cold": [(2, n) for n in (200, 300, 350, 380, 390, 399, 400, 450, 500, 600)],
}
COLD = "-cold"

# one side of one cold bar, timed in a fresh process
CHILD = """
import sys
sys.path.insert(0, {tools!r})
import crossover
big, route = crossover.paths({family!r}, {m}, {n})
print(crossover.seconds(route if {route} else big))
"""


def score(m: int, n: int, cold: bool) -> float:
    """The left side of the rule per its constant: (mn-1) * E.bit_length() / m
    warm, n m**0.7 cold."""
    breaks = m * (n - 1) + n * (m - 1)
    return n * m**0.7 if cold else (m * n - 1) * breaks.bit_length() / m


def seeded() -> chocolate.ChocolateTable:
    """A table that holds 1 x 1, so no route runs on it."""
    table = chocolate.ChocolateTable()
    chocolate.chocolate_number(1, 1, table)
    return table


def paths(family: str, m: int, n: int):
    """(big-integer call, route call) of one bar of a family; the route
    call loads ``fill`` first, which in a warm process is one lookup."""
    family = family.removesuffix(COLD)
    if family in ("square", "long"):
        return (lambda: chocolate.chocolate_number(m, n, seeded()),
                lambda: load_fill().residue_counts(m, n, [(m, n)]))
    if family == "square-sweep":
        spec = chocolate.SequenceSpec(chocolate.SequenceKind.SQUARE, n)
        return (lambda: chocolate.generate(spec, seeded()),
                lambda: load_fill().residue_counts(n, n, [(k, k) for k in range(2, n + 1)]))
    return (lambda: chocolate.chocolate2(n, chocolate.ChocolateTable()),
            lambda: load_fill().residue_counts(2, n, [(2, k) for k in range(2, n + 1)]))


def child_seconds(family: str, m: int, n: int, route: bool) -> float:
    import subprocess

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    code = CHILD.format(tools=TOOLS, family=family, m=m, n=n, route=route)
    return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    import statistics

    if argv == ["--bars"]:
        for family, bars in FAMILIES.items():
            for m, n in bars:
                print(family, m, n)
        return 0
    cold = argv == ["--cold"]
    if argv and not cold:
        print("usage:", __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    families = {family: bars for family, bars in FAMILIES.items()
                if family.endswith(COLD) == cold}
    if cold and (stale := Path(SRC) / "chocnum" / "__pycache__").exists():
        print(f"remove {stale} first: its bytecode skips the compile a fresh process pays",
              file=sys.stderr)
        return 2
    if not cold:
        fill = load_fill()
        for bars in families.values():  # sieve every plan's primes before timing
            for m, n in bars:
                fill._plan(m, n)
    print(f"{'family':<19}{'bar':>10}{'big ms':>10}{'route ms':>10}{'ratio':>8}{'score':>9}")
    for family, bars in families.items():
        for m, n in bars:
            if cold:  # interleaved process pairs
                times = [(child_seconds(family, m, n, False), child_seconds(family, m, n, True))
                         for _ in range(9)]
            else:
                big, route = paths(family, m, n)
                times = [(seconds(big), seconds(route)) for _ in range(7)]  # interleaved
            b, r = (statistics.median(side) for side in zip(*times))
            print(f"{family:<19}{f'{m} x {n}':>10}{1e3 * b:>10.2f}{1e3 * r:>10.2f}"
                  f"{b / r:>8.2f}{score(m, n, cold):>9.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

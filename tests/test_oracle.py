"""Tests for the brute-force break-sequence enumerator."""

from chocnum.chocolate import ChocolateTable, chocolate_number
from chocnum.oracle import count_sequences


def test_agrees_with_recursion_everywhere_it_can_reach():
    table = ChocolateTable()
    for m in range(1, 21):
        for n in range(1, 21):
            if m * n <= 20:
                assert count_sequences(m, n, area_limit=20) == chocolate_number(m, n, table), (m, n)


RECURSION_PROBE = """
import inspect, sys
from chocnum.oracle import count_sequences
sys.setrecursionlimit(len(inspect.stack()) + 15)
print(count_sequences(4, 6, area_limit=24))
"""


def test_counts_within_a_shallow_recursion_limit(fresh_python):
    # 4 x 6 takes 23 moves: a count that recursed once per move would need
    # more than 15 frames; a fresh interpreter keeps the low limit contained
    proc = fresh_python("-c", RECURSION_PROBE, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "237616480594708660224\n"

"""Tests for the brute-force break-sequence enumerator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chocnum.oracle as oracle
from chocnum.chocolate import ChocolateTable, chocolate_number
from chocnum.oracle import count_sequences


@pytest.mark.parametrize(
    "m,n,expected", [(2, 2, 4), (1, 4, 6), (2, 3, 56), (1, 1, 1)]
)
def test_count_sequences_examples(m, n, expected):
    assert count_sequences(m, n) == expected


def test_rejects_degenerate_and_oversized():
    with pytest.raises(ValueError):
        count_sequences(0, 3)
    with pytest.raises(ValueError):
        count_sequences(4, 4)  # area 16 over the default limit


def test_area_limit_is_overridable():
    assert count_sequences(2, 7, area_limit=14) == 984237056


def test_symmetry():
    for m in range(1, 13):
        for n in range(m, 13):
            if m * n > 12:
                continue
            assert count_sequences(m, n) == count_sequences(n, m)


def test_single_row_counts_are_factorials():
    for n in range(1, 9):
        assert count_sequences(1, n) == math.factorial(n - 1)


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


def test_counts_within_a_shallow_recursion_limit():
    # 4 x 6 takes 23 moves: a count that recursed once per move would need
    # more than 15 frames; a fresh interpreter keeps the low limit contained
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", RECURSION_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "237616480594708660224\n"

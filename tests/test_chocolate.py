"""Tests for the exact recursion, the sequence generators, and the cache."""

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chocnum
import chocnum.chocolate as chocolate_mod
import chocnum.cli as cli
import chocnum.fill as fill_mod
from chocnum.arith import is_prime
from chocnum.chocolate import (
    CacheFormatError,
    ChocolateTable,
    SequenceFrontierError,
    SequenceKind,
    SequenceSpec,
    chocolate2,
    chocolate_number,
    generate,
    load_cache,
    save_cache,
)
from chocnum.modular import conjecture_scan


def test_rejects_degenerate_bars():
    with pytest.raises(ValueError):
        chocolate_number(0, 3)
    with pytest.raises(ValueError):
        chocolate_number(3, 0)
    with pytest.raises(ValueError):
        chocolate2(0)


def test_factorial_row_and_memo_normalization():
    table = ChocolateTable()
    for n in range(1, 16):
        assert chocolate_number(1, n, table) == math.factorial(n - 1)
        assert chocolate_number(n, 1, table) == math.factorial(n - 1)
        assert table.memo[(1, n) if n > 1 else (1, 1)] == math.factorial(n - 1)
    assert all(m <= n for (m, n) in table.memo)


def test_symmetry():
    table = ChocolateTable()
    for m in range(1, 7):
        for n in range(1, 7):
            assert chocolate_number(m, n, table) == chocolate_number(n, m, table)


def test_values_even_off_the_first_row():
    table = ChocolateTable()
    for m in range(2, 7):
        for n in range(2, 7):
            assert chocolate_number(m, n, table) % 2 == 0


def test_chocolate2_matches_general_recursion():
    # independent routes, so fresh tables on both sides
    for n in range(1, 101):
        assert chocolate2(n, ChocolateTable()) == chocolate_number(2, n, ChocolateTable())


@functools.lru_cache(maxsize=None)
def every_term_chocolate2(n_max):
    """B_1, ..., B_n_max from B_n = (2n-2)! + sum of C(2n-2, 2i-1) B_i B_{n-i}
    over every i from 1 to n-1, each weight from math.comb: a reference for
    the half sum and the walked weights of chocolate2."""
    b = [0, 1]
    for n in range(2, n_max + 1):
        r = 2 * n - 2
        terms = sum(math.comb(r, 2 * i - 1) * b[i] * b[n - i] for i in range(1, n))
        b.append(math.factorial(r) + terms)
    return b[1:]


def test_chocolate2_matches_the_sum_over_every_term():
    table = ChocolateTable()
    assert [chocolate2(n, table) for n in range(1, 201)] == every_term_chocolate2(200)


def test_chocolate2_matches_the_sum_over_every_term_on_a_cold_table_at_300():
    assert chocolate2(300, ChocolateTable()) == every_term_chocolate2(300)[-1]


def test_chocolate2_reads_back_entries_the_split_recursion_counted():
    # hits among misses: 2 x 2..60 from one big-integer fill, then single
    # fresh counts, from the residue route from 101 on; every hit is read
    # back as B_j >> e_j and the next miss restarts odd((2j-2)!) after it
    table = seeded_table()
    chocolate_number(2, 60, table)
    for j in (62, 101, 150, 151, 233):
        table.memo[(2, j)] = chocolate_number(2, j)
    before = table.computed
    assert chocolate2(300, table) == every_term_chocolate2(300)[-1]
    assert [table.memo[(2, j)] for j in range(2, 301)] == every_term_chocolate2(300)[1:]
    assert table.computed - before == 299 - 59 - 5


class CountingMemo(dict):
    """A memo that counts the reads of its entries."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_a_table_grown_one_n_at_a_time_extends_its_odd_parts():
    # the values of one cold call; computed rises by 1 per new index, and a
    # call reads only its own entry, not every earlier one back again
    cold = ChocolateTable()
    chocolate2(200, cold)
    table = ChocolateTable()
    table.memo = CountingMemo()
    for n in range(1, 201):
        computed, reads = table.computed, table.memo.reads
        assert chocolate2(n, table) == (cold.memo[(2, n)] if n > 1 else 1)
        assert table.computed - computed == (n > 1)
        assert table.memo.reads - reads <= 2, n
    assert table.memo == cold.memo and table.computed == cold.computed == 199


def test_every_term_of_b_n_carries_two_to_the_e_n():
    # e_n = v2((2n-2)!) = 2n-2-s2(n-1), which chocolate2 divides out; the
    # values come from one residue fill, not from chocolate2
    def e(n):
        return 2 * n - 2 - (n - 1).bit_count()

    values = generate(SequenceSpec(SequenceKind.TWO_BY_N, 600), ChocolateTable())
    for n, b in values:
        assert b % (1 << e(n)) == 0, n
    # tight at n = 3, 4, 5: B_3 = 56 = 2^3 * 7, B_4 = 1712 = 2^4 * 107 and
    # B_5 = 92800 = 2^7 * 725, so e_n + 1 low zero bits would fail there
    assert [(b, e(n)) for n, b in values[2:5]] == [(56, 3), (1712, 4), (92800, 7)]
    for n, b in values[2:5]:
        assert b % (1 << (e(n) + 1)) != 0, n


FRESH_COUNT_PROBE = """
import sys
sys.modules["numpy"] = None
from chocnum import chocolate_number
print(hex(chocolate_number(2, 300)), "chocnum.fill" in sys.modules)
"""


def test_a_fresh_count_falls_back_to_big_integers_when_the_fill_cannot_load():
    env = dict(os.environ, PYTHONPATH=str(Path(chocolate_mod.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FRESH_COUNT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.split()
    assert (int(value, 16), loaded) == (every_term_chocolate2(300)[-1], "False")


DEEP_THEN_SHALLOW_PROBE = """
import inspect, sys
from chocnum import ChocolateTable, chocolate_number
limit = sys.getrecursionlimit()
sys.setrecursionlimit(len(inspect.stack()) + {headroom})
first = ChocolateTable()
deep = chocolate_number(2, 300, first)
sys.setrecursionlimit(limit)
second = ChocolateTable()
chocolate_number(2, 300, second)
from chocnum.modular import chocolate2_mod
print(hex(deep), first.computed, second.computed, "chocnum.fill" in sys.modules,
      *chocolate2_mod(20, 7))
"""


# numpy's first import, cut short by the recursion limit at +60 to +75,
# left it loaded once and unusable: every later route fell back and
# chocnum.modular could not import.  Now the first count skips the route
# below _IMPORT_HEADROOM frames of headroom (three of them are taken by
# chocolate_number, _route and load_fill), counts on big integers, and
# takes the route above
@pytest.mark.parametrize("headroom,first_computed", [
    (60, 598),
    (70, 598),
    (chocnum._IMPORT_HEADROOM, 598),
    (chocnum._IMPORT_HEADROOM + 10, 1),
])
def test_a_deep_caller_leaves_the_route_and_the_residue_module_usable(headroom, first_computed):
    env = dict(os.environ, PYTHONPATH=str(Path(chocolate_mod.__file__).parents[1]))
    probe = DEEP_THEN_SHALLOW_PROBE.format(headroom=headroom)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    deep, first, second, loaded, *residues = proc.stdout.split()
    assert int(deep, 16) == every_term_chocolate2(300)[-1]
    assert (int(first), second, loaded) == (first_computed, "1", "True")
    assert [int(r) for r in residues] == [b % 7 for b in every_term_chocolate2(20)]


DEEP_SCAN_PROBE = """
import inspect, json, sys
from chocnum.modular import chocolate2_mod, conjecture_scan
limit = sys.getrecursionlimit()
sys.setrecursionlimit(len(inspect.stack()) + {headroom})
try:
    chocolate2_mod(20, 7)
    first = "returned"
except Exception as exc:
    first = type(exc).__name__
sys.setrecursionlimit(limit)
print(first, "numpy" in sys.modules)
print(json.dumps([chocolate2_mod(20, 7), [r.as_dict() for r in conjecture_scan(2, [9], 100)]]))
"""


# a residue scan goes through the same guard as the route: with the limit
# at +50 to +70, numpy's import used to fail part way and leave every
# later scan of the process raising ImportError
@pytest.mark.parametrize("headroom", [50, 60, 70, 80])
def test_a_deep_residue_scan_raises_before_numpy_and_leaves_it_loadable(headroom):
    env = dict(os.environ, PYTHONPATH=str(Path(chocolate_mod.__file__).parents[1]))
    probe = DEEP_SCAN_PROBE.format(headroom=headroom)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, then = proc.stdout.splitlines()
    assert first == "RecursionError False"
    residues, scan = json.loads(then)
    assert residues == [b % 7 for b in every_term_chocolate2(20)]
    assert scan == [r.as_dict() for r in conjecture_scan(2, [9], 100)]


@functools.lru_cache(maxsize=None)
def every_cut_count(m, n):
    """The split recursion summed over every first cut, without using the
    symmetry of the terms: a reference for the half sums."""
    if m == 1 or n == 1:
        return math.factorial(m * n - 1)
    rows = sum(
        math.comb(m * n - 2, i * n - 1) * every_cut_count(i, n) * every_cut_count(m - i, n)
        for i in range(1, m)
    )
    cols = sum(
        math.comb(m * n - 2, i * m - 1) * every_cut_count(m, i) * every_cut_count(m, n - i)
        for i in range(1, n)
    )
    return rows + cols


def test_half_sums_match_the_sum_over_every_cut():
    # every bar up to 12 x 12, then long sides (a x b with a <= 5, b <= 30,
    # and 16 x 16), so one sum walks its weights in many long steps
    bars = [(m, n) for m in range(1, 13) for n in range(1, 13)]
    bars += [(m, n) for m in range(1, 6) for n in range(13, 31)] + [(16, 16)]
    table = ChocolateTable()
    for m, n in bars:
        assert chocolate_number(m, n, table) == every_cut_count(m, n), (m, n)


def test_exact_counts_need_no_deep_recursion(capsys):
    expected = every_cut_count(40, 3)
    # the residue route imports numpy on first use, and the import machinery
    # nests more frames than the fills may: load it before the limit drops,
    # so the route answers the first query, not the big-integer fallback
    # (with numpy unloaded, the route does not try the import this deep)
    importlib.import_module("numpy")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        assert chocolate_number(2, 300, ChocolateTable()) == chocolate2(300, ChocolateTable())
        # the residue route answers the fresh query above; this one fills
        assert chocolate_number(2, 300, seeded_table()) == chocolate2(300, ChocolateTable())
        assert chocolate_number(40, 3) == expected
        assert cli.main(["factor", "--seq", "table", "--index", "2", "120"]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out.startswith(f"2 120 {chocolate2(120)} ")


def big_integer_count(m, n):
    """chocolate_number through the big-integer fill: a table that already
    holds an entry never takes the residue route."""
    return chocolate_number(m, n, seeded_table())


def seeded_table():
    table = ChocolateTable()
    chocolate_number(1, 1, table)
    return table


def residue_count(m, n):
    """The residue fill of any bar, whatever the route rule says."""
    return fill_mod.residue_counts(m, n, [(m, n)])[0]


def route_plan(m, n):
    """The plan of the fill a fresh count of m x n takes (``fill._plan``)
    in a process that has loaded ``fill``, as this one has, or None when the
    route rule keeps the big-integer fill; nothing is filled or stored."""
    return fill_mod._plan(m, n) if chocolate_mod._routes(m, n, True) else None


# every bar from 2 x 2 to 9 x 9, squares and bars of the shapes the route
# rule was measured on, and both sides of each edge of ROUTE_PINS, where
# this process, which has loaded fill, starts taking the route
BARS = [(m, n) for m in range(2, 10) for n in range(m, 10)] + [
    (12, 12), (20, 20), (40, 40), (2, 60), (3, 50), (10, 30),
    (9, 20), (4, 23), (2, 26), (2, 27), (3, 26), (3, 27), (10, 20), (10, 21), (18, 18), (19, 19),
    (2, 100), (2, 101), (3, 100), (3, 101), (10, 81), (10, 82), (10, 200), (27, 29), (28, 28),
]


@pytest.mark.parametrize("m,n", BARS)
def test_the_residue_fill_and_the_route_match_the_big_integer_fill(m, n):
    want = big_integer_count(m, n)
    assert residue_count(m, n) == want
    assert chocolate_number(m, n) == want


@pytest.mark.parametrize("m,n", [(40, 40), (36, 36), (2, 600), (10, 200)])
def test_residue_fill_peaks_within_its_ceiling(m, n):
    # the fill's arrays stay under _FILL_BYTES; numpy may add one buffer of
    # up to 64 KiB for a broadcast operand.  numpy is loaded and the primes
    # sieved first, so neither is counted
    fill_mod._plan(m, n)
    tracemalloc.start()
    try:
        fill_mod.residue_counts(m, n, [(m, n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fill_mod._FILL_BYTES + (64 << 10)


PLANS = {  # (chunks, primes per chunk) of a fresh bar under the 2 MiB block
    (30, 1000): (2214, 7), (400, 400): (48790, 2),
    (40, 40): (2, 283), (36, 36): (2, 222), (10, 200): (7, 105),
}


@pytest.mark.parametrize("m,n", list(PLANS))
def test_every_chunk_of_a_plan_fits_the_ceiling(m, n):
    # the plan alone: no fill runs.  One chunk fewer would not fit
    assert fill_mod._FILL_BYTES == 2 << 20
    primes, per_chunk = route_plan(m, n)
    chunks = -(-len(primes) // per_chunk)
    assert (chunks, per_chunk) == PLANS[(m, n)]
    fewer = -(-len(primes) // (chunks - 1))  # primes per chunk in one chunk fewer
    assert fill_mod._fill_bytes(m, n, per_chunk) <= fill_mod._FILL_BYTES
    assert fill_mod._fill_bytes(m, n, fewer) > fill_mod._FILL_BYTES
    assert per_chunk * (chunks - 1) < len(primes) <= per_chunk * chunks


def test_a_bar_whose_one_prime_does_not_fit_the_block_has_no_plan(monkeypatch):
    # 700 x 700: the lanes of a single prime pass the block, so no fill runs
    assert fill_mod._fill_bytes(700, 700, 1) > fill_mod._FILL_BYTES
    monkeypatch.setattr(fill_mod, "fill_chunk", lambda *args: pytest.fail("a fill ran"))
    assert fill_mod._plan(700, 700) is None
    assert fill_mod.residue_counts(700, 700, [(700, 700)]) is None


def test_chunks_and_blocks_are_exact(monkeypatch):
    # every bar fills in at least three chunks, with dot blocks of 5
    # products; a bound of 2**52 or more takes at least three primes.  Each
    # fill counts all its cells, in an order that is not that of their bounds
    bars = [(m, n) for m in range(2, 10) for n in range(m, 10)] + [(16, 20), (2, 150)]
    table = seeded_table()
    for m, n in bars:  # the big-integer fill of every cell
        chocolate_number(m, n, table)
    count_bound = fill_mod._count_bound
    monkeypatch.setattr(fill_mod, "_count_bound", lambda a, b: max(count_bound(a, b), 2**52))
    monkeypatch.setattr(fill_mod, "_DOT_BLOCK", 5)
    for m, n in bars:
        primes = fill_mod._fewest_primes(fill_mod._count_bound(m, n), m * n - 1)
        fill_bytes = fill_mod._fill_bytes(m, n, len(primes) // 3)
        monkeypatch.setattr(fill_mod, "_FILL_BYTES", fill_bytes)
        primes, per_chunk = fill_mod._plan(m, n)
        assert -(-len(primes) // per_chunk) >= 3, (m, n)
        cells = [(a, b) for a in range(m, 1, -1) for b in range(a, n + 1)]
        counts = fill_mod.residue_counts(m, n, cells)
        assert counts == [table.memo[cell] for cell in cells], (m, n)


def test_each_cell_folds_the_primes_of_its_own_bound(monkeypatch):
    # a wrong residue at the last prime of a cell's run changes its count,
    # and one at the next prime does not: each cell folds exactly the
    # leading primes whose product first exceeds its own bound
    m, n = 2, 150
    primes, _ = fill_mod._plan(m, n)
    cells = [(2, b) for b in range(2, n + 1)]
    runs = [len(fill_mod._fewest_primes(fill_mod._count_bound(*cell), 0)) for cell in cells]
    expected = fill_mod.residue_counts(m, n, cells)
    fill = fill_mod.fill_chunk

    def poisoned(past):
        def fill_chunk(m, n, chunk, cells):
            f, slots = fill(m, n, chunk, cells)
            for slot, run in zip(slots, runs):
                j = run - 1 + past - primes.index(chunk[0])
                if 0 <= j < len(chunk):
                    f[slot, j] = (f[slot, j] + 1) % chunk[j]
            return f, slots
        return fill_chunk

    monkeypatch.setattr(fill_mod, "fill_chunk", poisoned(1))
    assert fill_mod.residue_counts(m, n, cells) == expected
    monkeypatch.setattr(fill_mod, "fill_chunk", poisoned(0))
    got = fill_mod.residue_counts(m, n, cells)
    assert all(g != e for g, e in zip(got, expected))


def test_the_block_size_changes_no_count(monkeypatch):
    # a fresh 40 x 40 in 2 chunks against 4, and a cold square sweep to 34
    # in 1 against 2, as under the earlier 1 MiB block
    count = chocolate_number(40, 40)
    squares = generate(SequenceSpec(SequenceKind.SQUARE, 34))
    assert route_plan(40, 40)[1] == 283
    assert route_plan(34, 34)[1] == 388
    monkeypatch.setattr(fill_mod, "_FILL_BYTES", 1 << 20)
    assert route_plan(40, 40)[1] == 142
    assert route_plan(34, 34)[1] == 194
    assert chocolate_number(40, 40) == count
    assert generate(SequenceSpec(SequenceKind.SQUARE, 34)) == squares


ROUTE_PINS = [  # (m, n, warm, routes): both sides of every edge of _routes
    # cold, 900 m
    (2, 100, False, False), (2, 101, False, True), (3, 100, False, False),
    (3, 101, False, True), (10, 81, False, False), (10, 82, False, True),
    (10, 200, False, True), (27, 75, False, False), (27, 76, False, True),
    (27, 29, False, False), (28, 28, False, True),  # the short side alone decides
    # warm, 180 m: (mn-1) E.bit_length() is 179 m at 9 x 20 and 182 m at
    # 4 x 23, and no bar m < 28 lies in between
    (9, 20, True, False), (4, 23, True, True),
    (2, 26, True, False), (2, 27, True, True), (3, 26, True, False), (3, 27, True, True),
    (10, 20, True, False), (10, 21, True, True), (18, 18, True, False), (19, 19, True, True),
    (27, 29, True, True),
    # a single row has no route
    (1, 10**6, False, False), (1, 10**6, True, False),
]


@pytest.mark.parametrize("m,n,warm,routes", ROUTE_PINS)
def test_route_rule_pins_both_sides_of_each_edge(m, n, warm, routes):
    # no bar m < 28 meets the size rule with equality
    assert chocolate_mod._routes(m, n, warm) is routes


def test_the_crossover_script_times_every_pinned_bar():
    # the route pins and the table their constants come from cannot drift
    # apart; a single row has no route fill to time
    script = Path(__file__).resolve().parents[1] / "tools" / "crossover.py"
    proc = subprocess.run([sys.executable, str(script), "--bars"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    timed = {tuple(map(int, line.split()[1:])) for line in proc.stdout.splitlines()}
    assert {(m, n) for m, n, _, _ in ROUTE_PINS if m >= 2} <= timed


def test_count_bound_holds_on_every_bar_of_area_up_to_400():
    # the residue route's primes bound a count by (a+b-2) (ab-2)!, which
    # holds for every bar but 1 x 1, which has no move
    table = ChocolateTable()
    bars = [(a, b) for a in range(1, 21) for b in range(a, 400 // a + 1) if a * b > 1]
    for a, b in bars:
        assert chocolate_number(a, b, table) <= fill_mod._count_bound(a, b), (a, b)


def test_residue_route_bound_holds_and_is_tight_at_2_x_2():
    # the long bars 2 x 201..300, past area 400, and the equality at 2 x 2
    table = ChocolateTable()
    for n in range(201, 301):
        assert chocolate_number(2, n, table) <= fill_mod._count_bound(2, n), n
    assert fill_mod._count_bound(2, 2) == chocolate_number(2, 2) == 4


@pytest.mark.parametrize("m,n,primes", [(2, 182, 99), (2, 1200, 904), (10, 200, 733)])
def test_residue_route_takes_the_primes_of_its_bound(m, n, primes):
    got = route_plan(m, n)[0]
    assert len(got) == primes
    assert math.prod(got[:-1]) <= fill_mod._count_bound(m, n) < math.prod(got)


@pytest.mark.parametrize("bound", [1, 2, 2**26, 67_108_859 * 67_108_837, 2**100, 10**1000,
                                   2400**2399, 2**100_000],
                         ids=["1", "2", "2^26", "p1p2", "2^100", "10^1000", "2400^2399",
                              "2^100000"])
def test_residue_primes_are_the_fewest_that_pass_the_bound(monkeypatch, bound):
    # p1p2, the product of the two largest primes, takes a third; the list
    # is fresh, so 2**100_000, whose 3847 primes pass the 3650 of the first
    # window of 2**16 below 2**26, sieves a second window here
    monkeypatch.setattr(fill_mod, "_crt_primes", [])
    primes = fill_mod._fewest_primes(bound, 1000)
    assert math.prod(primes) > bound >= math.prod(primes[:-1])
    # no prime below 2**26 is skipped, so no shorter list of primes below
    # 2**26 has a larger product
    expected, q = [], 2**26
    while len(expected) < len(primes):
        q -= 1
        if is_prime(q):
            expected.append(q)
    assert primes == expected
    assert fill_mod._fewest_primes(bound, 2**26) is None


def test_too_few_primes_below_the_ceiling_leave_no_plan(monkeypatch):
    # the 171 odd primes below 2**10 multiply to 1419 bits: a larger bound,
    # or a floor above the primes a bound needs, has no primes, and a fresh
    # 2 x 150, whose bound has 2033 bits, falls back to the big-integer fill
    monkeypatch.setattr(fill_mod, "_PRIME_CEILING", 2**10)
    monkeypatch.setattr(fill_mod, "_crt_primes", [])
    assert fill_mod._fewest_primes(2**2000, 0) is None
    assert fill_mod._fewest_primes(2**100, 1000) is None
    assert fill_mod._fewest_primes(2**100, 953) is None  # 2**100 takes 1021..953
    assert len(fill_mod._fewest_primes(2**100, 952)) == 11
    table = ChocolateTable()
    assert chocolate_number(2, 150, table) == chocolate2(150)
    assert len(table.memo) == 298


def test_dot_block_keeps_a_dot_of_residues_in_int64():
    # the largest residue factor is p_max - 1 for the largest prime p_max
    # below the ceiling; one more term per block could pass 2^63
    p_max = next(p for p in range(fill_mod._PRIME_CEILING - 1, 0, -1) if is_prime(p))
    assert p_max == 67_108_859
    assert fill_mod._DOT_BLOCK * (p_max - 1) ** 2 < 2**63
    assert 2048 * (p_max - 1) ** 2 < 2**63 <= 2049 * (p_max - 1) ** 2


def test_column_sums_of_every_admitted_row_stay_in_int64(monkeypatch):
    # fill_chunk reduces a column sum of row a once: a residue plus
    # (a+1)//2 - 2 products, doubled, plus the middle square for even a.
    # _plan admits a bar only when one prime's lanes fit _FILL_BYTES, and
    # the lanes grow with both sides, so the largest square that fits has
    # the last row any plan can fill.  2052 is the first row past 2**63
    p_max = next(p for p in range(fill_mod._PRIME_CEILING - 1, 0, -1) if is_prime(p))

    def peak(a):
        products = (a + 1) // 2 - 2
        return 2 * (products * (p_max - 1) ** 2 + p_max - 1) + (a % 2 == 0) * (p_max - 1) ** 2

    def largest_row():
        m = 2
        while fill_mod._fill_bytes(m + 1, m + 1, 1) <= fill_mod._FILL_BYTES:
            m += 1
        return m

    assert peak(largest_row()) < 2**63
    assert largest_row() == 585
    assert peak(2051) < 2**63 <= peak(2052)
    monkeypatch.setattr(fill_mod, "_FILL_BYTES", fill_mod._fill_bytes(2052, 2052, 1))
    assert peak(largest_row()) >= 2**63


def test_blocked_dot_products_are_exact(monkeypatch):
    # with blocks of 5 terms, the halved dots past b = 64 take several; the
    # dots up to b = 64, every pair in one call, take none
    expected = big_integer_count(16, 20), big_integer_count(4, 80)
    monkeypatch.setattr(fill_mod, "_DOT_BLOCK", 5)
    assert (residue_count(16, 20), residue_count(4, 80)) == expected
    assert chocolate_number(2, 150) == chocolate2(150)


def test_single_rows_and_warm_tables_keep_the_big_integer_fill():
    assert route_plan(2, 300) is not None
    table = seeded_table()
    assert not chocolate_mod._route(table, 2, 300, [(2, 300)], True)
    assert (table.memo, table.computed) == ({(1, 1): 1}, 1)
    assert chocolate_number(1, 3000) == chocolate_number(3000, 1) == math.factorial(2999)
    assert chocolate_number(2, 300, seeded_table()) == chocolate2(300)


def test_route_stores_only_the_requested_entry():
    table = ChocolateTable()
    value = chocolate_number(300, 2, table)
    assert table.memo == {(2, 300): value}
    assert table.computed == 1
    assert chocolate_number(2, 300, table) == value and table.computed == 1


def fills(monkeypatch):
    """The (m, n, cells) of each residue fill from here on."""
    calls, count = [], fill_mod.residue_counts

    def recorded(m, n, cells):
        calls.append((m, n, list(cells)))
        return count(m, n, cells)

    monkeypatch.setattr(fill_mod, "residue_counts", recorded)
    return calls


@pytest.mark.parametrize("kind,bound,routed", [
    (SequenceKind.SQUARE, 18, False), (SequenceKind.SQUARE, 19, True),
    (SequenceKind.SQUARE, 33, True), (SequenceKind.TWO_BY_N, 100, False),
    (SequenceKind.TWO_BY_N, 101, True), (SequenceKind.TWO_BY_N, 600, True),
])
def test_square_and_2_x_n_sweeps_take_one_fill_from_the_route(monkeypatch, kind, bound, routed):
    # against the big-integer sweep of a seeded table: every bar up to n x n,
    # or chocolate2 at every index.  With fill loaded, squares take the warm
    # rule and 2 x n sweeps keep the cold one
    calls = fills(monkeypatch)
    table = ChocolateTable()
    got = generate(SequenceSpec(kind, bound), table)
    assert got == generate(SequenceSpec(kind, bound), seeded_table())
    if not routed:
        assert calls == []
        return
    m = bound if kind is SequenceKind.SQUARE else 2
    cells = [(min(m, k), k) for k in range(2, bound + 1)]
    assert calls == [(m, bound, cells)]
    # the memo holds exactly the swept entries, and computed counts them
    swept = {(1, 1), *cells} if kind is SequenceKind.SQUARE else set(cells)
    assert set(table.memo) == swept and table.computed == len(swept)


def test_warm_tables_keep_the_memo_path_in_sweeps(monkeypatch):
    calls = fills(monkeypatch)
    generate(SequenceSpec(SequenceKind.SQUARE, 30), seeded_table())
    generate(SequenceSpec(SequenceKind.TWO_BY_N, 150), seeded_table())
    assert calls == []


def test_a_routed_2_x_n_sweep_seeds_a_table_that_grows_one_n_at_a_time(monkeypatch):
    # the odd parts are read back once from the routed entries, then extended
    calls = fills(monkeypatch)
    table = ChocolateTable()
    generate(SequenceSpec(SequenceKind.TWO_BY_N, 150), table)
    assert len(calls) == 1 and table.computed == 149
    assert [chocolate2(n, table) for n in range(151, 161)] == every_term_chocolate2(160)[150:]
    assert table.computed == 149 + 10


def per_index(kind, bound, table):
    """A square or 2 x n sweep as ``generate`` ran it before it filled
    once: the route's fill of the largest bar, then one
    ``chocolate_number(n, n)`` or ``chocolate2(n)`` per index."""
    m = bound if kind is SequenceKind.SQUARE else 2
    cells = [(min(m, k), k) for k in range(2, bound + 1)]
    chocolate_mod._route(table, m, bound, cells, kind is SequenceKind.SQUARE)
    if kind is SequenceKind.SQUARE:
        return [(n, chocolate_number(n, n, table)) for n in range(1, bound + 1)]
    return [(n, chocolate2(n, table)) for n in range(1, bound + 1)]


@functools.lru_cache(maxsize=None)
def routed_memo(m, n, squares):
    """The memo that the route leaves after a fresh count of m x n, or
    after a cold square sweep to n (the squares, 1 x 1 filled after it),
    from ``fill.residue_counts`` itself: no sweep under test builds it."""
    cells = [(k, k) for k in range(2, n + 1)] if squares else [(m, n)]
    memo = dict(zip(cells, fill_mod.residue_counts(m, n, cells)))
    return {(1, 1): 1, **memo} if squares else memo


def routed_table(m, n, squares=False):
    def new_table():
        table = ChocolateTable()
        table.memo = dict(routed_memo(m, n, squares))
        table.computed = len(table.memo)
        return table
    new_table.__name__ = f"routed_squares_to_{n}" if squares else f"routed_{m}_x_{n}"
    return new_table


def only_2_x_2():
    table = ChocolateTable()
    chocolate2(2, table)
    assert table.memo == {(2, 2): 4}
    return table


SQUARE, TWO_BY_N = SequenceKind.SQUARE, SequenceKind.TWO_BY_N
ROUTED_2_X_300, ROUTED_SQUARES_34 = routed_table(2, 300), routed_table(34, 34, squares=True)


@pytest.mark.parametrize("new_table,kind,bound,new", [
    (ChocolateTable, SQUARE, 12, None), (ChocolateTable, SQUARE, 30, 30),
    (ChocolateTable, TWO_BY_N, 60, None), (ChocolateTable, TWO_BY_N, 100, 99),
    (ChocolateTable, TWO_BY_N, 150, 149), (seeded_table, SQUARE, 12, None),
    (seeded_table, TWO_BY_N, 100, 99), (seeded_table, TWO_BY_N, 150, 149),
    # a routed 2 x 300 holds no 2 x k below it: a sweep fills every 2 x k
    # up to its bound but 2 x 300
    (ROUTED_2_X_300, TWO_BY_N, 300, 298), (ROUTED_2_X_300, TWO_BY_N, 200, 199),
    (ROUTED_2_X_300, SQUARE, 10, None),
    # routed squares hold no bar off the diagonal: a sweep that lacks no
    # square fills nothing, and one past them fills every bar up to 36 x 36
    (ROUTED_SQUARES_34, SQUARE, 30, 0), (ROUTED_SQUARES_34, SQUARE, 36, 632),
    (ROUTED_SQUARES_34, TWO_BY_N, 40, None),
    (only_2_x_2, SQUARE, 12, None), (only_2_x_2, TWO_BY_N, 60, 58),
], ids=lambda v: getattr(v, "__name__", None))
def test_square_and_2_x_n_sweeps_leave_what_the_per_index_loop_leaves(new_table, kind, bound, new):
    # entries, memo and computed, on empty, seeded and warm tables: one fill
    # up to the last index the memo lacks, not to the bound
    swept, looped = new_table(), new_table()
    before = len(swept.memo)
    assert generate(SequenceSpec(kind, bound), swept) == per_index(kind, bound, looped)
    assert swept.memo == looped.memo and swept.computed == looped.computed
    if new is not None:
        assert len(swept.memo) - before == new


def test_a_routed_sweep_peaks_within_the_fill_ceiling():
    # the residues of the 599 cells are folded one prime at a time out of
    # each chunk's block: the peak, less the values, stays that of one fill.
    # The fill's module, numpy with it, and the primes are loaded first
    fill_mod._plan(2, 600)
    tracemalloc.start()
    try:
        values = generate(SequenceSpec(SequenceKind.TWO_BY_N, 600), ChocolateTable())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(sys.getsizeof(v) for _, v in values) <= fill_mod._FILL_BYTES + (64 << 10)


def test_chocolate2_reuses_table_entries():
    table = ChocolateTable()
    chocolate_number(2, 6, table)
    before = table.computed
    assert chocolate2(6, table) == 7918592
    assert table.computed == before  # all answers came from the memo


def test_generate_triangle_four_rows():
    entries = generate(SequenceSpec(SequenceKind.TRIANGLE_ROWS, 4))
    assert [v for _, v in entries] == [1, 1, 1, 2, 4, 2, 6, 56, 56, 6]
    assert entries[4] == ((2, 2), 4)
    assert entries[7] == ((2, 3), 56)


def bar_by_bar(kind, bound, table):
    """A triangle or table sweep as one chocolate_number per entry, each
    filling the rectangle of its own bar."""
    if kind is SequenceKind.TABLE:
        bars = [(m, n) for m in range(1, bound + 1) for n in range(1, bound + 1)]
    else:
        bars = [(i, r + 1 - i) for r in range(1, bound + 1) for i in range(1, r + 1)]
    return [((m, n), chocolate_number(m, n, table)) for m, n in bars]


@pytest.mark.parametrize("kind,bound", [
    *((SequenceKind.TRIANGLE_ROWS, k) for k in range(1, 46)),
    (SequenceKind.TABLE, 12), (SequenceKind.TABLE, 36),
])
def test_triangle_and_table_sweeps_fill_each_bar_once(kind, bound):
    # the same entries, memo and computed as bar by bar, on a seeded table
    # and on an empty one; every bar lies on b <= bound, and on the
    # triangle a + b <= bound + 1
    for table in (seeded_table, ChocolateTable):
        swept, reference = table(), table()
        assert generate(SequenceSpec(kind, bound), swept) == bar_by_bar(kind, bound, reference)
        assert swept.memo == reference.memo and swept.computed == reference.computed
    last = bound + 1 if kind is SequenceKind.TRIANGLE_ROWS else 2 * bound
    assert set(swept.memo) == {(a, b) for b in range(1, bound + 1) for a in range(1, b + 1)
                               if a + b <= last}


def test_a_fill_reads_only_filled_bars():
    # 2 x 3 reads 1 x 2, which no column filled: a ValueError, not a value,
    # and the memo keeps 1 x 3, finished before it
    table = ChocolateTable()
    with pytest.raises(ValueError, match=r"2 x 3 reads \(1, 2\)"):
        chocolate_mod._fill(table, [(3, 3)])
    assert table.memo == {(1, 3): 2} and table.computed == 1
    # the same bars out of order
    with pytest.raises(ValueError, match=r"2 x 3 reads \(1, 2\)"):
        chocolate_mod._fill(ChocolateTable(), [(1, 1), (3, 3), (2, 2)])
    table = ChocolateTable()
    chocolate_mod._fill(table, [(1, 1), (2, 2), (3, 3)])
    assert table.memo == {(1, 1): 1, (1, 2): 1, (2, 2): 4, (1, 3): 2, (2, 3): 56,
                          (3, 3): 9408}


def test_a_cold_table_sweep_caches_the_bytes_of_the_bar_by_bar_sweep(tmp_path, capsys):
    # the digest of the cache that one chocolate_number per bar wrote
    assert cli.main(["gen", "--seq", "table", "--max", "36", "--cache", str(tmp_path)]) == 0
    data = (tmp_path / cli.CACHE_FILENAME).read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "24f1e614bf9ae9cebd1ff8303eff50f51309863973d3225e62bbae7c3430dd1a")
    assert capsys.readouterr().out.count("\n") == 36 * 36


def test_generate_distinct_small_bound():
    entries = generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 60))
    assert [v for _, v in entries] == [1, 2, 4, 6, 24, 56]


def test_numpy_integer_arguments_act_as_python_ints():
    # numpy scalars would run the route rule's arithmetic in int64; a 2 x 300
    # count and a square sweep to 30 take the route
    got = [chocolate_number(np.int64(2), np.int64(5)), chocolate_number(np.int64(300), np.int64(2)),
           chocolate2(np.int64(10))]
    assert got == [chocolate_number(2, 5), chocolate_number(2, 300), chocolate2(10)]
    for kind, bound in ((SequenceKind.SQUARE, 30), (SequenceKind.TWO_BY_N, 150)):
        spec = SequenceSpec(kind, np.int64(bound))
        assert type(spec.bound) is int and spec == SequenceSpec(kind, bound)
        entries = generate(spec)
        assert entries == generate(SequenceSpec(kind, bound))
        got += [v for _, v in entries]
    assert all(type(v) is int for v in got)
    for call in (lambda: chocolate_number(2.0, 5), lambda: chocolate_number(2, 5.0),
                 lambda: chocolate2(3.0), lambda: SequenceSpec(SequenceKind.SQUARE, 3.0)):
        with pytest.raises(TypeError):
            call()


def test_sequence_spec_rejects_bad_bound():
    with pytest.raises(ValueError):
        SequenceSpec(SequenceKind.SQUARE, 0)


def test_sequence_spec_is_an_immutable_value():
    # what a SequenceSpec promises its callers, whatever class implements it
    spec = SequenceSpec(SequenceKind.SQUARE, 3)
    assert spec == SequenceSpec(SequenceKind.SQUARE, 3)
    assert spec != SequenceSpec(SequenceKind.SQUARE, 4)
    assert spec != SequenceSpec(SequenceKind.TWO_BY_N, 3)
    assert spec != (SequenceKind.SQUARE, 3)
    assert hash(spec) == hash(SequenceSpec(SequenceKind.SQUARE, 3))
    assert len({spec, SequenceSpec(SequenceKind.SQUARE, 3), SequenceSpec(SequenceKind.SQUARE, 4)}) == 2
    assert repr(spec) == f"SequenceSpec(kind={SequenceKind.SQUARE!r}, bound=3)"
    for field, value in (("kind", SequenceKind.TABLE), ("bound", 4)):
        with pytest.raises(AttributeError):
            setattr(spec, field, value)
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert (spec.kind, spec.bound) == (SequenceKind.SQUARE, 3)
    assert SequenceSpec(SequenceKind.TABLE, 1).bound == 1
    for bound in (0, -1, -(2**70)):
        with pytest.raises(ValueError, match="bound must be positive"):
            SequenceSpec(SequenceKind.TABLE, bound)


def per_bar_distinct(bound, table):
    """The distinct values <= bound as ``_distinct_values`` found them
    before it filled columns: one ``chocolate_number`` per bar."""
    values, m = set(), 1
    while chocolate_number(m, m, table) <= bound:
        n = m
        while (v := chocolate_number(m, n, table)) <= bound:
            values.add(v)
            n += 1
        m += 1
    return [(i, v) for i, v in enumerate(sorted(values), start=1)]


@pytest.mark.parametrize("bound", [10**10, 10**200, 10**400], ids=["10^10", "10^200", "10^400"])
def test_distinct_values_fill_the_bars_the_per_bar_path_did(bound):
    table, per_bar = ChocolateTable(), ChocolateTable()
    assert generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, bound), table) == \
        per_bar_distinct(bound, per_bar)
    assert table.memo == per_bar.memo and table.computed == per_bar.computed


def fake_table(memo):
    table = ChocolateTable()
    table.memo.update(memo)
    return table


def test_distinct_aborts_on_row_monotonicity_violation():
    table = fake_table({(1, 1): 1, (1, 2): 5, (1, 3): 2})
    with pytest.raises(SequenceFrontierError, match="not nondecreasing"):
        generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 10), table)


def test_distinct_aborts_on_diagonal_violation():
    table = fake_table({(1, 1): 5, (1, 2): 6, (1, 3): 11, (2, 2): 3})
    with pytest.raises(SequenceFrontierError, match="diagonal"):
        generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 10), table)


def test_cache_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.cache"
    save_cache(ChocolateTable(), path)
    assert path.read_text().splitlines() == [chocolate_mod.CACHE_HEADER]
    assert load_cache(path).memo == {}


def test_cache_roundtrip_entries(tmp_path):
    table = ChocolateTable()
    chocolate_number(3, 3, table)
    chocolate_number(2, 5, table)
    path = tmp_path / "table.cache"
    save_cache(table, path)
    reloaded = load_cache(path)
    assert reloaded.memo == table.memo
    assert "2 2 4" in path.read_text().splitlines()


def test_cache_reload_short_circuits_recursion(tmp_path):
    table = ChocolateTable()
    chocolate_number(3, 3, table)
    path = tmp_path / "table.cache"
    save_cache(table, path)
    reloaded = load_cache(path)
    assert reloaded.computed == 0
    assert chocolate_number(3, 3, reloaded) == 9408
    assert reloaded.computed == 0  # answered from the memo, no recursion


def test_failed_cache_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "table.cache"
    table = ChocolateTable()
    chocolate_number(3, 3, table)
    save_cache(table, path)
    before = path.read_bytes()
    chocolate_number(4, 4, table)

    def write_half_then_fail(self, text, encoding=None):
        with open(self, "w", encoding=encoding) as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_cache(table, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.cache"]  # no temp file left


def test_cache_normalizes_transposed_keys(tmp_path):
    path = tmp_path / "flip.cache"
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n3 2 56\n")
    table = load_cache(path)
    assert table.memo == {(2, 3): 56}


def test_cache_rejects_conflicting_entries(tmp_path):
    path = tmp_path / "conflict.cache"
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n2 3 56\n3 2 57\n")
    with pytest.raises(CacheFormatError, match="line 3: 3 x 2 conflicts"):
        load_cache(path)


def test_cache_loads_repeated_identical_entries(tmp_path):
    path = tmp_path / "repeat.cache"
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n2 3 56\n3 2 56\n2 3 56\n")
    assert load_cache(path).memo == {(2, 3): 56}


def test_cache_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.cache"
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n\n2 3 56\n  \n1 1 1\n")
    assert load_cache(path).memo == {(2, 3): 56, (1, 1): 1}
    # blank lines still count towards the reported line number
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n\n2 2\n")
    with pytest.raises(CacheFormatError, match="line 3"):
        load_cache(path)


def test_cache_names_the_line_of_a_non_ascii_byte(tmp_path):
    path = tmp_path / "latin.cache"
    path.write_bytes(f"{chocolate_mod.CACHE_HEADER}\n1 1 1\n2 3 5\xc3\xa96\n".encode("latin-1"))
    with pytest.raises(CacheFormatError, match="line 3: 'ascii' codec can't decode byte 0xc3"):
        load_cache(path)


def test_cache_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("chocnum cache v9\n1 1 1\n")
    with pytest.raises(CacheFormatError, match="header"):
        load_cache(path)


def test_cache_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n1 1 1\n2 2\n")
    with pytest.raises(CacheFormatError, match="line 3"):
        load_cache(path)
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n1 x 1\n")
    with pytest.raises(CacheFormatError, match="line 2"):
        load_cache(path)
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n0 1 1\n")
    with pytest.raises(CacheFormatError, match="positive"):
        load_cache(path)

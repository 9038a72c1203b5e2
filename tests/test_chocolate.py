"""Tests for the exact recursion, the sequence generators, and the cache."""

import functools
import inspect
import math
import sys
from pathlib import Path

import pytest

import chocnum.chocolate as chocolate_mod
import chocnum.cli as cli
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

from reference_values import (
    DISTINCT_PREFIX,
    SQUARE_PREFIX,
    TABLE_5X5,
    TRIANGLE_PREFIX,
    TWO_BY_N_PREFIX,
)


def test_small_table_values():
    table = ChocolateTable()
    for m in range(1, 6):
        for n in range(1, 6):
            assert chocolate_number(m, n, table) == TABLE_5X5[m - 1][n - 1]


@pytest.mark.parametrize(
    "m,n,expected",
    [(2, 2, 4), (1, 1, 1), (3, 3, 9408), (4, 5, 2472100837326848)],
)
def test_chocolate_number_examples(m, n, expected):
    assert chocolate_number(m, n) == expected


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


@pytest.mark.parametrize("n,expected", [(1, 1), (4, 1712), (6, 7918592)])
def test_chocolate2_examples(n, expected):
    assert chocolate2(n) == expected


def test_chocolate2_matches_general_recursion():
    # independent routes, so fresh tables on both sides
    for n in range(1, 101):
        assert chocolate2(n, ChocolateTable()) == chocolate_number(2, n, ChocolateTable())


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
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        assert chocolate_number(2, 300, ChocolateTable()) == chocolate2(300, ChocolateTable())
        assert chocolate_number(40, 3) == expected
        assert cli.main(["factor", "--seq", "table", "--index", "2", "120"]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out.startswith(f"2 120 {chocolate2(120)} ")


def test_chocolate2_prefix():
    table = ChocolateTable()
    assert [chocolate2(n, table) for n in range(1, 12)] == TWO_BY_N_PREFIX


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


def test_generate_triangle_published_prefix():
    entries = generate(SequenceSpec(SequenceKind.TRIANGLE_ROWS, 7))
    assert [v for _, v in entries] == TRIANGLE_PREFIX


def test_generate_two_by_n_prefix():
    entries = generate(SequenceSpec(SequenceKind.TWO_BY_N, 11))
    assert entries == list(enumerate(TWO_BY_N_PREFIX, start=1))


def test_generate_square_prefix():
    entries = generate(SequenceSpec(SequenceKind.SQUARE, 7))
    assert [v for _, v in entries] == SQUARE_PREFIX


def test_generate_distinct_small_bound():
    entries = generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 60))
    assert [v for _, v in entries] == [1, 2, 4, 6, 24, 56]


def test_generate_distinct_published_prefix():
    entries = generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, DISTINCT_PREFIX[-1]))
    assert [v for _, v in entries] == DISTINCT_PREFIX


def test_sequence_spec_rejects_bad_bound():
    with pytest.raises(ValueError):
        SequenceSpec(SequenceKind.SQUARE, 0)


def test_distinct_aborts_on_row_monotonicity_violation(monkeypatch):
    fake = {(1, 1): 1, (1, 2): 5, (1, 3): 2}
    monkeypatch.setattr(
        chocolate_mod, "chocolate_number", lambda m, n, table=None: fake[(m, n)]
    )
    with pytest.raises(SequenceFrontierError, match="not nondecreasing"):
        generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 10))


def test_distinct_aborts_on_diagonal_violation(monkeypatch):
    fake = {(1, 1): 5, (1, 2): 6, (1, 3): 11, (2, 2): 3}
    monkeypatch.setattr(
        chocolate_mod, "chocolate_number", lambda m, n, table=None: fake[(m, n)]
    )
    with pytest.raises(SequenceFrontierError, match="diagonal"):
        generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 10))


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

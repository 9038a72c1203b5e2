"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import chocnum.cli as cli
import chocnum.fill as fill_mod
import chocnum.modular as modular_mod
import chocnum.series as series_mod
from chocnum.chocolate import (
    ChocolateTable,
    chocolate2,
    chocolate_number,
    load_cache,
    save_cache,
)
from chocnum.cli import EXIT_FAILED, EXIT_OK, EXIT_UNRESOLVED, EXIT_USAGE, main
from chocnum.modular import PeriodReport, ScanRecord, chocolate2_mod, hyper_numerators_mod
from chocnum.series import RationalSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- gen


def test_gen_two_by_n_plain(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "b", "--max", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1", "2 4", "3 56", "4 1712", "5 92800"]


def test_gen_distinct_plain(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "distinct", "--limit", "60")
    assert code == EXIT_OK
    assert out.splitlines() == ["1", "2", "4", "6", "24", "56"]


def test_gen_square_and_triangle(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "square", "--max", "3")
    assert code == EXIT_OK and out.splitlines() == ["1 1", "2 4", "3 9408"]
    code, out, _ = run(capsys, "gen", "--seq", "triangle", "--max", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1 1", "1 2 1", "2 1 1", "1 3 2", "2 2 4", "3 1 2"]


def test_gen_table_csv_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "table", "--max", "3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "value"]
    assert rows[1:4] == [["1", "1", "1"], ["1", "2", "1"], ["1", "3", "2"]]
    # re-rendering the parsed rows reproduces the output byte for byte
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    assert buf.getvalue() == out


def test_gen_jsonl_round_trips_big_integers(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "square", "--max", "5", "--format", "jsonl")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1] == {"n": 5, "value": 3947339798331748515840}
    rendered = "".join(json.dumps(r) + "\n" for r in records)
    assert rendered == out
    assert "e+" not in out and "E+" not in out  # decimal only, never scientific


def test_gen_flag_pairing_is_enforced(capsys):
    code, _, err = run(capsys, "gen", "--seq", "distinct", "--max", "4")
    assert code == EXIT_USAGE and "--limit" in err
    code, _, err = run(capsys, "gen", "--seq", "b", "--limit", "4")
    assert code == EXIT_USAGE and "--max" in err
    code, _, err = run(capsys, "gen", "--seq", "b")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "gen", "--seq", "b", "--max", "0")
    assert code == EXIT_USAGE


BELOW_ONE = [
    ("gen", "--seq", "table", "--max", "0"),
    ("gen", "--seq", "distinct", "--limit", "0"),
    ("nu", "--p", "2", "--seq", "b", "--max", "0"),
    ("nu", "--p", "2", "--seq", "table", "--max", "-3"),
    ("mod", "--seq", "b", "--modulus", "3", "--max", "0"),
]


@pytest.mark.parametrize("argv", BELOW_ONE, ids=[" ".join(argv) for argv in BELOW_ONE])
def test_bounds_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_USAGE and out == ""
    assert "must be >= 1" in err


BAD_VALUES = [
    (("mod", "--seq", "b", "--modulus", "x", "--max", "5"), "--modulus"),
    (("mod", "--seq", "b", "--modulus", ",", "--max", "5"), "--modulus"),
    (("gen", "--seq", "b", "--max", "2.5"), "--max"),
]


@pytest.mark.parametrize("argv, flag", BAD_VALUES, ids=[" ".join(argv) for argv, _ in BAD_VALUES])
def test_bad_flag_values_are_readable_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert flag in err and "expected" in err
    assert "_int_list" not in err and "_positive_int" not in err


@contextmanager
def lowest_digit_limit():
    """Python's lowest int <-> str digit limit, 640, where the limit exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
        assert sys.get_int_max_str_digits() == 640  # the caller's limit is back
    finally:
        sys.set_int_max_str_digits(saved)


def test_integers_past_the_digit_limit_print_in_full(capsys, tmp_path):
    table = ChocolateTable()
    values = [chocolate_number(n, n, table) for n in range(1, 21)]
    assert len(str(values[-1])) > 640
    argv = ("gen", "--seq", "square", "--max", "20", "--cache", str(tmp_path))
    with lowest_digit_limit():
        # the first run writes the cache, the others read it back
        runs = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("plain", "csv", "jsonl")}
        reloaded = load_cache(tmp_path / cli.CACHE_FILENAME)
    assert [code for code, _, _ in runs.values()] == [EXIT_OK] * 3
    assert runs["plain"][1].splitlines() == [f"{n} {v}" for n, v in enumerate(values, 1)]
    rows = list(csv.reader(io.StringIO(runs["csv"][1])))
    assert rows == [["n", "value"]] + [[str(n), str(v)] for n, v in enumerate(values, 1)]
    records = [json.loads(line) for line in runs["jsonl"][1].splitlines()]
    assert records == [{"n": n, "value": v} for n, v in enumerate(values, 1)]
    assert reloaded.memo == table.memo


def test_gen_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    code, first, _ = run(
        capsys, "gen", "--seq", "square", "--max", "3", "--cache", str(cache)
    )
    assert code == EXIT_OK
    cache_file = cache / cli.CACHE_FILENAME
    assert cache_file.exists()
    assert "3 3 9408" in cache_file.read_text().splitlines()
    code, second, _ = run(
        capsys, "gen", "--seq", "square", "--max", "3", "--cache", str(cache)
    )
    assert code == EXIT_OK and second == first


def test_gen_warm_read_leaves_the_cache_file_alone(capsys, tmp_path, monkeypatch):
    argv = ("gen", "--seq", "square", "--max", "4", "--cache", str(tmp_path))
    cache_file = tmp_path / cli.CACHE_FILENAME
    assert run(capsys, *argv)[0] == EXIT_OK
    before = cache_file.stat()
    code, first, _ = run(capsys, *argv)
    after = cache_file.stat()
    assert code == EXIT_OK and first.startswith("1 1\n2 4\n")
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def no_write(*_):
        raise PermissionError("cache directory is read-only")

    # so a warm read works where the cache cannot be written
    with monkeypatch.context() as m:
        m.setattr(cli, "save_cache", no_write)
        assert run(capsys, *argv)[:2] == (EXIT_OK, first)
    # a run that adds bars still rewrites the file
    code, _, _ = run(capsys, "gen", "--seq", "square", "--max", "5", "--cache", str(tmp_path))
    assert code == EXIT_OK and cache_file.stat().st_ino != before.st_ino
    assert load_cache(cache_file).memo[(5, 5)] == chocolate_number(5, 5)


def test_a_shorter_sweep_of_a_routed_square_cache_leaves_the_file_alone(capsys, tmp_path):
    # the routed sweep to 34 caches the squares alone; a sweep to 30 lacks
    # none of them, so it fills no bar off the diagonal and writes nothing
    cache_file = tmp_path / cli.CACHE_FILENAME
    assert run(capsys, "gen", "--seq", "square", "--max", "34", "--cache", str(tmp_path))[0] == EXIT_OK
    before = cache_file.stat(), cache_file.read_bytes()
    assert before[1].count(b"\n") == 1 + 34
    code, out, _ = run(capsys, "gen", "--seq", "square", "--max", "30", "--cache", str(tmp_path))
    after = cache_file.stat(), cache_file.read_bytes()
    assert code == EXIT_OK and out.count("\n") == 30
    assert (after[0].st_ino, after[0].st_mtime_ns, after[1]) == (
        before[0].st_ino, before[0].st_mtime_ns, before[1])


class CutMemo(dict):
    """A memo whose fill is cut by Ctrl-C when it would store bar 21."""

    def __setitem__(self, key, value):
        if len(self) == 20:
            raise KeyboardInterrupt
        super().__setitem__(key, value)


def test_gen_cache_keeps_the_work_of_an_interrupted_fill(capsys, tmp_path, monkeypatch):
    argv = ("gen", "--seq", "b", "--max", "60", "--cache")
    tables = []

    def recorded(table):
        tables.append(table)
        return table

    monkeypatch.setattr(cli, "ChocolateTable", lambda: recorded(ChocolateTable()))
    code, cold_out, _ = run(capsys, *argv, str(tmp_path / "cold"))
    assert code == EXIT_OK and tables[-1].computed == 59

    def cut_table():
        table = ChocolateTable()
        table.memo = CutMemo()
        return table

    monkeypatch.setattr(cli, "ChocolateTable", cut_table)
    cache = tmp_path / "cut"
    assert run(capsys, *argv, str(cache)) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    kept = load_cache(cache / cli.CACHE_FILENAME).memo
    assert len(kept) == 20 and kept.items() <= tables[-1].memo.items()

    monkeypatch.setattr(cli, "load_cache", lambda path: recorded(load_cache(path)))
    assert run(capsys, *argv, str(cache))[:2] == (EXIT_OK, cold_out)
    assert tables[-1].computed == 59 - 20


def test_an_interrupted_table_sweep_caches_only_finished_bars(capsys, tmp_path, monkeypatch):
    # the table is one fill of the 78 bars a <= b <= 12; Ctrl-C cuts it when
    # it would store bar 21, and a rerun fills only the bars it lacks
    argv = ("gen", "--seq", "table", "--max", "12", "--cache")
    code, cold_out, _ = run(capsys, *argv, str(tmp_path / "cold"))
    cold = load_cache(tmp_path / "cold" / cli.CACHE_FILENAME).memo
    assert code == EXIT_OK and len(cold) == 78

    def cut_table():
        table = ChocolateTable()
        table.memo = CutMemo()
        return table

    monkeypatch.setattr(cli, "ChocolateTable", cut_table)
    cache = tmp_path / "cut"
    assert run(capsys, *argv, str(cache)) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    kept = load_cache(cache / cli.CACHE_FILENAME).memo
    assert len(kept) == 20 and kept.items() <= cold.items()

    tables = []

    def recorded(path):
        tables.append(load_cache(path))
        return tables[-1]

    monkeypatch.setattr(cli, "load_cache", recorded)
    assert run(capsys, *argv, str(cache))[:2] == (EXIT_OK, cold_out)
    assert tables[-1].computed == 78 - 20


def test_ctrl_c_in_a_routed_sweep_leaves_the_cache_as_it_was(capsys, tmp_path, monkeypatch):
    # an empty cache loads an empty memo, so the sweep takes the residue
    # fill, whose values reach the memo only when it ends
    def cut(*args):
        raise KeyboardInterrupt

    cache = tmp_path / cli.CACHE_FILENAME
    save_cache(ChocolateTable(), cache)
    before = cache.stat(), cache.read_bytes()
    monkeypatch.setattr(fill_mod, "fill_chunk", cut)
    argv = ("gen", "--seq", "b", "--max", "300", "--cache", str(tmp_path))
    assert run(capsys, *argv) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    after = cache.stat(), cache.read_bytes()
    assert (after[0].st_ino, after[0].st_mtime_ns, after[1]) == (
        before[0].st_ino, before[0].st_mtime_ns, before[1])


def test_out_of_memory_ends_in_one_stderr_line(capsys, monkeypatch):
    def exhausted(n_max, moduli):
        raise MemoryError

    monkeypatch.setattr(modular_mod, "chocolate2_mod_many", exhausted)
    code, out, err = run(capsys, "mod", "--seq", "b", "--modulus", "9", "--max", "5")
    assert (code, out, err) == (cli.EXIT_OUT_OF_MEMORY, "", "error: out of memory\n")
    assert "4 out of memory" in run(capsys, "--help")[1]


RLIMIT_PROBE = """
import resource, sys
import numpy, chocnum.cli as cli, chocnum.fill as fill
fill._plan(40, 40)
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) << 10
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, hard))
{run}
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmSize from /proc")
def test_a_fresh_40_x_40_fills_under_an_address_space_limit():
    # children whose numpy, fill and plan are loaded, then limited to their
    # size plus a headroom: 3 MiB holds the fill's 2 MiB block and what the
    # fold needs besides, but not a second block at once, and 1 MiB not one
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def child(headroom, run):
        probe = RLIMIT_PROBE.format(headroom=headroom, run=run)
        return subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)

    table = ChocolateTable()
    chocolate_number(1, 1, table)
    answered = child(3 << 20, "print(hex(cli.chocolate_number(40, 40)))")
    assert answered.returncode == 0, answered.stderr
    assert int(answered.stdout, 16) == chocolate_number(40, 40, table)
    failed = child(1 << 20, "sys.exit(cli.main('factor --seq table --index 40 40'.split()))")
    assert (failed.returncode, failed.stdout, failed.stderr) == (
        cli.EXIT_OUT_OF_MEMORY, "", "error: out of memory\n")


def test_gen_cache_env_var_names_default_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(capsys, "gen", "--seq", "b", "--max", "3")
    assert code == EXIT_OK
    assert (tmp_path / cli.CACHE_FILENAME).exists()


def test_gen_corrupt_cache_is_a_usage_error(capsys, tmp_path):
    (tmp_path / cli.CACHE_FILENAME).write_text("garbage header\n")
    code, _, err = run(
        capsys, "gen", "--seq", "b", "--max", "3", "--cache", str(tmp_path)
    )
    assert code == EXIT_USAGE and "header" in err


def test_gen_conflicting_cache_is_a_usage_error(capsys, tmp_path):
    (tmp_path / cli.CACHE_FILENAME).write_text("chocnum cache v1\n2 3 56\n3 2 57\n")
    code, out, err = run(
        capsys, "gen", "--seq", "table", "--max", "3", "--cache", str(tmp_path)
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "line 3" in err


# ---------------------------------------------------------------- oracle


def test_oracle_plain_and_compare(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--n", "3")
    assert code == EXIT_OK and out.strip() == "56"
    code, out, _ = run(capsys, "oracle", "--m", "2", "--n", "2", "--compare")
    assert code == EXIT_OK and out.strip() == "4 == 4"


def test_oracle_compare_fails_loudly_on_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_sequences", lambda m, n, limit: 99)
    code, out, err = run(capsys, "oracle", "--m", "2", "--n", "2", "--compare")
    assert code == EXIT_FAILED
    assert out.strip() == "99 != 4"
    assert "mismatch" in err


def test_oracle_rejects_oversized_area(capsys):
    code, _, err = run(capsys, "oracle", "--m", "4", "--n", "4")
    assert code == EXIT_USAGE and "area" in err


def test_oracle_area_limit_flag_admits_a_bigger_bar(capsys):
    argv = ("oracle", "--m", "2", "--n", "7", "--compare")
    code, out, _ = run(capsys, *argv, "--area-limit", "14")
    assert code == EXIT_OK and out.strip() == "984237056 == 984237056"
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "area" in err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_oracle_area_limit_must_be_positive(capsys, limit):
    code, out, err = run(capsys, "oracle", "--m", "2", "--n", "2", "--area-limit", limit)
    assert code == EXIT_USAGE and out == ""
    assert f"argument --area-limit: must be >= 1, got {limit}" in err


# ---------------------------------------------------------------- factor


def test_factor_two_by_n(capsys):
    code, out, _ = run(capsys, "factor", "--seq", "b", "--index", "4")
    assert code == EXIT_OK and out.strip() == "4 1712 2^4 * 107"


def test_factor_table(capsys):
    code, out, _ = run(capsys, "factor", "--seq", "table", "--index", "4", "4")
    assert code == EXIT_OK
    assert out.strip() == "4 4 63352393728 2^12 * 3 * 13 * 19 * 20873"


@pytest.mark.parametrize("n", [4, 150])
def test_factor_two_by_n_is_the_table_entry_2_x_n(capsys, n):
    # one dispatch: 2 x 150 is above the residue route's crossover
    code, out, _ = run(capsys, "factor", "--seq", "b", "--index", str(n))
    assert code == EXIT_OK
    _, table_out, _ = run(capsys, "factor", "--seq", "table", "--index", "2", str(n))
    assert table_out.split()[:2] == ["2", str(n)]
    assert out.split() == table_out.split()[1:]
    assert int(out.split()[1]) == chocolate2(n)
    code, _, err = run(capsys, "factor", "--seq", "b", "--index", "0")
    assert code == EXIT_USAGE and err.startswith("error: ")


def test_factor_index_arity_is_checked(capsys):
    code, _, err = run(capsys, "factor", "--seq", "b", "--index", "4", "4")
    assert code == EXIT_USAGE and "--index N" in err
    code, _, err = run(capsys, "factor", "--seq", "table", "--index", "4")
    assert code == EXIT_USAGE


# -------------------------------------------------------------------- nu


def test_nu_with_bound_check(capsys):
    code, out, _ = run(
        capsys, "nu", "--p", "2", "--seq", "b", "--max", "11",
        "--check-bound", "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0] == {"n": "1", "nu": "0", "bound": "-", "ok": "true"}
    assert rows[4] == {"n": "5", "nu": "7", "bound": "5", "ok": "true"}
    assert all(r["ok"] == "true" for r in rows)


def test_nu_bound_check_reports_a_violation(capsys, monkeypatch):
    import chocnum.arith as arith_mod

    monkeypatch.setattr(arith_mod, "nu_p", lambda value, p: 0)
    code, out, err = run(
        capsys, "nu", "--p", "2", "--seq", "b", "--max", "4",
        "--check-bound", "--format", "csv",
    )
    assert code == EXIT_FAILED
    assert err == "valuation bound violated\n"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["ok"] for r in rows] == ["true", "false", "false", "false"]


def test_nu_table_plain(capsys):
    code, out, _ = run(capsys, "nu", "--p", "2", "--seq", "table", "--max", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1 0", "1 2 0", "2 1 0", "2 2 2"]


def test_nu_bound_check_requires_p2(capsys):
    code, _, err = run(
        capsys, "nu", "--p", "3", "--seq", "b", "--max", "5", "--check-bound"
    )
    assert code == EXIT_USAGE and "p=2" in err


def test_nu_rejects_composite_p(capsys):
    code, _, err = run(capsys, "nu", "--p", "4", "--seq", "b", "--max", "5")
    assert code == EXIT_USAGE and "prime" in err


# ------------------------------------------------------------------- mod


def test_mod_multiple_moduli_in_input_order(capsys):
    code, out, _ = run(
        capsys, "mod", "--seq", "b", "--modulus", "3,5", "--max", "4"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:4] == ["b 3 1 1", "b 3 2 1", "b 3 3 2", "b 3 4 2"]
    assert lines[4:] == ["b 5 1 1", "b 5 2 4", "b 5 3 1", "b 5 4 2"]


def test_mod_grouped_moduli_print_like_single_runs(capsys):
    # 9, 3 and 8 share a Pascal-row pass mod 72, and 999983 runs alone on
    # the scaled route; the output follows the input, repeats included
    moduli = (9, 3, 9, 999_983, 8)
    code, out, _ = run(capsys, "mod", "--seq", "b", "--modulus",
                       ",".join(map(str, moduli)), "--max", "400")
    assert code == EXIT_OK
    singles = [run(capsys, "mod", "--seq", "b", "--modulus", str(m), "--max", "400")
               for m in moduli]
    assert out == "".join(single_out for _, single_out, _ in singles)
    assert out.splitlines() == [f"b {m} {n} {r}" for m in moduli
                                for n, r in enumerate(chocolate2_mod(400, m), start=1)]


def test_mod_rejects_a_modulus_below_two_in_a_list(capsys):
    code, out, err = run(capsys, "mod", "--seq", "b", "--modulus", "9,1", "--max", "40")
    assert code == EXIT_USAGE and out == ""
    assert "modulus must be >= 2, got 1" in err


def test_mod_hyper_numerators(capsys):
    code, out, _ = run(capsys, "mod", "--seq", "p", "--modulus", "7", "--max", "1")
    assert code == EXIT_OK and out.strip() == "p 7 1 3"


def test_mod_matches_library(capsys):
    code, out, _ = run(
        capsys, "mod", "--seq", "p", "--modulus", "9", "--max", "20",
        "--format", "jsonl",
    )
    assert code == EXIT_OK
    residues = [json.loads(line)["residue"] for line in out.splitlines()]
    assert residues == hyper_numerators_mod(20, 9)


# ---------------------------------------------------------------- period


def test_period_resolved(capsys):
    code, out, _ = run(
        capsys, "period", "--seq", "p", "--modulus", "3", "--max", "60",
        "--format", "jsonl",
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["resolved"] is True
    assert rec["period"] == 3 and rec["preperiod"] == 0
    assert rec["eventually_zero"] is False


def test_period_hint_pp1(capsys):
    code, out, _ = run(
        capsys, "period", "--seq", "p", "--modulus", "7", "--max", "210",
        "--hint-pp1", "--format", "jsonl",
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["period"] == 7


def test_period_hint_pp1_large_prime_is_quick(capsys):
    # --hint-pp1 is accepted and changes nothing, even where p(p-1) is about 10^8
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "period", "--seq", "p", "--modulus", "10007", "--max", "300",
        "--hint-pp1", "--format", "jsonl",
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_UNRESOLVED
    rec = json.loads(out)
    assert rec["modulus"] == 10007 and rec["resolved"] is False
    _, unhinted, _ = run(
        capsys, "period", "--seq", "p", "--modulus", "10007", "--max", "300",
        "--format", "jsonl",
    )
    assert unhinted == out


def test_period_hint_pp1_large_composite_is_quick(capsys):
    # m(m-1) is about 10^24; the ignored hint must not make it slow
    argv = ("period", "--seq", "b", "--modulus", "1000000000000", "--max", "300")
    start = time.perf_counter()
    code, hinted, _ = run(capsys, *argv, "--hint-pp1")
    assert time.perf_counter() - start < 2.0
    assert (code, hinted) == run(capsys, *argv)[:2]


def test_period_unresolved_exit_code(capsys):
    code, out, _ = run(
        capsys, "period", "--seq", "b", "--modulus", "13", "--max", "100",
        "--format", "jsonl",
    )
    assert code == EXIT_UNRESOLVED
    rec = json.loads(out)
    assert rec["resolved"] is False and rec["period"] is None


def test_period_eventually_zero(capsys):
    code, out, _ = run(
        capsys, "period", "--seq", "b", "--modulus", "11", "--max", "40",
        "--format", "jsonl",
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["eventually_zero"] is True and rec["preperiod"] == 5


# ---------------------------------------------------------------- series


def test_series_riccati(capsys):
    code, out, _ = run(capsys, "series", "--check", "riccati", "--order", "20")
    assert code == EXIT_OK and out.strip() == "residual zero through order 19"


def test_series_ode_and_hypergeom(capsys):
    code, out, _ = run(capsys, "series", "--check", "ode", "--order", "12")
    assert code == EXIT_OK and out.strip() == "identity holds through order 11"
    code, out, _ = run(capsys, "series", "--check", "hypergeom", "--order", "12")
    assert code == EXIT_OK and out.strip() == "residual zero through order 12"


def test_series_ode_failure(capsys, monkeypatch):
    monkeypatch.setattr(series_mod, "verify_linear_ode", lambda order: False)
    code, out, _ = run(capsys, "series", "--check", "ode", "--order", "12")
    assert code == EXIT_FAILED and out == "linear ODE residual nonzero\n"


@pytest.mark.parametrize("check", ["riccati", "hypergeom"])
def test_series_residual_failure_names_the_first_nonzero_order(capsys, monkeypatch,
                                                               check):
    residual = RationalSeries((0, 0, Fraction(1, 3), 5))
    monkeypatch.setattr(series_mod, "riccati_residual", lambda order: residual)
    monkeypatch.setattr(series_mod, "verify_log_derivative", lambda order: (False, residual))
    code, out, _ = run(capsys, "series", "--check", check, "--order", "12")
    assert code == EXIT_FAILED and out == "residual nonzero at order 2: 1/3\n"


def test_series_rejects_tiny_order(capsys):
    for order in ("0", "1", "2"):
        code, out, err = run(capsys, "series", "--check", "riccati", "--order", order)
        assert code == EXIT_USAGE and out == ""
        assert f"order must be >= 3, got {order}" in err


# ------------------------------------------------------------ conjecture


def test_conjecture_consistent_run(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--id", "1", "--primes", "2,3,5,11", "--max", "200",
        "--format", "jsonl",
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["modulus"] for r in records] == [2, 3, 5, 11]
    assert all(r["status"] == "CONSISTENT" for r in records)


def test_conjecture_unresolved_exit_code(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--id", "2", "--primes", "13", "--max", "150"
    )
    assert code == EXIT_UNRESOLVED


def test_conjecture_inconsistent_exit_code(capsys, monkeypatch):
    fake = [1, 2, 1] + [0] * 297
    monkeypatch.setattr(modular_mod, "chocolate2_mod", lambda n, m: fake[:n])
    code, out, _ = run(
        capsys, "conjecture", "--id", "1", "--primes", "3", "--max", "300",
        "--format", "csv",
    )
    assert code == EXIT_FAILED
    assert "INCONSISTENT" in out


def test_conjecture_keeps_order_and_repeated_moduli(capsys):
    code, out, _ = run(capsys, "conjecture", "--id", "2", "--primes", "12,4,12",
                       "--max", "300")
    singles = [run(capsys, "conjecture", "--id", "2", "--primes", str(m), "--max", "300")
               for m in (12, 4, 12)]
    assert code == EXIT_OK and all(c == EXIT_OK for c, _, _ in singles)
    assert out == "".join(single_out for _, single_out, _ in singles)
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == ["12", "4", "12"]
    assert lines[0] == lines[2]


def test_conjecture3_on_a_large_prime_is_quick():
    # p(p-1) is about 10^18: nothing may scale with p, only with --max
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ("conjecture", "--id", "3", "--primes", "1000000007", "--max", "100")
    proc = subprocess.run([sys.executable, "-m", "chocnum.cli", *argv], env=env,
                          capture_output=True, timeout=10)
    assert proc.returncode == EXIT_UNRESOLVED
    assert proc.stdout.startswith(b"3 1000000007 100 UNRESOLVED - - ")


def test_conjecture3_on_an_eighteen_digit_prime_is_quick():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ("conjecture", "--id", "3", "--primes", "1000000000000000003", "--max", "100")
    proc = subprocess.run([sys.executable, "-m", "chocnum.cli", *argv], env=env,
                          capture_output=True, timeout=10)
    assert proc.returncode == EXIT_UNRESOLVED
    assert proc.stdout.startswith(b"3 1000000000000000003 100 UNRESOLVED - - ")


def test_conjecture_csv_round_trips(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--id", "3", "--primes", "3,7", "--max", "600",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["conjecture", "modulus", "n_max", "status", "preperiod",
                       "period", "notes"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    assert buf.getvalue() == out


# ------------------------------------------------------------------ misc


@pytest.mark.parametrize("argv,digest", [
    ("mod --seq b --modulus 2,9,43,999983,55447790 --max 3000",
     "5c6faf190eeb94699e708f497a29bbc2aff235cc627ed16f96dc0e8216f3a609"),
    ("mod --seq b --modulus 8,12,3999932 --max 3000",
     "2fb66a3027028eccae9299cdc9a55c8f162cfe8ee3131d1f807c341fb6ddca56"),
    ("conjecture --id 2 --primes 4,6,8,10 --max 1500",
     "ce729ae6620d66ef58930de7e3842b5dba0a15b2b1913e70cf800bbf2317ee15"),
    # above the int64-dot bound: the scaled route's limb inner products,
    # one per step over one array of limbs
    ("mod --seq b --modulus 3037000493,3037000507,4294967311 --max 3000",
     "d653ab4b4eb8a26ec3c8e4ff7a45453683e5e76c7cc7a4a039a3c39c8593c64b"),
    # mixed moduli: 9 * 337 444 501 and 43 * 999 983 walk Pascal rows mod 9
    # and 43 only; the digest is that of whole moduli on Pascal rows
    ("mod --seq b --modulus 3037000509,42999269 --max 3000",
     "5bf207ec5ad4e8dc32abe1b8951406416f13424f1fc3c5d5847d133f08aae1d5"),
    # smooth moduli, one Pascal pass each: the "int64" arm mod 10^9 and the
    # "object" arm mod 10^12, which stop at their certified zero tails, at
    # n = 125 and n = 151
    ("mod --seq b --modulus 1000000000,1000000000000 --max 1200",
     "15d5485c84c1bd2165768470bafc6a4406019d2a0d636c011e87ef7050f873b9"),
    # zero tails: Pascal rows mod 41 stop at n = 1681, the scaled limbs mod
    # 2^40 after 22 steps, and 11 * 3 037 000 507 joins Pascal rows mod 11,
    # stopped at n = 11, to a full scaled pass; recorded before the kernels
    # stopped, so the stop changes no residue
    ("mod --seq b --modulus 41,1099511627776,33407005577 --max 3000",
     "48f3906e8296bc8601b6c299de480b9006aa8e9410163d4bafa796cd727432fe"),
    # odd parts below 2n, with and without 2^30, walk Pascal rows whole: 3
    # and 12 share one pass mod 12 on the "int64-dot" arm, and 3 * 2^30 runs
    # alone on the "object" arm; recorded when such odd parts skipped the
    # running factorial of the plan
    ("mod --seq b --modulus 3,12,3221225472 --max 1200",
     "aebe9684e6dc2952f10c4cc0d2dd8dda1fce96b70396c1c422d018583914bc9d"),
    # the longest 2 x n sweep that stays on chocolate2 (101 takes the residue
    # route); recorded when chocolate2 summed whole values, not odd parts
    ("gen --seq b --max 100",
     "cf9770b554d85b1b00bd3d7e7c1a846f9eac45069db4584b8ad9180fdc3c26fe"),
    # the longest square sweep that stays on big integers (28 takes the
    # residue route); recorded when the sweep counted one square at a time
    ("gen --seq square --max 27",
     "2e52cd87e8ea42c0fb4bf571f0fcd326690575db5a449963612083ba0285f944"),
    # sweeps that take every value from one residue fill of their largest
    # bar; recorded on the big-integer sweeps
    ("gen --seq b --max 300",
     "ea0dc484409ea48ee4a0cb72edb3983e87e92ebe7d4593bd33894ba40ca43a39"),
    ("gen --seq square --max 34",
     "e438303939798106fc22aa2a79ba729112600a067bcc4710b393899a5ac0552f"),
    # two chunks of the fill; recorded when the same sweep took four
    ("gen --seq square --max 40",
     "708627e8532fe5f6bc128c414002d049deea5b2278d299da7710443ad50e7ef3"),
    # sweeps that fill each bar once on big integers; recorded on the sweeps
    # that filled bar by bar
    ("gen --seq triangle --max 43",
     "48781bf3e2570e2b3cd7762cd0c28826e37119c2aa644fb38c5c8917635ddeae"),
    ("gen --seq table --max 36",
     "f08c17dd4acfef08ec38717ffc8d7d4393f15757573ce913e3b0de8cd7785555"),
])
def test_stdout_matches_the_ci_digest(capsys, argv, digest):
    # the sha256 digests that the CI smoke step checks for these commands
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def listed_fields(help_text):
    """{variant: (fields, note)} from the csv/jsonl section of --help."""
    section = help_text.split("csv/jsonl fields per subcommand:\n")[1].split("\n\n")[0]
    listed = {}
    for line in section.splitlines():
        parts = re.split(r"\s{2,}", line.strip())
        if line.startswith("   "):  # a wrapped field list continues
            text, note = listed[variant]
            listed[variant] = (text + parts[0], note)
        else:
            variant = parts[0]
            listed[variant] = (parts[1], parts[2] if len(parts) > 2 else None)
    return {v: (text.split(","), note) for v, (text, note) in listed.items()}


def test_literal_record_fields_are_the_dataclass_fields():
    # spelled out in cli so that --help does not import modular
    assert cli.FIELDS["period"] == ("seq", "modulus", "n_max",
                                    *(f.name for f in dataclasses.fields(PeriodReport)))
    assert cli.FIELDS["conjecture"] == tuple(f.name for f in dataclasses.fields(ScanRecord))


FIELD_CASES = [
    ("gen --seq table|triangle", ("gen", "--seq", "table", "--max", "2")),
    ("gen --seq table|triangle", ("gen", "--seq", "triangle", "--max", "2")),
    ("gen --seq b|square", ("gen", "--seq", "b", "--max", "2")),
    ("gen --seq b|square", ("gen", "--seq", "square", "--max", "2")),
    ("gen --seq distinct", ("gen", "--seq", "distinct", "--limit", "5")),
    ("factor --seq b", ("factor", "--seq", "b", "--index", "4")),
    ("factor --seq table", ("factor", "--seq", "table", "--index", "2", "3")),
    ("nu --seq b|square", ("nu", "--p", "2", "--seq", "b", "--max", "3")),
    ("nu --seq b|square", ("nu", "--p", "2", "--seq", "square", "--max", "3")),
    ("nu --seq table", ("nu", "--p", "2", "--seq", "table", "--max", "3")),
    ("mod", ("mod", "--seq", "p", "--modulus", "7", "--max", "3")),
    ("period", ("period", "--seq", "b", "--modulus", "11", "--max", "40")),
    ("conjecture", ("conjecture", "--id", "1", "--primes", "11", "--max", "100")),
]


@pytest.mark.parametrize("variant,argv", FIELD_CASES,
                         ids=[" ".join(argv) for _, argv in FIELD_CASES])
def test_csv_header_is_the_field_list_in_help(capsys, variant, argv):
    _, help_text, _ = run(capsys, "--help")
    listed = listed_fields(help_text)
    assert set(listed) == {v for v, _ in FIELD_CASES}  # every listed variant is run
    fields, note = listed[variant]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert next(csv.reader(io.StringIO(out))) == fields
    if argv[0] != "nu":
        assert note is None
        return
    assert note == "(+ bound,ok with --check-bound)"
    code, out, _ = run(capsys, *argv, "--check-bound", "--format", "csv")
    assert code == EXIT_OK
    assert next(csv.reader(io.StringIO(out))) == fields + ["bound", "ok"]


def test_unknown_command_is_a_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--seq", "nonsense", "--max", "3")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "exit codes" in out


def test_data_on_stdout_errors_on_stderr(capsys):
    _, out, err = run(capsys, "oracle", "--m", "9", "--n", "9")
    assert out == "" and err != ""


NUMPY_PROBE = """
import contextlib, io, sys
from chocnum import chocolate2, chocolate_number
from chocnum.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()

run("--help")
run("gen", "--seq", "b", "--max", "5")
run("gen", "--seq", "table", "--max", "10")
run("gen", "--seq", "square", "--max", "27")  # below the sweep route
run("gen", "--seq", "b", "--max", "100")
run("factor", "--seq", "b", "--index", "5")
run("factor", "--seq", "table", "--index", "4", "5")
run("oracle", "--m", "2", "--n", "3", "--compare")
run("nu", "--p", "2", "--seq", "b", "--max", "5")
run("series", "--check", "riccati", "--order", "10")
run("mod", "--seq", "p", "--modulus", "7", "--max", "5")
run("period", "--seq", "p", "--modulus", "7", "--max", "60")
chocolate_number(2, 100)  # below the residue route's crossover
assert "numpy" not in sys.modules, "numpy loaded without a residue scan or a long bar"
"""

# each loads numpy; the probe above must not
NUMPY_LOADERS = {
    "the residue scan": """
residues = run("mod", "--seq", "b", "--modulus", "9", "--max", "5")
assert residues == "b 9 1 1\\nb 9 2 4\\nb 9 3 2\\nb 9 4 2\\nb 9 5 1\\n", residues
""",
    "the residue route": """
assert chocolate_number(2, 300) == chocolate2(300)
""",
    "the sweep route": """
run("gen", "--seq", "square", "--max", "28")
""",
}


def test_only_residue_scans_load_numpy():
    # fresh interpreters, since this one has long since imported numpy
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop(cli.CACHE_ENV, None)
    for name, loader in NUMPY_LOADERS.items():
        probe = f"{NUMPY_PROBE}{loader}assert 'numpy' in sys.modules, '{name} ran without numpy'\n"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


IMPORT_PROBE = """
import contextlib, io, sys
import chocnum.cli

argv = {argv!r}
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert chocnum.cli.main(argv) == 0, argv
print(sorted(name for name in {watched!r} if name in sys.modules))
"""
WATCHED = ("chocnum.arith", "chocnum.fill", "chocnum.modular", "chocnum.series", "numpy",
           "fractions", "json", "csv")


IMPORT_CASES = [
    ((), []),
    (("--help",), []),
    (("gen", "--seq", "b", "--max", "5"), []),
    (("gen", "--seq", "b", "--max", "5", "--format", "csv"), ["csv"]),
    (("gen", "--seq", "b", "--max", "5", "--format", "jsonl"), ["json"]),
    (("gen", "--seq", "b", "--max", "101"), ["chocnum.arith", "chocnum.fill", "numpy"]),
    (("oracle", "--m", "2", "--n", "3", "--compare"), []),
    (("factor", "--seq", "b", "--index", "5"), ["chocnum.arith"]),
    (("nu", "--p", "2", "--seq", "b", "--max", "5"), ["chocnum.arith"]),
    (("mod", "--seq", "p", "--modulus", "7", "--max", "5"),
     ["chocnum.arith", "chocnum.modular"]),
    (("period", "--seq", "p", "--modulus", "7", "--max", "60"),
     ["chocnum.arith", "chocnum.modular"]),
    (("mod", "--seq", "b", "--modulus", "9", "--max", "5"),
     ["chocnum.arith", "chocnum.fill", "chocnum.modular", "numpy"]),
    (("series", "--check", "ode", "--order", "10"), ["chocnum.series", "fractions"]),
]


@pytest.mark.parametrize("argv, loaded", IMPORT_CASES,
                         ids=[" ".join(argv) or "import" for argv, _ in IMPORT_CASES])
def test_each_subcommand_imports_only_what_it_runs(argv, loaded):
    # fresh interpreters compiling from source, as a process without cached
    # bytecode starts
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop(cli.CACHE_ENV, None)
    probe = IMPORT_PROBE.format(argv=list(argv), watched=WATCHED)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


@pytest.mark.parametrize("argv, first_line", [
    (("mod", "--seq", "p", "--modulus", "7", "--max", "20000"), b"p 7 1 3\n"),
    (("gen", "--seq", "b", "--max", "300", "--format", "jsonl"), b'{"n": 1, "value": 1}\n'),
], ids=["mod", "gen"])
def test_closed_stdout_pipe_exits_quietly(argv, first_line):
    # the reader takes one line and goes away, as `| head -1` does; the
    # output is well past a pipe buffer, so the writer sees the pipe close
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "chocnum.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_interrupt_exits_130_without_a_traceback():
    # the first line comes from the child's first flush of megabytes of
    # output, so SIGINT reaches it inside main, still writing.  A shell
    # starts a background job with SIGINT ignored, and Python keeps that, so
    # the child restores Ctrl-C's KeyboardInterrupt as a foreground run has
    # it; a child that inherited SIG_IGN would write everything and exit 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ("mod", "--seq", "p", "--modulus", "7", "--max", "200000")
    interruptible = ("import signal, sys; "
                     "signal.signal(signal.SIGINT, signal.default_int_handler); "
                     "import chocnum.cli; sys.exit(chocnum.cli.main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", interruptible, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"p 7 1 3\n"
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert err == b"interrupted\n"  # one line, no traceback

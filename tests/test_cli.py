"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import hashlib
import io
import json
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import chocnum.chocolate as chocolate_mod
import chocnum.cli as cli
import chocnum.fill as fill_mod
import chocnum.modular as modular_mod
import chocnum.oracle as oracle_mod
import chocnum.series as series_mod
from chocnum.chocolate import (
    ChocolateTable,
    chocolate2,
    SequenceKind,
    SequenceSpec,
    chocolate_number,
    generate,
    load_cache,
    save_cache,
)
from chocnum.cli import EXIT_FAILED, EXIT_OK, EXIT_UNRESOLVED, EXIT_USAGE, main
from chocnum.modular import PeriodReport, ScanRecord, chocolate2_mod
from chocnum.series import RationalSeries

from shared import lowest_digit_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- gen


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


def test_integers_past_the_digit_limit_print_in_full(capsys, tmp_path):
    table, swept = ChocolateTable(), ChocolateTable()
    values = [chocolate_number(n, n, table) for n in range(1, 21)]
    assert len(str(values[-1])) > 640
    generate(SequenceSpec(SequenceKind.SQUARE, 20), swept)  # the memo gen leaves
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
    assert reloaded.memo == swept.memo


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_a_failed_cache_load_gives_the_digit_limit_back(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text(f"{chocolate_mod.CACHE_HEADER}\n2 3\n")
    with lowest_digit_limit(), pytest.raises(chocolate_mod.CacheFormatError):
        load_cache(path)


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
        m.setattr(chocolate_mod, "save_cache", no_write)
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


def cut_table():
    """A fresh table whose memo is a CutMemo."""
    table = ChocolateTable()
    table.memo = CutMemo()
    return table


def test_gen_cache_keeps_the_work_of_an_interrupted_fill(capsys, tmp_path, monkeypatch):
    argv = ("gen", "--seq", "b", "--max", "60", "--cache")
    tables = []

    def recorded(table):
        tables.append(table)
        return table

    # the gen handler takes its tables from chocolate's names when it runs
    with monkeypatch.context() as m:
        m.setattr(chocolate_mod, "ChocolateTable", lambda: recorded(ChocolateTable()))
        code, cold_out, _ = run(capsys, *argv, str(tmp_path / "cold"))
    assert code == EXIT_OK and tables[-1].computed == 59

    cache = tmp_path / "cut"
    with monkeypatch.context() as m:
        m.setattr(chocolate_mod, "ChocolateTable", cut_table)
        assert run(capsys, *argv, str(cache)) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    kept = load_cache(cache / cli.CACHE_FILENAME).memo
    assert len(kept) == 20 and kept.items() <= tables[-1].memo.items()

    monkeypatch.setattr(chocolate_mod, "load_cache", lambda path: recorded(load_cache(path)))
    assert run(capsys, *argv, str(cache))[:2] == (EXIT_OK, cold_out)
    assert tables[-1].computed == 59 - 20


def test_an_interrupted_table_sweep_caches_only_finished_bars(capsys, tmp_path, monkeypatch):
    # the table is one fill of the 78 bars a <= b <= 12; Ctrl-C cuts it when
    # it would store bar 21, and a rerun fills only the bars it lacks
    argv = ("gen", "--seq", "table", "--max", "12", "--cache")
    code, cold_out, _ = run(capsys, *argv, str(tmp_path / "cold"))
    cold = load_cache(tmp_path / "cold" / cli.CACHE_FILENAME).memo
    assert code == EXIT_OK and len(cold) == 78

    cache = tmp_path / "cut"
    # load_cache makes its table from the same name, so the cut ends here
    with monkeypatch.context() as m:
        m.setattr(chocolate_mod, "ChocolateTable", cut_table)
        assert run(capsys, *argv, str(cache)) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    kept = load_cache(cache / cli.CACHE_FILENAME).memo
    assert len(kept) == 20 and kept.items() <= cold.items()

    tables = []

    def recorded(path):
        tables.append(load_cache(path))
        return tables[-1]

    monkeypatch.setattr(chocolate_mod, "load_cache", recorded)
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
import numpy, chocnum.chocolate as chocolate, chocnum.cli as cli, chocnum.fill as fill
fill._plan(40, 40)
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) << 10
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, hard))
{run}
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmSize from /proc")
def test_a_fresh_40_x_40_fills_under_an_address_space_limit(fresh_python):
    # children whose numpy, fill and plan are loaded, then limited to their
    # size plus a headroom: 3 MiB holds the fill's 2 MiB block and what the
    # fold needs besides, but not a second block at once, and 1 MiB not one
    def child(headroom, run):
        return fresh_python("-c", RLIMIT_PROBE.format(headroom=headroom, run=run), timeout=120)

    table = ChocolateTable()
    chocolate_number(1, 1, table)
    answered = child(3 << 20, "print(hex(chocolate.chocolate_number(40, 40)))")
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


def test_an_uncertified_frontier_exits_1_and_caches_the_bars_it_finished(capsys, tmp_path,
                                                                          monkeypatch):
    # the 3 x 3 count reads as 3, below the 2 x 2 diagonal's 4, so the
    # distinct scan cannot certify its frontier: no record, not even the
    # csv header, and the cache holds every bar filled up to 3 x 3
    finished = ChocolateTable()
    generate(SequenceSpec(SequenceKind.DISTINCT_SORTED, 60), finished)
    count = chocolate_mod.chocolate_number

    def lowered(m, n, table=None):
        value = count(m, n, table)
        return 3 if (m, n) == (3, 3) else value

    monkeypatch.setattr(chocolate_mod, "chocolate_number", lowered)
    code, out, err = run(capsys, "gen", "--seq", "distinct", "--limit", "60",
                         "--format", "csv", "--cache", str(tmp_path))
    assert (code, out) == (EXIT_FAILED, "")
    assert err == ("error: diagonal decreased at m=3: 3 < 4; "
                   "frontier cannot certify completeness\n")
    assert load_cache(tmp_path / cli.CACHE_FILENAME).memo == finished.memo


# ---------------------------------------------------------------- oracle


def test_oracle_compare_fails_loudly_on_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(oracle_mod, "count_sequences", lambda m, n, limit: 99)
    code, out, err = run(capsys, "oracle", "--m", "2", "--n", "2", "--compare")
    assert code == EXIT_FAILED
    assert out.strip() == "99 != 4"
    assert "mismatch" in err


def test_oracle_rejects_oversized_area(capsys):
    code, _, err = run(capsys, "oracle", "--m", "4", "--n", "4")
    assert code == EXIT_USAGE and "area 16" in err and "--area-limit" in err


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


def test_nu_bound_check_requires_p2(capsys):
    code, _, err = run(
        capsys, "nu", "--p", "3", "--seq", "b", "--max", "5", "--check-bound"
    )
    assert code == EXIT_USAGE and "p=2" in err


def test_nu_rejects_composite_p(capsys):
    code, _, err = run(capsys, "nu", "--p", "4", "--seq", "b", "--max", "5")
    assert code == EXIT_USAGE and "prime" in err


# ------------------------------------------------------------------- mod


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


# ---------------------------------------------------------------- period


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


# ---------------------------------------------------------------- series


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


def test_conjecture3_on_a_large_prime_is_quick(fresh_python):
    # p(p-1) is about 10^18: nothing may scale with p, only with --max
    argv = ("conjecture", "--id", "3", "--primes", "1000000007", "--max", "100")
    proc = fresh_python("-m", "chocnum.cli", *argv, timeout=10)
    assert proc.returncode == EXIT_UNRESOLVED
    assert proc.stdout.startswith("3 1000000007 100 UNRESOLVED - - ")


def test_conjecture3_on_an_eighteen_digit_prime_is_quick(fresh_python):
    argv = ("conjecture", "--id", "3", "--primes", "1000000000000000003", "--max", "100")
    proc = fresh_python("-m", "chocnum.cli", *argv, timeout=10)
    assert proc.returncode == EXIT_UNRESOLVED
    assert proc.stdout.startswith("3 1000000000000000003 100 UNRESOLVED - - ")


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


GOLDEN = [  # (argv, exit code, the whole stdout or, for a long one, its sha256)
    ("gen --seq b --max 5", EXIT_OK, "1 1\n2 4\n3 56\n4 1712\n5 92800\n"),
    ("gen --seq distinct --limit 60", EXIT_OK, "1\n2\n4\n6\n24\n56\n"),
    ("gen --seq square --max 3", EXIT_OK, "1 1\n2 4\n3 9408\n"),
    ("gen --seq triangle --max 3", EXIT_OK, "1 1 1\n1 2 1\n2 1 1\n1 3 2\n2 2 4\n3 1 2\n"),
    ("oracle --m 2 --n 3", EXIT_OK, "56\n"),
    ("oracle --m 2 --n 2 --compare", EXIT_OK, "4 == 4\n"),
    ("factor --seq b --index 4", EXIT_OK, "4 1712 2^4 * 107\n"),
    ("factor --seq table --index 4 4", EXIT_OK, "4 4 63352393728 2^12 * 3 * 13 * 19 * 20873\n"),
    ("nu --p 2 --seq table --max 2", EXIT_OK, "1 1 0\n1 2 0\n2 1 0\n2 2 2\n"),
    # several moduli print in the order given
    ("mod --seq b --modulus 3,5 --max 4", EXIT_OK,
     "b 3 1 1\nb 3 2 1\nb 3 3 2\nb 3 4 2\nb 5 1 1\nb 5 2 4\nb 5 3 1\nb 5 4 2\n"),
    ("mod --seq p --modulus 7 --max 1", EXIT_OK, "p 7 1 3\n"),
    ("mod --seq p --modulus 9 --max 20 --format jsonl", EXIT_OK,
     "36b73d7afdd53adbe3e95533da3c3cd702a36647b1a7d297dde555d43ec70764"),
    ("series --check riccati --order 20", EXIT_OK, "residual zero through order 19\n"),
    ("series --check ode --order 12", EXIT_OK, "identity holds through order 11\n"),
    ("series --check hypergeom --order 12", EXIT_OK, "residual zero through order 12\n"),
    # the longest Pascal-row pass the benchmark runs, 9999 steps; recorded
    # when every step built its own views
    ("mod --seq b --modulus 9 --max 10000", EXIT_OK,
     "1508d0f84a42decd0f2efdfab177d73219c93c6b3140628e2c033bed428131e8"),
    # long prefixes: 55447790 is the largest modulus the int64-dot kernel
    # takes at n = 3000 and runs alone, split into its Pascal part 10 and its
    # scaled part 5544779; 2, 9 and 43 share one Pascal-row pass mod 774,
    # which defers its reductions; 999983, whose odd part is above 2n, runs
    # alone on the scaled route
    ("mod --seq b --modulus 2,9,43,999983,55447790 --max 3000", EXIT_OK,
     "5c6faf190eeb94699e708f497a29bbc2aff235cc627ed16f96dc0e8216f3a609"),
    # grouped moduli print what separate passes printed: 8, 12 and 3999932 =
    # 4 * 999983 share one pass mod 23999592, Pascal rows mod 24 and the
    # scaled route mod 999983; 4,6,8,10 share one pass mod 120
    ("mod --seq b --modulus 8,12,3999932 --max 3000", EXIT_OK,
     "2fb66a3027028eccae9299cdc9a55c8f162cfe8ee3131d1f807c341fb6ddca56"),
    ("conjecture --id 2 --primes 4,6,8,10 --max 1500", EXIT_OK,
     "ce729ae6620d66ef58930de7e3842b5dba0a15b2b1913e70cf800bbf2317ee15"),
    # above the int64-dot bound: the scaled route's limb inner products,
    # one per step over one array of limbs
    ("mod --seq b --modulus 3037000493,3037000507,4294967311 --max 3000", EXIT_OK,
     "d653ab4b4eb8a26ec3c8e4ff7a45453683e5e76c7cc7a4a039a3c39c8593c64b"),
    # mixed moduli: 9 * 337 444 501 and 43 * 999 983 walk Pascal rows mod 9
    # and 43 only; the digest is that of whole moduli on Pascal rows
    ("mod --seq b --modulus 3037000509,42999269 --max 3000", EXIT_OK,
     "5bf207ec5ad4e8dc32abe1b8951406416f13424f1fc3c5d5847d133f08aae1d5"),
    # smooth moduli, one Pascal pass each: the "int64" arm mod 10^9 and the
    # "object" arm mod 10^12, which stop at their certified zero tails, at
    # n = 125 and n = 151
    ("mod --seq b --modulus 1000000000,1000000000000 --max 1200", EXIT_OK,
     "15d5485c84c1bd2165768470bafc6a4406019d2a0d636c011e87ef7050f873b9"),
    # zero tails: Pascal rows mod 41 stop at n = 1681, the scaled limbs mod
    # 2^40 after 22 steps, and 11 * 3 037 000 507 joins Pascal rows mod 11,
    # stopped at n = 11, to a full scaled pass; recorded before the kernels
    # stopped, so the stop changes no residue
    ("mod --seq b --modulus 41,1099511627776,33407005577 --max 3000", EXIT_OK,
     "48f3906e8296bc8601b6c299de480b9006aa8e9410163d4bafa796cd727432fe"),
    # odd parts below 2n, with and without 2^30, walk Pascal rows whole: 3
    # and 12 share one pass mod 12 on the "int64-dot" arm, and 3 * 2^30 runs
    # alone on the "object" arm; recorded when such odd parts skipped the
    # running factorial of the plan
    ("mod --seq b --modulus 3,12,3221225472 --max 1200", EXIT_OK,
     "aebe9684e6dc2952f10c4cc0d2dd8dda1fce96b70396c1c422d018583914bc9d"),
    # a 2 x n sweep on chocolate2, cold or warm (the route takes it from 170
    # warm and 400 cold); recorded when chocolate2 summed whole values, not
    # odd parts
    ("gen --seq b --max 100", EXIT_OK,
     "cf9770b554d85b1b00bd3d7e7c1a846f9eac45069db4584b8ad9180fdc3c26fe"),
    # a digest recorded when the sweep counted one square at a time on big
    # integers, matched here by the route, since this process has loaded
    # numpy and 27 x 27 meets the warm rule
    ("gen --seq square --max 27", EXIT_OK,
     "2e52cd87e8ea42c0fb4bf571f0fcd326690575db5a449963612083ba0285f944"),
    # sweeps that take every value from one residue fill of their largest
    # bar, the 2 x n one since this process has loaded numpy; recorded on the
    # big-integer sweeps
    ("gen --seq b --max 300", EXIT_OK,
     "ea0dc484409ea48ee4a0cb72edb3983e87e92ebe7d4593bd33894ba40ca43a39"),
    ("gen --seq square --max 34", EXIT_OK,
     "e438303939798106fc22aa2a79ba729112600a067bcc4710b393899a5ac0552f"),
    # two chunks of the fill; recorded when the same sweep took four
    ("gen --seq square --max 40", EXIT_OK,
     "708627e8532fe5f6bc128c414002d049deea5b2278d299da7710443ad50e7ef3"),
    # sweeps that fill each bar once on big integers; recorded on the sweeps
    # that filled bar by bar
    ("gen --seq triangle --max 43", EXIT_OK,
     "48781bf3e2570e2b3cd7762cd0c28826e37119c2aa644fb38c5c8917635ddeae"),
    ("gen --seq table --max 36", EXIT_OK,
     "f08c17dd4acfef08ec38717ffc8d7d4393f15757573ce913e3b0de8cd7785555"),
    # 4 x 6 takes 23 moves, counted one layer at a time
    ("oracle --m 4 --n 6 --area-limit 24 --compare", EXIT_OK,
     "237616480594708660224 == 237616480594708660224\n"),
    # the series checks at the order the benchmark runs them, and the linear
    # ODE and the hypergeometric product past the orders tested above
    ("series --check riccati --order 150", EXIT_OK, "residual zero through order 149\n"),
    ("series --check hypergeom --order 150", EXIT_OK, "residual zero through order 150\n"),
    ("series --check ode --order 20", EXIT_OK, "identity holds through order 19\n"),
    ("series --check hypergeom --order 20", EXIT_OK, "residual zero through order 20\n"),
    # period 903, half of 43 * 42, from the start; --hint-pp1 changes nothing
    ("period --seq p --modulus 43 --max 18060", EXIT_OK,
     "p 43 18060 true 0 903 false 18060\n"),
    ("period --seq p --modulus 43 --max 18060 --hint-pp1", EXIT_OK,
     "p 43 18060 true 0 903 false 18060\n"),
    ("period --seq p --modulus 3 --max 60 --format jsonl", EXIT_OK,
     '{"seq": "p", "modulus": 3, "n_max": 60, "resolved": true, "preperiod": 0, '
     '"period": 3, "eventually_zero": false, "evidence_length": 60}\n'),
    ("period --seq p --modulus 7 --max 210 --hint-pp1 --format jsonl", EXIT_OK,
     '{"seq": "p", "modulus": 7, "n_max": 210, "resolved": true, "preperiod": 0, '
     '"period": 7, "eventually_zero": false, "evidence_length": 210}\n'),
    ("period --seq b --modulus 13 --max 100 --format jsonl", EXIT_UNRESOLVED,
     '{"seq": "b", "modulus": 13, "n_max": 100, "resolved": false, "preperiod": null, '
     '"period": null, "eventually_zero": false, "evidence_length": 100}\n'),
    # 11 divides B_6 onwards: a zero tail after a preperiod of 5
    ("period --seq b --modulus 11 --max 40 --format jsonl", EXIT_OK,
     '{"seq": "b", "modulus": 11, "n_max": 40, "resolved": true, "preperiod": 5, '
     '"period": 1, "eventually_zero": true, "evidence_length": 40}\n'),
    # B_107 has the prime factor 2751857: the zero-tail certificate is
    # computed, not searched, so this answers at once
    ("conjecture --id 1 --primes 2751857 --max 107", EXIT_UNRESOLVED,
     "1 2751857 107 UNRESOLVED 106 1 trailing zeros from index 107 on a "
     "classifier-false prime; cannot certify either way\n"),
    ("conjecture --id 2 --primes 13 --max 150", EXIT_UNRESOLVED,
     "2 13 150 UNRESOLVED - - no period certified within 150 terms at the configured "
     "thresholds\n"),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[argv for argv, _, _ in GOLDEN])
def test_stdout_matches_the_golden_output(capsys, argv, code, stdout):
    got, out, _ = run(capsys, *argv.split())
    assert got == code
    assert stdout in (out, hashlib.sha256(out.encode()).hexdigest())


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


def test_gen_seq_choices_are_the_sequence_kinds():
    # spelled out in cli so that parsing does not import chocolate
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    [seq] = [a for a in sub.choices["gen"]._actions if a.dest == "seq"]
    assert list(seq.choices) == [kind.value for kind in SequenceKind]
    listed = [v.partition(" --seq ")[2].split("|") for v in cli.FIELDS if v.startswith("gen ")]
    assert all(any(choice in seqs for seqs in listed) for choice in seq.choices)

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


IMPORT_PROBE = """
import contextlib, io, sys
import chocnum.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert chocnum.cli.main(argv.split()) == 0, argv
    return out.getvalue()

{snippet}
print(sorted(name for name in {watched!r} if name in sys.modules))
"""
WATCHED = ("chocnum.arith", "chocnum.chocolate", "chocnum.fill", "chocnum.modular",
           "chocnum.oracle", "chocnum.series", "numpy", "dataclasses", "textwrap",
           "fractions", "json", "csv")
LIGHT_SESSION = """# every light command in one process, then a bar below the route
run("--help")
run("gen --seq b --max 5")
run("gen --seq table --max 10")
run("gen --seq square --max 27")  # below the sweep route
run("gen --seq b --max 100")
run("factor --seq b --index 5")
run("factor --seq table --index 4 5")
run("oracle --m 2 --n 3 --compare")
run("nu --p 2 --seq b --max 5")
run("series --check riccati --order 10")
run("mod --seq p --modulus 7 --max 5")
run("period --seq p --modulus 7 --max 60")
chocnum.chocolate_number(2, 100)  # below the residue route's crossover
"""
CHOCOLATE = ["chocnum.chocolate"]
# fill sieves its primes with arith, which loads dataclasses; numpy loads
# textwrap, which no light command but --help does
FILL = ["chocnum.arith", "chocnum.chocolate", "chocnum.fill", "dataclasses", "numpy", "textwrap"]

IMPORT_CASES = [  # (snippet, the watched modules it leaves loaded)
    ("", []),
    ('run("--help")', ["textwrap"]),
    ('run("gen --seq b --max 5")', CHOCOLATE),
    ('run("gen --seq b --max 5 --format csv")', CHOCOLATE + ["csv"]),
    ('run("gen --seq b --max 5 --format jsonl")', CHOCOLATE + ["json"]),
    # a cold 2 x n sweep stays on chocolate2 to 2 x 399, clear of numpy
    ('run("gen --seq b --max 399")', CHOCOLATE),
    ('run("gen --seq b --max 400")', FILL),
    ('run("oracle --m 2 --n 3")', ["chocnum.oracle"]),
    ('run("oracle --m 2 --n 3 --compare")', CHOCOLATE + ["chocnum.oracle"]),
    ('run("factor --seq b --index 5")', ["chocnum.arith", "chocnum.chocolate", "dataclasses"]),
    ('run("nu --p 2 --seq b --max 5")', ["chocnum.arith", "chocnum.chocolate", "dataclasses"]),
    ('run("mod --seq p --modulus 7 --max 5")', ["chocnum.arith", "chocnum.modular", "dataclasses"]),
    ('run("period --seq p --modulus 7 --max 60")',
     ["chocnum.arith", "chocnum.modular", "dataclasses"]),
    ('run("series --check ode --order 10")',
     ["chocnum.chocolate", "chocnum.series", "dataclasses", "fractions"]),
    (LIGHT_SESSION, ["chocnum.arith", "chocnum.chocolate", "chocnum.modular", "chocnum.oracle",
                     "chocnum.series", "dataclasses", "fractions", "textwrap"]),
    # each residue scan, route and sweep route loads numpy
    ('residues = run("mod --seq b --modulus 9 --max 5")\n'
     'assert residues == "b 9 1 1\\nb 9 2 4\\nb 9 3 2\\nb 9 4 2\\nb 9 5 1\\n", residues',
     ["chocnum.arith", "chocnum.fill", "chocnum.modular", "dataclasses", "numpy", "textwrap"]),
    ("assert chocnum.chocolate_number(2, 350) == chocnum.chocolate2(350)", FILL),
    # a cold square sweep stays on big integers to 38, clear of numpy
    ('run("gen --seq square --max 38")', CHOCOLATE),
    ('run("gen --seq square --max 39")', FILL),
    # a process that has imported numpy routes from the warm edge on
    ("import numpy\nassert chocnum.chocolate_number(2, 100) == chocnum.chocolate2(100)", FILL),
    # once a scan has loaded fill, the warm route rule prints what a cold one does
    ('cold = run("gen --seq square --max 24") + run("nu --p 2 --seq b --max 60")\n'
     'run("mod --seq b --modulus 9 --max 5")\n'
     'assert run("gen --seq square --max 24") + run("nu --p 2 --seq b --max 60") == cold',
     ["chocnum.arith", "chocnum.chocolate", "chocnum.fill", "chocnum.modular", "dataclasses",
      "numpy", "textwrap"]),
]


@pytest.mark.parametrize("snippet, loaded", IMPORT_CASES,
                         ids=[snippet.splitlines()[0] if snippet else "import"
                              for snippet, _ in IMPORT_CASES])
def test_each_subcommand_imports_only_what_it_runs(fresh_python, snippet, loaded):
    # fresh interpreters, since this one has long since imported numpy,
    # compiling from source, as a process without cached bytecode starts
    probe = IMPORT_PROBE.format(snippet=snippet, watched=WATCHED)
    proc = fresh_python("-c", probe, PYTHONDONTWRITEBYTECODE="1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


@pytest.mark.parametrize("argv, first_line", [
    (("mod", "--seq", "p", "--modulus", "7", "--max", "20000"), b"p 7 1 3\n"),
    (("gen", "--seq", "b", "--max", "300", "--format", "jsonl"), b'{"n": 1, "value": 1}\n'),
], ids=["mod", "gen"])
def test_closed_stdout_pipe_exits_quietly(fresh_python, argv, first_line):
    # the reader takes one line and goes away, as `| head -1` does; the
    # output is well past a pipe buffer, so the writer sees the pipe close
    proc = subprocess.Popen([sys.executable, "-m", "chocnum.cli", *argv],
                            env=fresh_python.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_interrupt_exits_130_without_a_traceback(fresh_python):
    # the first line comes from the child's first flush of megabytes of
    # output, so SIGINT reaches it inside main, still writing.  A shell
    # starts a background job with SIGINT ignored, and Python keeps that, so
    # the child restores Ctrl-C's KeyboardInterrupt as a foreground run has
    # it; a child that inherited SIG_IGN would write everything and exit 0
    argv = ("mod", "--seq", "p", "--modulus", "7", "--max", "200000")
    interruptible = ("import signal, sys; "
                     "signal.signal(signal.SIGINT, signal.default_int_handler); "
                     "import chocnum.cli; sys.exit(chocnum.cli.main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", interruptible, *argv],
                            env=fresh_python.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"p 7 1 3\n"
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert err == b"interrupted\n"  # one line, no traceback

"""chocnum benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
that checkout (library workloads) or started as ``python3 -m chocnum.cli``
with ``PYTHONPATH=src`` (cli_session).  One closed-loop client issues the
seed's query list for a number of passes sized by ``--seconds``; every
answer is checked against ``perfbench/reference.json``.  The last stdout
line is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import catalogue
import speed

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 9
SETUP_CALIBRATION_SAMPLES = 20  # kernel samples before and after each probe
START_SAMPLES = 5
TRIVIAL_COMMAND = ("gen", "--seq", "b", "--max", "1")
# A run is a whole number of passes, round(--seconds / nominal pass time),
# so parent and change answer the same number of queries and the tail
# percentile has the same rank on both.
NOMINAL_PASS_S = {"exact_counts": 4.0, "residue_scans": 6.5, "cli_session": 6.5}
MIN_PASSES = 2
TRACE_PASSES = 2  # traced passes, each after an untraced one, in a traced run

END_TO_END = {
    "wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "setup_s": "s", "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "arith.binomial.calls": "count", "arith.binomial.self_s": "s",
    "arith.factor.calls": "count", "arith.factor.self_s": "s",
    "arith.divides_factorial.calls": "count", "arith.nu_p.self_s": "s",
    "chocolate.chocolate_number.self_s": "s", "chocolate.chocolate2.self_s": "s",
    "chocolate.generate.self_s": "s", "chocolate.table.computed": "count",
    "chocolate.table.entries": "count", "chocolate.max_bits": "bits",
    "chocolate.save_cache.self_s": "s", "chocolate.save_cache.bytes": "bytes",
    "chocolate.load_cache.self_s": "s", "chocolate.load_cache.entries": "count",
    "modular.chocolate2_mod.calls": "count", "modular.chocolate2_mod.self_s": "s",
    "modular.chocolate2_mod.terms": "count", "modular.chocolate2_mod.ops": "count",
    "modular.chocolate2_mod.object_calls": "count",
    "modular.detect_eventual_period.self_s": "s",
    "modular.detect_eventual_period.unresolved": "count",
    "modular.conjecture_scan.self_s": "s", "modular.hyper_numerators_mod.self_s": "s",
    "modular.binom_sum.self_s": "s", "modular.mod3_pattern_check.self_s": "s",
    "series.riccati_residual.self_s": "s", "series.verify_linear_ode.self_s": "s",
    "series.verify_log_derivative.self_s": "s", "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "oracle.count_sequences.calls": "count", "oracle.count_sequences.self_s": "s",
    "cli.start_s": "s", "cli.main.self_s": "s", "cli.stdout_bytes": "bytes",
    "cli.exit_unexpected": "count",
    "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    """Environment for chocnum child processes: this checkout's sources,
    no default cache, and Python's default integer-to-text limit."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CHOCNUM_CACHE", "PYTHONINTMAXSTRDIGITS")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------------ runners


class LibRunner:
    """Calls a library query in this process."""

    def __init__(self, reference: dict):
        self.reference = reference

    def begin_pass(self, cache: Path) -> None:
        pass

    def __call__(self, query):
        t0 = perf_counter()
        try:
            result = query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            return perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        if catalogue.digest(result) != self.reference[query.qid]:
            return latency, False, "digest differs from reference"
        if query.check is not None and not query.check(result):
            return latency, False, "by-construction check failed"
        return latency, True, ""


class CliRunner:
    """Runs ``python3 -m chocnum.cli`` as a child process.  Waits with
    ``os.wait4`` so each child's own peak RSS is known."""

    def __init__(self, reference: dict, work: Path):
        self.reference = reference
        self.work = work
        self.env = child_env()
        self.cache = work
        self.peak_rss_kib = 0

    def begin_pass(self, cache: Path) -> None:
        self.cache = cache

    def invoke(self, argv):
        argv = [a.replace("{cache}", str(self.cache)) for a in argv]
        err_path = self.work / "stderr"
        with open(err_path, "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "chocnum.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT, env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            latency = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return latency, proc.returncode, out, stderr, usage.ru_maxrss

    def __call__(self, query):
        latency, code, out, stderr, rss = self.invoke(query.argv)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return (latency, *judge(query, code, out, stderr, self.reference))


class InProcessCliRunner:
    """Calls ``chocnum.cli.main(argv)`` with stdout and stderr captured, so
    a tracer in this process sees the command's spans."""

    def __init__(self, reference: dict):
        import chocnum.cli

        self.cli = chocnum.cli
        self.reference = reference
        self.cache = None
        self.stdout_bytes = 0
        self.exit_unexpected = 0

    def begin_pass(self, cache: Path) -> None:
        self.cache = cache

    def __call__(self, query):
        argv = [a.replace("{cache}", str(self.cache)) for a in query.argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a failed query is counted, not fatal
            return perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        stdout = out.getvalue().encode()
        self.stdout_bytes += len(stdout)
        self.exit_unexpected += code != query.expected_exit
        return (latency, *judge(query, code, stdout, err.getvalue().encode(),
                                self.reference))


def judge(query, code, stdout: bytes, stderr: bytes, reference):
    if b"Traceback (most recent call last)" in stderr:
        return False, "traceback on stderr"
    if code != query.expected_exit:
        return False, f"exit {code}, expected {query.expected_exit}"
    if catalogue.digest(stdout) != reference[query.qid]:
        return False, "stdout digest differs from reference"
    return True, ""


class Dispatch:
    """Library queries in process; CLI queries through ``cli``."""

    def __init__(self, lib, cli):
        self.lib, self.cli = lib, cli

    def begin_pass(self, cache: Path) -> None:
        self.cli.begin_pass(cache)

    def __call__(self, query):
        return (self.cli if query.argv else self.lib)(query)


# ------------------------------------------------------------------- passes


def run_pass(queries, runner, work: Path, index: int, after_query=None,
             calibration: speed.Speed | None = None):
    """One pass over the query list with a fresh cache directory.
    Returns (qid, latency_s, ok, detail) per query.  With ``calibration``,
    one kernel sample is taken before each query."""
    cache = work / f"cache{index}"
    cache.mkdir()
    runner.begin_pass(cache)
    rows = []
    try:
        for query in queries:
            if calibration is not None:
                calibration.sample()
            latency, ok, detail = runner(query)
            if after_query is not None:
                after_query()
            rows.append((query.qid, latency, ok, detail))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return rows


def run_passes(count: int, queries, runner, work: Path):
    """Closed loop: each query is sent when the previous one has answered.
    Returns the passes and, per pass, the factor to reference speed."""
    passes, scales = [], []
    for i in range(count):
        calibration = speed.Speed()
        passes.append(run_pass(queries, runner, work, i, calibration=calibration))
        scales.append(calibration.scale())
    return passes, scales


def pass_count(args) -> int:
    return max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))


def pass_time(rows) -> float:
    return sum(latency for _, latency, _, _ in rows)


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it (nearest
    rank): the 11th largest value.  Returns (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# -------------------------------------------------------------------- setup


def import_program():
    """Import chocnum from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import chocnum

    if Path(chocnum.__file__).resolve().parent != (SRC / "chocnum").resolve():
        fail(f"imported chocnum from {chocnum.__file__}, not from {SRC}")
    return chocnum


def warm_up(workload: str, work: Path) -> None:
    """Touch every code path the timed queries use, at tiny sizes."""
    if workload == "cli_session":
        CliRunner({}, work).invoke(TRIVIAL_COMMAND)
        return
    from chocnum import arith, chocolate, modular

    if workload == "exact_counts":
        table = chocolate.ChocolateTable()
        chocolate.chocolate_number(6, 7, table)
        arith.factor(chocolate.chocolate2(12, table))
        arith.nu_p(chocolate.chocolate2(8), 2)
        chocolate.generate(chocolate.SequenceSpec(chocolate.SequenceKind.SQUARE, 4))
    else:
        modular.detect_eventual_period(modular.chocolate2_mod(60, 7))
        modular.chocolate2_mod(20, catalogue.INT64_SAFE_MODULUS + 8)
        modular.detect_eventual_period(modular.hyper_numerators_mod(60, 7), [1, 2, 3])
        modular.conjecture_scan(1, [3], 100)
        modular.binom_sum_1_mod6(14)


def setup(workload: str, seed: int, work: Path):
    """Everything between a fresh interpreter and the first timed query."""
    if workload != "cli_session":
        import_program()
    queries = catalogue.build(workload, seed)
    warm_up(workload, work)
    return queries


def measure_setup(args, work: Path) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times: each child runs ``setup`` and reports
    ready on stdout; the time runs from spawning it to that line.  Returns
    the times and, per probe, the factor to reference speed from kernel
    samples taken just before and just after it."""
    samples, scales = [], []
    for i in range(SETUP_SAMPLES):
        calibration = speed.Speed()
        calibration.sample(SETUP_CALIBRATION_SAMPLES)
        probe_work = work / f"setup{i}"
        probe_work.mkdir()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(probe_work)],
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
        line = proc.stdout.readline()
        samples.append(perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            fail(f"set-up probe failed (exit {proc.returncode})")
        calibration.sample(SETUP_CALIBRATION_SAMPLES)
        scales.append(calibration.scale())
    return samples, scales


# ------------------------------------------------------------------- record


def run_record(args) -> dict:
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        cpu = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"), "nproc": os.cpu_count(),
        "cpu_model": cpu, "git_commit": commit, "src_sha256": source_digest(),
        "loadavg_before": os.getloadavg(),
    }


def source_digest() -> str:
    """Identity of the program under test when the checkout has no git."""
    files = sorted((SRC / "chocnum").rglob("*.py"))
    return catalogue.digest(b"".join(
        str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes() for f in files))


def warn_load(record: dict, key: str) -> None:
    load = record[key][0]
    if load > record["nproc"]:
        print(f"perfbench: warning: load average {load:.2f} exceeds nproc "
              f"{record['nproc']} ({key}); timings are suspect", file=sys.stderr)


def summarise_failures(passes) -> tuple[int, int, list]:
    rows = [row for rows in passes for row in rows]
    failures = sorted({(qid, detail) for qid, _, ok, detail in rows if not ok})
    return len(rows), sum(not ok for _, _, ok, _ in rows), failures


# -------------------------------------------------------------- the two runs


def untraced_run(args, work: Path, record: dict, ref: dict):
    reference = ref["queries"]
    setup_samples, setup_scales = measure_setup(args, work)
    t0 = perf_counter()
    queries = setup(args.workload, args.seed, work)
    record["inprocess_setup_s"] = perf_counter() - t0
    if args.workload == "cli_session":
        runner = CliRunner(reference, work)
    else:
        runner = LibRunner(reference)
    passes, scales = run_passes(pass_count(args), queries, runner, work)

    raw = [latency for rows in passes for _, latency, _, _ in rows]
    latencies = [latency * scale for rows, scale in zip(passes, scales)
                 for _, latency, _, _ in rows]
    tail_value, tail_pct, samples = tail(latencies)
    if args.workload == "cli_session":
        peak_kib = runner.peak_rss_kib
        record["known_defect"] = known_defect(runner, ref["known_defect"])
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(pass_time(rows) * scale
                                    for rows, scale in zip(passes, scales)),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(t * scale
                                     for t, scale in zip(setup_samples, setup_scales)),
        "peak_rss_mib": peak_kib / 1024,
    }
    record.update(passes=len(passes), queries_per_pass=len(queries),
                  tail_percentile=tail_pct, tail_samples=samples,
                  speed_reference_s=speed.REFERENCE_S,
                  pass_speed_scale=scales, setup_speed_scale=setup_scales,
                  setup_samples_s=setup_samples,
                  pass_wall_s=[pass_time(rows) for rows in passes],
                  raw_metrics={
                      "wall_s": statistics.median(pass_time(rows) for rows in passes),
                      "latency_p50_s": statistics.median(raw),
                      "latency_tail_s": tail(raw)[0],
                      "setup_s": statistics.median(setup_samples)},
                  per_query_median_s=per_query(passes))
    return metrics, passes, []


def known_defect(runner: CliRunner, known: dict) -> dict:
    """Run the known 4300-digit failure once, outside the timed loop, and
    report how its output compares with the expected stdout."""
    query = catalogue.KNOWN_DEFECT
    _, code, out, stderr, _ = runner.invoke(query.argv)
    ok = code == 0 and catalogue.digest(out) == known["sha256"]
    return {"command": "chocnum " + " ".join(query.argv), "ok": ok, "exit": code,
            "lines": out.count(b"\n"), "expected_lines": known["lines"],
            "stderr": stderr.decode(errors="replace").strip()[-200:]}


def traced_run(args, work: Path, record: dict, ref: dict):
    import spans

    reference = ref["queries"]
    start = []
    probe = CliRunner({}, work)
    for _ in range(START_SAMPLES):
        start.append(probe.invoke(TRIVIAL_COMMAND)[0])

    import_program()
    queries = setup(args.workload, args.seed, work)
    chocnum_cli = InProcessCliRunner(reference)
    if args.workload == "cli_session":
        runner = chocnum_cli
    else:
        runner = Dispatch(LibRunner(reference), chocnum_cli)
    # untraced and traced passes alternate, so slow drift in machine speed
    # does not land on one side of trace.overhead_ratio; every traced pass
    # ends with the layer probe, so every span fires
    probe_queries = catalogue.layer_probe(work)
    probe_runner = Dispatch(LibRunner(reference), chocnum_cli)
    tracer = spans.Tracer()
    baseline, traced, probes, snapshots = [], [], [], []
    for i in range(TRACE_PASSES):
        baseline.append(run_pass(queries, runner, work, 3 * i))
        tracer.install()
        try:
            before = tracer.snapshot()
            tracer.max_bits = chocnum_cli.stdout_bytes = chocnum_cli.exit_unexpected = 0
            traced.append(run_pass(queries, runner, work, 3 * i + 1, tracer.collect_tables))
            probes.append(run_pass(probe_queries, probe_runner, work, 3 * i + 2,
                                   tracer.collect_tables))
        finally:
            tracer.uninstall()
        snap = delta(tracer.snapshot(), before)
        snap["chocolate.max_bits"] = tracer.max_bits
        snap["cli.stdout_bytes"] = chocnum_cli.stdout_bytes
        snap["cli.exit_unexpected"] = chocnum_cli.exit_unexpected
        snapshots.append(snap)

    first, second = snapshots
    mismatches = sorted(name for name in set(first) | set(second)
                        if spans.is_exact_count(name)
                        and first.get(name, 0) != second.get(name, 0))
    untraced_wall = statistics.median(pass_time(rows) for rows in baseline)
    traced_wall = statistics.median(pass_time(rows) for rows in traced)
    metrics = {}
    for name in PER_LAYER:
        values = [snap.get(name, 0) for snap in snapshots]
        metrics[name] = values[0] if spans.is_exact_count(name) else statistics.mean(values)
    metrics["cli.start_s"] = statistics.median(start)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    record.update(untraced_passes=len(baseline), untraced_wall_s=untraced_wall,
                  traced_wall_s=traced_wall, count_mismatches=mismatches,
                  spans=snapshots)
    return metrics, baseline + traced + probes, mismatches


def delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def per_query(passes) -> dict:
    by_qid = {}
    for rows in passes:
        for qid, latency, _, _ in rows:
            by_qid.setdefault(qid, []).append(latency)
    return {qid: statistics.median(v) for qid, v in sorted(by_qid.items())}


# --------------------------------------------------------------------- main


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "chocnum" / "__init__.py").is_file():
        fail(f"no chocnum sources under {SRC}; run from the repository root")
    if not REFERENCE.is_file():
        fail(f"missing {REFERENCE}; record it with perfbench/reference.py")
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    ref = json.loads(REFERENCE.read_text())
    record = run_record(args)
    record["pinned_cpu"] = speed.pin_to_one_cpu()
    warn_load(record, "loadavg_before")
    work = BENCH / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, passes, mismatches = traced_run(args, work, record, ref)
            units = PER_LAYER
        else:
            metrics, passes, mismatches = untraced_run(args, work, record, ref)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    warn_load(record, "loadavg_after")

    attempted, failed, failures = summarise_failures(passes)
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  failures=failures, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for qid, detail in failures:
        print(f"FAILED {qid}: {detail}")
    for name in mismatches:
        print(f"COUNT MISMATCH {name}: " + " != ".join(
            str(s.get(name, 0)) for s in record["spans"]))
    if "known_defect" in record:
        kd = record["known_defect"]
        print(f"known defect: {kd['command']} -> exit {kd['exit']}, "
              f"{kd['lines']} of {kd['expected_lines']} lines, "
              f"{'now correct' if kd['ok'] else 'wrong output (not counted in failed)'}")
    if "tail_percentile" in record:
        print(f"latency_tail_s is p{record['tail_percentile']:.2f} of "
              f"{record['tail_samples']} queries")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if "raw_metrics" in record:
        print("unscaled: " + ", ".join(f"{name} {value:.6g} s"
                                       for name, value in record["raw_metrics"].items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

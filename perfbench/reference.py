"""Record the reference digests the benchmark checks every answer against.

    python3 perfbench/reference.py

Run from the repository root on the commit whose outputs are the reference.
It answers every alternative of every catalogue slot (the seed only picks
among them), plus the layer probe, and stores one SHA-256 per query in
``perfbench/reference.json``: of the canonical result for library queries,
of the stdout bytes for CLI queries.  A CLI query whose exit code differs
from the one the catalogue expects is an error.

The expected stdout of the known 4300-digit failure is produced apart: the
values come from the library as hex, and ``decimal_lines.py``, a process
that runs no chocnum code, writes them in decimal.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import catalogue
import run


def main() -> int:
    run.import_program()
    from chocnum import chocolate

    work = run.BENCH / ".work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests, errors = {}, []
    try:
        cli = run.CliRunner({}, work)
        queries = [q for w in catalogue.WORKLOADS for q in catalogue.every_query(w)]
        queries += catalogue.layer_probe(work)
        for i, query in enumerate(queries):
            if query.qid in digests:
                continue
            if query.argv:
                cache = work / f"cache{i}"
                cache.mkdir()
                cli.begin_pass(cache)
                _, code, out, stderr, _ = cli.invoke(query.argv)
                if code != query.expected_exit or b"Traceback" in stderr:
                    errors.append(f"{query.qid}: exit {code}, expected "
                                  f"{query.expected_exit}: {stderr[-300:]!r}")
                digests[query.qid] = catalogue.digest(out)
            else:
                result = query.call()
                if query.check is not None and not query.check(result):
                    errors.append(f"{query.qid}: by-construction check failed")
                digests[query.qid] = catalogue.digest(result)
            print(f"{query.qid} {digests[query.qid][:16]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bound = int(catalogue.KNOWN_DEFECT.argv[-1])
    values = chocolate.generate(chocolate.SequenceSpec(chocolate.SequenceKind.SQUARE, bound))
    hex_lines = "".join(f"{n} {v:x}\n" for n, v in values)
    expected = subprocess.run([sys.executable, str(run.BENCH / "decimal_lines.py")],
                              input=hex_lines.encode(), capture_output=True, check=True).stdout
    known = {"qid": catalogue.KNOWN_DEFECT.qid, "sha256": catalogue.digest(expected),
             "lines": expected.count(b"\n")}

    for error in errors:
        print(f"ERROR {error}", file=sys.stderr)
    if errors:
        return 1
    run.REFERENCE.write_text(json.dumps(
        {"queries": dict(sorted(digests.items())), "known_defect": known},
        indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

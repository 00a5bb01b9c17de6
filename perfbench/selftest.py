"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny size through ``run.py``, untraced and
traced, and checks that the last line is the result object, that every
metric BENCHMARK.json names is emitted as a finite number with its unit,
that a clean run fails nothing, and that a run whose first operation raises
still exits 0 and counts that operation in ``failed`` and ``pass_frac``.
Last, it checks that ``run.py`` refuses, with a non-zero exit code and no
result, in a directory holding only BENCHMARK.json and ``perfbench/``.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def _metric_problems(result, wanted):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(got) != names:
        problems.append(f"metric names differ: {sorted(set(got) ^ names)}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if set(entry) != {"value", "unit"}:
            problems.append(f"{m['name']}: keys {sorted(entry)}")
        elif entry["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {entry['unit']!r}, want {m['unit']!r}")
        elif not (isinstance(entry["value"], (int, float))
                  and math.isfinite(entry["value"])):
            problems.append(f"{m['name']}: value {entry['value']!r}")
    return problems


def main():
    failures = []

    def expect(ok, what):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = _run(ROOT, workload, trace, "--size", "tiny")
            what = f"{workload} trace={trace}"
            if proc.returncode != 0 or result is None:
                expect(False, f"{what}: exit {proc.returncode}, no result\n"
                       f"{proc.stderr[-2000:]}")
                continue
            problems = _metric_problems(result, SPEC[kind])
            expect(not problems, f"{what}: every metric with its unit "
                   + "; ".join(problems))
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{what}: clean run fails nothing "
                   f"({result['failed']}/{result['attempted']} failed)")

        proc, result = _run(ROOT, workload, 0, "--size", "tiny",
                            "--inject-failure")
        ok = (proc.returncode == 0 and result is not None
              and result["failed"] >= 1 and not result["correct"]
              and abs(result["metrics"]["pass_frac"]["value"]
                      - (1.0 - result["failed"] / result["attempted"])) < 1e-12)
        expect(ok, f"{workload}: injected failure shows in failed and pass_frac")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy2(path, bare / "perfbench")
    proc, result = _run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and result is None,
           "without the library source run.py exits non-zero, no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

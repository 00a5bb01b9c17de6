"""Benchmark of blowup-lab: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  The workload runs in a child
process of its own, so its peak RSS is its own.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics; the lines before it give every metric
with its unit and sample count, the gates, the inputs and the environment.
The full record of the run is written to ``perfbench/out/``.

For a workload with ``CALIBRATED`` set, ``op_p50_s`` and ``ops_per_s`` are
scaled to the reference host speed by the worker's calibration kernel (see
README.md); the unscaled figures are printed on the ``host slowdown`` line.

``setup_s`` is the median over several processes of the time from process
start to the first operation: extra processes that only set up and exit
run before and after the measuring process, which counts as one more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2   # set-up-only processes; with the measuring one, 3 samples
DEADLINE_S = 175   # the whole run, including set-up, ends within this


def _spawn(args, deadline):
    """Run the worker; return its last-line JSON and its start time."""
    started = time.monotonic()
    with subprocess.Popen([sys.executable, str(WORKER), *args],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
        finally:
            if proc.poll() is None:  # timed out or interrupted
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # for the self-test only: smaller inputs, and a first operation that raises
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "blowup_lab" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'blowup_lab'}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size]
    def setup_time():
        probe, started = _spawn(worker_args + ["--setup-only"], deadline)
        return probe["ready_at"] - started

    # probes before and after the measuring process spread the set-up
    # samples over the run, so one slow moment of the host weighs less
    probes = 0 if args.trace else SETUP_PROBES
    setups = [setup_time() for _ in range(probes // 2)]
    record, started = _spawn(
        worker_args + (["--inject-failure"] if args.inject_failure else []),
        deadline)
    setups.append(record["ready_at"] - started)
    setups += [setup_time() for _ in range(probes - probes // 2)]
    metrics = record["metrics"]
    cal = record["calibration"]
    metrics["setup_s"] = [statistics.median(setups), "s", len(setups)]
    record["setup_samples_s"] = setups

    for key in ("env", "inputs"):
        print(key, json.dumps(record[key]))
    print(f"passes {record['passes']} in {record['window_s']:.2f} s; "
          f"attempted {record['attempted']}, failed {record['failed']}, "
          f"fail_frac {record['fail_frac']:.4g}, "
          f"err_over_tol {record['err_over_tol']:.4g}")
    if cal:
        print(f"host slowdown {cal['slowdown']:.4g}: mean of "
              f"{len(cal['samples_s'])} calibration samples over "
              f"{cal['ref_s']} s; unscaled op_p50_s {cal['op_p50_s_raw']:.6g} s, "
              f"ops_per_s {cal['ops_per_s_raw']:.6g} 1/s")
    worst = max((g for g in record["gates"] if g["ratio"] is not None),
                key=lambda g: g["ratio"], default=None)
    if worst:
        print(f"worst gate: {worst['name']} (error/tolerance {worst['ratio']:.4g})")
    for gate in record["gates"]:
        if not gate["passed"]:
            print(f"FAILED gate: {gate['name']} (error/tolerance {gate['ratio']})")
    for m in wanted:
        value, unit, samples = metrics[m["name"]]
        print(f"metric {m['name']} = {value:.6g} {unit} (samples {samples})")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

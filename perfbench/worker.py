"""Runs one workload in its own process and prints one JSON record.

``run.py`` starts this script; the record on its last stdout line carries
the moment set-up finished (``time.monotonic``, which is shared between
processes), the measured operations, the gates, the metrics and the
environment.  With ``--setup-only`` the process stops right after set-up.

A run times whole passes.  After each pass it starts another only if that
pass is predicted, from the mean pass so far, to end within ``--seconds``;
the first pass always runs.  In trace mode every pass runs twice on the
same inputs, untraced and then traced, so the difference of the two times
is the tracing overhead.

The host's speed drifts over minutes because other machines share its
processors, and interpreter-bound Python drifts most.  For a workload with
``CALIBRATED`` set, an untraced run times ``calibrate`` before every
operation and once after the last, and scales its timing metrics by the
mean of those samples over ``CALIBRATION_REF_S``.  The unscaled figures are
kept in the record under ``calibration``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(SRC))
import blowup_lab  # noqa: E402

if Path(blowup_lab.__file__).resolve().parent != (SRC / "blowup_lab").resolve():
    sys.exit(f"blowup_lab was imported from {blowup_lab.__file__}, not {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from blowup_lab import geometry  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Gate, PassCheck  # noqa: E402


# About the mean seconds of ``calibrate`` on the reference machine (2 vCPUs of an
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.09
_CAL_V = np.linspace(0.1, 0.6, 6)


def calibrate():
    """Seconds of fixed interpreter-bound work that calls nothing of the library.

    Numpy calls on one 6-vector in a Python loop, the kind of work peak
    extraction does point by point.
    """
    t0 = time.perf_counter()
    x = _CAL_V.copy()
    for _ in range(12000):
        r = float(np.sqrt(x @ x))
        x = np.cos(r) * x + np.sin(r) * _CAL_V / (1.0 + r)
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "blowup_lab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "BLOWUP_LAB_THREADS": os.environ.get("BLOWUP_LAB_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run_ops(workload, index, first_id, inject, tracer=None, calibrations=None):
    """Time each operation of one pass; an exception fails only its op.

    With a ``calibrations`` list, ``calibrate`` runs before each operation
    and its time is appended there.
    """
    records, outputs = [], []
    for j, (label, fn) in enumerate(workload.ops(index)):
        op_id = first_id + j
        if calibrations is not None:
            calibrations.append(calibrate())
        t0 = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                if inject and op_id == 0:
                    raise geometry.CapacityError("injected failure")
                out = fn()
        except Exception:
            print(f"operation {op_id} ({label}) raised:", file=sys.stderr)
            traceback.print_exc()
            out = None
        records.append({"label": label, "seconds": time.perf_counter() - t0,
                        "raised": out is None,
                        "nodes": out.get("nodes") if out else None})
        outputs.append(out)
    return records, outputs


def check_pass(workload, records, outputs):
    try:
        check = workload.check(outputs)
    except Exception:
        print("pass check raised:", file=sys.stderr)
        traceback.print_exc()
        check = PassCheck([False] * len(outputs),
                          [Gate("check raised", None, False)])
    for rec, ok in zip(records, check.op_ok):
        rec["ok"] = bool(ok)
    return check


def gate_ratio(gate):
    """Error over tolerance; a count gate reads 0 if it passed, else 1."""
    if gate.ratio is not None:
        return gate.ratio
    return 0.0 if gate.passed else 1.0


def measure(workload, seconds, trace, inject):
    tracer = Tracer() if trace else None
    ops, traced_ops, checks = [], [], []
    calibrations = [] if workload.CALIBRATED and not trace else None
    start = time.perf_counter()
    passes = 0
    while True:
        records, outputs = run_ops(workload, passes, len(ops), inject,
                                   calibrations=calibrations)
        checks.append(check_pass(workload, records, outputs))
        ops += records
        if tracer:
            with tracer.installed():
                records, outputs = run_ops(workload, passes, len(traced_ops),
                                           False, tracer)
            checks.append(check_pass(workload, records, outputs))
            traced_ops += records
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    if calibrations is not None:
        calibrations.append(calibrate())
    return tracer, ops, traced_ops, checks, passes, elapsed, calibrations


def summarize(ops, traced_ops, checks, elapsed, calibrations, tracer):
    """Metric name -> [value, unit, sample count], and the calibration."""
    executed = ops + traced_ops
    attempted = len(executed)
    passed = sum(op["ok"] for op in executed)
    gates = [g for c in checks for g in c.gates]
    # no gate at all means nothing was verified
    err = max(map(gate_ratio, gates), default=1.0)
    # the measured window without the calibration kernel's share
    busy = elapsed - sum((calibrations or [0.0])[:-1])
    # a failed operation's latency counts as the whole window
    op_p50 = statistics.median(op["seconds"] if op["ok"] else busy
                               for op in ops)
    rate = sum(op["ok"] for op in ops) / busy
    calibration = None
    slowdown = 1.0
    if calibrations:
        slowdown = statistics.fmean(calibrations) / CALIBRATION_REF_S
        calibration = {"samples_s": calibrations, "ref_s": CALIBRATION_REF_S,
                       "slowdown": slowdown, "op_p50_s_raw": op_p50,
                       "ops_per_s_raw": rate}
    metrics = {
        "op_p50_s": [op_p50 / slowdown, "s", len(ops)],
        "ops_per_s": [rate * slowdown, "1/s", len(ops)],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB", 1],
        "pass_frac": [passed / attempted, "ratio", attempted],
        "gate_margin": [1.0 - err, "ratio", len(gates)],
    }
    if tracer:
        metrics = {}
        n = len(traced_ops)
        for name, (value, unit) in tracer.layer_metrics(n).items():
            metrics[name] = [value, unit, n]
        untraced = statistics.fmean(op["seconds"] for op in ops)
        traced = statistics.fmean(op["seconds"] for op in traced_ops)
        planted = sum(c.planted for c in checks)
        metrics.update({
            "diagnostics.recovered_frac": [
                sum(c.recovered for c in checks) / planted if planted else 0.0,
                "ratio", planted],
            "trace.op_s": [traced, "s", n],
            "trace.overhead_s": [traced - untraced, "s", n],
            "trace.overhead_frac": [(traced - untraced) / untraced, "ratio", n],
        })
    return attempted, attempted - passed, err, metrics, gates, calibration


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer, ops, traced_ops, checks, passes, elapsed, calibrations = measure(
        workload, args.seconds, args.trace, args.inject_failure)
    attempted, failed, err, metrics, gates, calibration = summarize(
        ops, traced_ops, checks, elapsed, calibrations, tracer)
    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({
        "ready_at": ready_at,
        "env": environment(),
        "inputs": workload.describe(),
        "passes": passes,
        "window_s": elapsed,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "err_over_tol": err,
        "metrics": metrics,
        "calibration": calibration,
        "gates": [g._asdict() for g in gates],
        "ops": ops,
        "traced_ops": traced_ops,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

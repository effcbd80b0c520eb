"""Benchmark worker: one workload in its own process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Imports the package from the checkout's `src`, builds the workload's inputs,
prints `ready`, then runs and prints one JSON line with what it measured.
With --probe it exits after `ready`; the parent times set-up with it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import physec  # noqa: E402
import scipy  # noqa: E402

import golden  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DIGEST_TRIALS,
    MESSAGES_PER_TRIAL,
    PANEL_SEEDS,
    WORKLOADS,
    check_result,
    combined_digest,
    quality,
    result_digest,
    trial_seed,
)


def run_trial(workload, inputs) -> dict:
    """Run and check one trial; a failure is recorded, not raised."""
    start = time.perf_counter()
    try:
        result = workload.run(inputs)
        seconds = time.perf_counter() - start
        check_result(result)
    except Exception:  # a failed trial must not end the run
        return {
            "seconds": time.perf_counter() - start,
            "error": traceback.format_exc(limit=3),
        }
    return {"seconds": seconds, "digest": result_digest(result), "result": result}


def run_timed(workload, seed: int, seconds: float, plan: list, workdir: Path) -> dict:
    """Run the panel untimed, then seed-derived trials until `seconds` have
    passed since the start.  Each timed trial is bracketed by runs of the
    host-speed reference loop and its time is scaled to the nominal host
    speed; the rate is the timed trials' messages over their scaled seconds."""
    start = time.perf_counter()
    panel = [run_trial(workload, inputs) for inputs in plan[: len(PANEL_SEEDS)]]
    timed = []
    before = hostspeed.reference()
    k = len(PANEL_SEEDS)
    while k < DIGEST_TRIALS or time.perf_counter() - start < seconds:
        inputs = plan[k] if k < len(plan) else workload.make_input(trial_seed(seed, k), workdir)
        trial = run_trial(workload, inputs)
        after = hostspeed.reference()
        trial["scaled_seconds"] = hostspeed.scaled(trial["seconds"], before, after)
        trial.pop("result", None)
        timed.append(trial)
        before = after
        k += 1
    trials = panel + timed
    ok = [t for t in timed if "error" not in t]
    return {
        "attempted": len(trials),
        "failed": sum("error" in t for t in trials),
        "errors": [t["error"] for t in trials if "error" in t],
        "trial_seconds": {
            "panel": [t["seconds"] for t in panel],
            "timed": [t["seconds"] for t in timed],
            "timed_scaled": [t["scaled_seconds"] for t in timed],
        },
        "messages_per_s": len(ok) * MESSAGES_PER_TRIAL / sum(t["scaled_seconds"] for t in ok)
        if ok else None,
        "unscaled_messages_per_s": len(ok) * MESSAGES_PER_TRIAL / sum(t["seconds"] for t in ok)
        if ok else None,
        "quality": quality([t["result"] for t in panel]) if all("result" in t for t in panel) else None,
        "digest": _digest(trials[:DIGEST_TRIALS]),
    }


def run_traced(workload, plan: list) -> dict:
    """Run the digest trials untraced, then traced; the traced results must
    match.  Also compares the golden configurations."""
    untraced_start = time.perf_counter()
    untraced = [run_trial(workload, inputs) for inputs in plan]
    untraced_s = time.perf_counter() - untraced_start
    tracer = Tracer("physec")
    traced_start = time.perf_counter()
    with tracer:
        traced = [run_trial(workload, inputs) for inputs in plan]
    traced_s = time.perf_counter() - traced_start
    errors = [t["error"] for t in untraced + traced if "error" in t]
    failed = 0
    for before, after in zip(untraced, traced):
        if "error" in before or "error" in after:
            failed += 1
        elif before["digest"] != after["digest"]:
            failed += 1
            errors.append(f"traced digest {after['digest']} != untraced {before['digest']}")
    layers = {name: list(v) for name, v in tracer.layer_metrics().items()}
    layers["bench.trace_overhead_s"] = [traced_s - untraced_s, "s"]
    return {
        "attempted": len(plan),
        "failed": failed,
        "errors": errors,
        "digest": _digest(untraced),
        "traced_digest": _digest(traced),
        "layers": layers,
        "golden": golden.compare(golden.load(), golden.digests()),
    }


def _digest(trials: list):
    if any("error" in t for t in trials):
        return None
    return combined_digest(t["digest"] for t in trials)


def openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[os.path.basename(path)] = getter()
                break
    return found


def context() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if not Path(physec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"physec imported from {physec.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        workdir = Path(tmp)
        plan = [
            workload.make_input(trial_seed(args.seed, k), workdir) for k in range(DIGEST_TRIALS)
        ]
        print("ready", flush=True)
        if args.probe:
            return 0
        if args.trace:
            report = run_traced(workload, plan)
        else:
            report = run_timed(workload, args.seed, args.seconds, plan, workdir)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["context"] = context()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

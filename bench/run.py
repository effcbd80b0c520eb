"""physec benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload gmm-update --seed 1 --seconds 20 --trace 0

Runs the workload in its own worker process and prints, as the last line of
standard output, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones,
measured untraced; with --trace 1 they are the per-layer ones, from a traced
run of the same trials.  The line before it is a JSON report: run context,
result digest, golden-digest comparison and any trial errors.

Workers start without PHYSEC_SEED in their environment (the seed is passed
explicitly), with one BLAS thread and with a fixed glibc mmap threshold.
Times are scaled to a nominal host speed by `hostspeed.reference()` runs
around each timed piece of work; the report line also gives them unscaled.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed on this many fresh workers after one untimed warm-up that
# fills the bytecode caches.
SETUP_PROBES = 10
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PHYSEC_SEED", None)
    # One BLAS thread: the matrices are small, and a second thread on a
    # shared host measures the scheduler more than the program.
    for name in THREAD_VARIABLES:
        env[name] = "1"
    # glibc raises its mmap threshold each time it frees a large block, and
    # whether the next multi-megabyte buffers then stay resident on the heap
    # varies from run to run; a fixed threshold makes peak RSS repeat.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_worker(args, deadline: float, probe: bool) -> tuple:
    """Run one worker to the end; returns (last stdout line, set-up seconds),
    where set-up lasts from the start of the process to its `ready` line."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        command.append("--probe")
    start = time.perf_counter()
    # unbuffered, so reading the `ready` line takes nothing that follows it
    proc = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline().decode() if ready else ""
        setup_s = time.perf_counter() - start
        try:
            out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{err.decode(errors='replace')}")
    if line.strip() != "ready":
        raise WorkerError(f"worker did not report ready: {line!r}")
    lines = out.decode().strip().splitlines()
    return (lines[-1] if lines else ""), setup_s


def measure(args) -> tuple:
    """Run the probes and the measuring worker; returns (report, set-up
    seconds of each probe as measured, the same scaled to the nominal host
    speed by the reference runs around it)."""
    deadline = time.monotonic() + DEADLINE_S
    setups, scaled = [], []
    if not args.trace:
        run_worker(args, deadline, probe=True)
        before = hostspeed.reference()
        for _ in range(SETUP_PROBES):
            _, setup_s = run_worker(args, deadline, probe=True)
            after = hostspeed.reference()
            setups.append(setup_s)
            scaled.append(hostspeed.scaled(setup_s, before, after))
            before = after
    last_line, _ = run_worker(args, deadline, probe=False)
    return json.loads(last_line), setups, scaled


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(report: dict, scaled_setups: list) -> dict:
    q = report["quality"] or {}
    attempted = report["attempted"]
    return {
        "messages_per_s": metric(report["messages_per_s"], "msg/s"),
        "setup_s": metric(statistics.median(scaled_setups), "s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        "pd_at_target_fa": metric(q.get("pd_at_target_fa"), "ratio"),
        "fa_calibration_error": metric(q.get("fa_calibration_error"), "ratio"),
        "pass_frac": metric((attempted - report["failed"]) / attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="physec benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "physec" / "__init__.py").is_file():
        print(f"no physec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, setups, scaled_setups = measure(args)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in report["layers"].items()}
    else:
        metrics = end_to_end(report, scaled_setups)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "result_digest": report["digest"],
        "context": report["context"],
        "errors": report["errors"],
    }
    if not args.trace:
        summary["trial_seconds"] = report["trial_seconds"]
        summary["unscaled"] = {
            "messages_per_s": report["unscaled_messages_per_s"],
            "setup_s": statistics.median(setups),
        }
    if args.trace:
        summary["traced_digest"] = report["traced_digest"]
        summary["golden"] = report["golden"]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

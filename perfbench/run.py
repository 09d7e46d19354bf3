"""dephaser benchmark entry point.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. Set-up is timed several times in fresh
processes (import, input generation, warm-up) and the median is reported;
the last process then measures the workload. End-to-end times are corrected
for the machine's speed at the time (speed.py). Every child gets
OMP_NUM_THREADS = OPENBLAS_NUM_THREADS = MKL_NUM_THREADS = 1; nothing else
about the machine is changed.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The line before it holds the details: env
block, digest, sample counts and the first failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

SETUPS = 7  # fresh processes timed per run for setup_s
TIME_LIMIT_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _git_sha(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dephaser", "__init__.py")):
        return _fail(f"no dephaser source under {os.path.join(root, 'src')}; run from a checkout root")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env_block = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
        "git_sha": _git_sha(root),
    }
    child_env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", root]

    deadline = time.monotonic() + TIME_LIMIT_S
    setup_times, raw_setup_times, import_times = [], [], []
    result = None
    for k in range(SETUPS):
        measure = k == SETUPS - 1
        proc = subprocess.Popen(base + ([] if measure else ["--setup-only"]), stdout=subprocess.PIPE,
                                env=child_env, cwd=root, text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            t0 = time.perf_counter()
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            if not line.startswith("READY "):
                proc.kill()
                proc.wait()
                return _fail(f"worker failed during set-up (exit {proc.poll()})")
            ready = json.loads(line[len("READY "):])
            raw_setup = t1 - t0 - ready["check_s"]
            raw_setup_times.append(raw_setup)
            setup_times.append(raw_setup * ready["speed_factor"])
            import_times.append(ready["import_s"])
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if code != 0:
            return _fail(f"worker exited with {code}")
        if measure:
            lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
            if not lines:
                return _fail("worker printed no result")
            result = json.loads(lines[-1][len("RESULT "):])

    metrics = dict(result["metrics"])
    if args.trace:
        metrics["import_s"] = statistics.median(import_times)
    else:
        metrics["setup_s"] = statistics.median(setup_times)
    errors = list(result["errors"])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not measured: {missing}")

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**env_block, **result["env"]},
        "digest": result["digest"],
        "passes": result["passes"],
        "items_per_pass": result["items_per_pass"],
        "setup_s_samples": setup_times,
        "raw_setup_s_samples": raw_setup_times,
        "errors": errors,
        "failures": result["reasons"],
    }
    for key in ("pass_walls_s", "items", "tail_percentile", "traced_passes", "spans_file", "speed_probe", "pass_scaled_s",
                "raw_wall_s", "raw_item_p50_ms", "raw_item_p90_ms"):
        if key in result:
            details[key] = result[key]
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["failed"] == 0 and not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

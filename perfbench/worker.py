"""Benchmark child process: set up one workload, then measure it.

Started by run.py with BLAS pinned to one thread. It prints `READY {...}` on
its protocol stream once set-up is done (run.py times set-up up to that
line; the message carries the speed factor measured at the end of set-up),
and with --setup-only it exits there. Otherwise it runs passes of the
workload, with the speed probe running, until --seconds would be exceeded,
and prints `RESULT {...}`.

With --trace 1 every round is an untraced pass followed by a traced one, so
the tracing overhead and the equality of the two digests are measured in the
same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time


def _import_package(root: str):
    """Import dephaser from root/src and return (package, import seconds)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dephaser.cli  # noqa: F401  (timed: the import a shell user pays)

    import_s = time.perf_counter() - t0
    pkg = sys.modules["dephaser"]
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dephaser was imported from {pkg.__file__}, not from {src}")
    return pkg, import_s


def _env_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):  # numpy versions differ in show_config
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_pass(wl, Pass, tracer=None):
    p = Pass()
    if tracer is not None:
        tracer.install(wl.bench_spans())
        wl.tracer = tracer
        i0 = len(tracer.start)
    t0 = wl.clock()
    wl.run_pass(p)
    t1 = wl.clock()
    span_range = None
    if tracer is not None:
        span_range = (i0, len(tracer.start), t0, t1)
        wl.tracer = None
        tracer.uninstall()
    p.wall = (t1 - t0) / 1e9
    p.interval = (t0, t1)
    return p, span_range


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr  # the package prints; keep the protocol stream clean

    pkg, import_s = _import_package(args.root)
    import numpy as np

    from speed import SpeedProbe, spot_check
    from tracing import LAYERS, Tracer, aggregate
    from workloads import WORKLOADS, Pass

    mods = {"package": pkg, **{layer: sys.modules[f"dephaser.{layer}"] for layer in LAYERS}}

    workdir = os.path.join(args.root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](mods, args.seed, workdir)
        wl.setup()
        errors = wl.selftest()
        factor, check_ns = spot_check()
        proto.write("READY " + json.dumps({"import_s": import_s, "speed_factor": factor, "check_s": check_ns / 1e9})
                    + "\n")
        if args.setup_only:
            return 0

        tracer = Tracer(mods) if args.trace else None
        # end-to-end times are corrected for the machine's speed; the traced
        # run reports raw times, so no probe runs inside its spans
        probe = SpeedProbe() if tracer is None else None
        if probe is not None:
            wl.clock = probe.now
            probe.start()
        untraced, traced, ranges = [], [], []
        need = wl.min_passes if tracer is None else 2
        begin = time.perf_counter()
        try:
            while True:
                untraced.append(_run_pass(wl, Pass)[0])
                if tracer is not None:
                    p, span_range = _run_pass(wl, Pass, tracer)
                    traced.append(p)
                    ranges.append(span_range)
                elapsed = time.perf_counter() - begin
                rounds = len(untraced)
                if rounds >= need and elapsed * (rounds + 1) / rounds > args.seconds:
                    break
        finally:
            if probe is not None:
                probe.stop()
        if probe is not None:
            probe.freeze()

        passes = untraced + traced
        digests = sorted({p.digest.hexdigest() for p in passes})
        if len({p.digest.hexdigest() for p in untraced}) > 1:
            errors.append("untraced passes gave different digests")
        if len(digests) > 1 and tracer is not None:
            errors.append("traced and untraced passes gave different digests")
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        walls = [p.wall for p in untraced]
        out = {
            "attempted": attempted,
            "failed": failed,
            "reasons": [r for p in passes for r in p.reasons][:10],
            "errors": errors,
            "digest": digests[0],
            "passes": len(untraced),
            "pass_walls_s": walls,
            "items_per_pass": wl.items_per_pass,
            "env": _env_info(),
        }
        if tracer is None:
            scaled = np.array([[probe.scaled(*iv) for iv in p.intervals] for p in untraced])
            raw = np.array([[(t1 - t0) / 1e9 for t0, t1 in p.intervals] for p in untraced])
            if wl.items_per_pass >= 20:
                # every pass runs the same items, so an item's latency is its
                # median over the passes (which drops the machine's stalls of
                # a few ms) and the percentiles are taken over the items; the
                # tail is p90, or the highest percentile that leaves ten items
                # beyond it
                lat, raw = np.median(scaled, axis=0), np.median(raw, axis=0)
                q = min(0.90, 1.0 - 10.0 / lat.size)
            else:
                # one item per pass: the passes are the samples, and with too
                # few of them for a percentile above the median the slowest is
                # the tail
                lat, raw = scaled.ravel(), raw.ravel()
                q = 1.0
            out["tail_percentile"] = round(100 * q, 1)
            out["items"] = int(lat.size)
            out["speed_probe"] = probe.summary()
            out["pass_scaled_s"] = [probe.scaled(*p.interval) for p in untraced]
            out["raw_wall_s"] = statistics.median(walls)
            out["raw_item_p50_ms"] = float(np.percentile(raw, 50)) * 1e3
            out["raw_item_p90_ms"] = float(np.percentile(raw, 100 * q)) * 1e3
            out["metrics"] = {
                "wall_s": statistics.median(out["pass_scaled_s"]),
                "item_p50_ms": float(np.percentile(lat, 50)) * 1e3,
                "item_p90_ms": float(np.percentile(lat, 100 * q)) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            spans = tracer.arrays()
            metrics, trace_errors = aggregate(tracer.names, spans, ranges, wl.items_per_pass)
            errors.extend(trace_errors)
            metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(walls)
            metrics["fail_ratio"] = failed / attempted
            out["metrics"] = metrics
            out["traced_passes"] = len(traced)
            outdir = os.path.join(args.root, ".bench_out")
            os.makedirs(outdir, exist_ok=True)
            path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.npz")
            np.savez_compressed(path, names=np.array(tracer.names), passes=np.array(ranges), **spans)
            out["spans_file"] = os.path.relpath(path, args.root)
        proto.write("RESULT " + json.dumps(out) + "\n")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: sample, classify, apply, realize, coherence, distinguish,
verify. Every command prints a JSON report to stdout containing the schema
version, the fully resolved config (seed, tolerance table, flags), the
command results, and the wall time; --out additionally writes just the
results payload, which is byte-deterministic for a fixed config.

Exit codes: 0 success, 1 verification failure, 2 usage or JSON parse error,
3 semantic input error (invalid matrices, dim mismatch), 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import channels as chn
from . import coherence as coh
from . import serialization as ser
from . import superchannels as ssc
from . import verify as ver
from .sampling import Rng

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3
EXIT_SOLVER = 4


class _UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _uint64(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {text}")
    return value


def _eps_value(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"eps must be in [0, 1), got {text}")
    return value


def _extract_tol_overrides(argv: list[str]) -> tuple[dict, list[str]]:
    """Pull --tol.NAME[=]VALUE pairs out of argv before argparse sees them."""
    overrides: dict[str, float] = {}
    rest: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            body = arg[len("--tol.") :]
            if "=" in body:
                name, _, text = body.partition("=")
            else:
                name = body
                i += 1
                if i >= len(argv):
                    raise _UsageError(f"--tol.{name} needs a value")
                text = argv[i]
            if name not in ver.DEFAULT_TOLERANCES:
                known = ", ".join(sorted(ver.DEFAULT_TOLERANCES))
                raise _UsageError(f"unknown tolerance {name!r}; known: {known}")
            try:
                overrides[name] = float(text)
            except ValueError:
                raise _UsageError(f"--tol.{name} needs a number, got {text!r}") from None
        else:
            rest.append(arg)
        i += 1
    return overrides, rest


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("DEPHASER_SEED")
    if env is None:
        return 0
    try:
        value = int(env)
    except ValueError:
        raise _UsageError(f"DEPHASER_SEED must be an integer, got {env!r}") from None
    if value < 0:
        raise _UsageError(f"DEPHASER_SEED must be nonnegative, got {env!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephaser",
        description="Dephasing superchannels: sampling, classification, "
                    "realization, coherence analysis, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_uint64, default=None,
                       help="RNG seed (default: DEPHASER_SEED env var, else 0)")
        p.add_argument("--out", type=str, default=None,
                       help="write the results payload to this JSON file")

    p = sub.add_parser("sample", help="emit random objects")
    p.add_argument("--kind", choices=("superchannel", "channel", "dephasing-channel"),
                   default="superchannel")
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--rank", type=_positive_int, default=None,
                   help="Kraus rank for --kind channel (default d^2)")
    common(p)

    p = sub.add_parser("classify", help="validate and classify a correlation matrix")
    p.add_argument("input", type=str)
    common(p)

    p = sub.add_parser("apply", help="apply a superchannel to a channel")
    p.add_argument("superchannel", type=str)
    p.add_argument("channel", type=str)
    common(p)

    p = sub.add_parser("realize", help="pre/post memory unitaries for a superchannel")
    p.add_argument("superchannel", type=str)
    common(p)

    p = sub.add_parser("coherence", help="coherence, robustness, and divergence bounds")
    p.add_argument("channel", type=str)
    p.add_argument("--eps", type=_eps_value, action="append", default=None,
                   help="type-I error(s) for the divergence bound (repeatable; default 0 and 0.1)")
    p.add_argument("--restarts", type=_positive_int, default=8)
    common(p)

    p = sub.add_parser("distinguish", help="seesaw discrimination of superchannels on a gate")
    p.add_argument("gate", type=str)
    p.add_argument("superchannels", type=str, nargs="+",
                   help="two or more superchannel JSON files")
    p.add_argument("--restarts", type=_positive_int, default=32)
    common(p)

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="cap per-loop trial counts (quick mode)")
    common(p)
    return parser


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if math.isnan(float(obj)):
            return None
        return ser.encode_float(obj)
    return obj


def _cmd_sample(args, tol: dict, seed: int):
    rng = Rng(seed)
    d = args.dim
    items = []
    for i in range(args.n):
        ri = rng.derive(1000 * i)
        if args.kind == "superchannel":
            items.append(ser.superchannel_to_json(ssc.sample(ri, d)))
        elif args.kind == "channel":
            rank = args.rank if args.rank is not None else d * d
            items.append(ser.channel_to_json(chn.random_channel(ri, d, rank)))
        else:
            items.append(ser.dephasing_to_json(chn.random_dephasing(ri, d)))
    return {"kind": args.kind, "dim": d, "items": items}, None, EXIT_OK


def _cmd_classify(args, tol: dict, seed: int):
    c, d = ser.correlation_from_json(_load_json(args.input))
    out = ssc.validate(c, d, tol["psd"])
    if isinstance(out, ssc.Violation):
        results = {
            "valid": False,
            "violation": {
                "kind": out.kind,
                "indices": list(out.indices),
                "defect": ser.encode_float(out.defect),
                "witness_channel": None if out.witness is None
                else ser.channel_to_json(out.witness),
            },
        }
        return results, {"valid": False}, EXIT_SEMANTIC
    mc = ssc.memory_class(out, tol["psd"])
    results = {
        "valid": True,
        "memory_class": {
            "label": mc.label,
            "ppt_min_eig": mc.ppt_min_eig,
            "product_residual": mc.product_residual,
        },
        "tilde_c": ser.matrix_to_json(ssc.tilde_c(out).c),
    }
    if d == 2:  # the PPT criterion is sufficient for separability only at 2 x 2
        results["note"] = "for dim 2, PPT implies the memory state pattern is separable"
    return results, {"valid": True}, EXIT_OK


def _cmd_apply(args, tol: dict, seed: int):
    sc = ser.superchannel_from_json(_load_json(args.superchannel), tol["psd"])
    ch = ser.channel_from_json(_load_json(args.channel), tol["psd"])
    out = ssc.apply(sc, ch)
    t_in = chn.transition_matrix(ch)
    t_out = chn.transition_matrix(out)
    results = {
        "output_channel": ser.channel_to_json(out),
        "transition_in": ser.matrix_to_json(t_in.astype(complex)),
        "transition_out": ser.matrix_to_json(t_out.astype(complex)),
        "transition_max_change": float(np.abs(t_in - t_out).max()),
    }
    return results, None, EXIT_OK


def _cmd_realize(args, tol: dict, seed: int):
    sc = ser.superchannel_from_json(_load_json(args.superchannel), tol["psd"])
    real = ssc.realize(sc)
    rebuilt = ssc.from_unitaries(real.us, real.vs)
    m = sc.dim * sc.dim
    unit_dev = max(
        float(np.abs(w.conj().T @ w - np.eye(m)).max()) for w in (*real.us, *real.vs)
    )
    results = {
        "realization": ser.realization_to_json(real),
        "roundtrip_residual": float(np.abs(rebuilt.c - sc.c).max()),
        "unitarity_deviation": unit_dev,
    }
    return results, None, EXIT_OK


def _cmd_coherence(args, tol: dict, seed: int):
    ch = ser.channel_from_json(_load_json(args.channel), tol["psd"])
    eps_list = args.eps if args.eps else [0.0, 0.1]
    cert = coh.robustness(ch, gap_tol=tol["gap"], feas_tol=tol["feas"])
    checks = coh.check_certificate(ch, cert, tol["feas"])
    classical = chn.classical_version(ch)
    rng = Rng(seed)
    bounds = []
    for j, eps in enumerate(eps_list):
        dh = coh.dh_channel_divergence_lower(ch, classical, eps,
                                             restarts=args.restarts, rng=rng.derive(1000 * j))
        bounds.append({
            "eps": eps,
            "dh_divergence_lower": ser.encode_float(dh),
            # count of channels reachable from this gate via dephasing superchannels
            "image_count_bound": ser.encode_float(2.0 ** dh if not math.isinf(dh) else math.inf),
            # count of dephasing superchannels distinguishable using this gate
            "discrimination_count_bound": (1.0 + cert.value) / (1.0 - eps),
        })
    results = {
        "cohering_power": {
            "L1": coh.cohering_power(ch, coh.L1),
            "REL_ENT": coh.cohering_power(ch, coh.REL_ENT),
        },
        "robustness": ser.certificate_to_json(cert),
        "certificate_checks": checks,
        "divergence_bounds": bounds,
    }
    return results, {"certificate_ok": checks["ok"]}, EXIT_OK


def _cmd_distinguish(args, tol: dict, seed: int):
    gate = ser.channel_from_json(_load_json(args.gate), tol["psd"])
    scs = [ser.superchannel_from_json(_load_json(p), tol["psd"]) for p in args.superchannels]
    if len(scs) < 2:
        raise ValueError("need at least two superchannel files")
    inst = coh.discrimination_seesaw(gate, scs, restarts=args.restarts, rng=Rng(seed))
    cert = coh.robustness(gate, gap_tol=tol["gap"], feas_tol=tol["feas"])
    bound = coh.robustness_bound_check(inst, cert, tol["feas"])
    results = {
        "instance": ser.instance_to_json(inst),
        "robustness_value": cert.value,
        "bound_check": bound,
    }
    return results, {"bound_ok": bound["ok"]}, EXIT_OK


def _cmd_verify(args, tol: dict, seed: int):
    overrides = {k: v for k, v in tol.items() if ver.DEFAULT_TOLERANCES.get(k) != v}
    results = ver.run_all(seed=seed, trials=args.trials, tolerances=overrides)
    rows = []
    for r in results:
        rows.append({
            "id": r.cid,
            "name": r.name,
            "passed": r.passed,
            "margin": r.margin,
            "tolerance": r.tolerance,
            "detail": r.detail,
        })
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.cid:2d} {r.name}: {status} "
              f"(margin {r.margin:.3e}, tol {r.tolerance:.3e})", file=sys.stderr)
    all_passed = all(r.passed for r in results)
    payload = {"criteria": rows, "passed": all_passed}
    return payload, {"passed": all_passed}, EXIT_OK if all_passed else EXIT_VERIFY_FAILED


_HANDLERS = {
    "sample": _cmd_sample,
    "classify": _cmd_classify,
    "apply": _cmd_apply,
    "realize": _cmd_realize,
    "coherence": _cmd_coherence,
    "distinguish": _cmd_distinguish,
    "verify": _cmd_verify,
}


def _config_echo(args, tol: dict, seed: int) -> dict:
    cfg = {"seed": seed, "tolerances": dict(tol)}
    for name in ("kind", "dim", "n", "rank", "trials", "eps", "restarts", "out"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    inputs = []
    for name in ("input", "superchannel", "channel", "gate"):
        if hasattr(args, name):
            inputs.append(getattr(args, name))
    if hasattr(args, "superchannels"):
        inputs.extend(args.superchannels)
    if inputs:
        cfg["inputs"] = inputs
    return cfg


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        overrides, rest = _extract_tol_overrides(raw)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return int(exc.code or 0)
    tol = dict(ver.DEFAULT_TOLERANCES)
    tol.update(overrides)
    try:
        seed = _resolve_seed(args.seed)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.perf_counter()
    try:
        results, checks, code = _HANDLERS[args.command](args, tol, seed)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ssc.InvalidCorrelationError as exc:
        v = exc.violation
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": _config_echo(args, tol, seed),
            "error": {
                "kind": v.kind,
                "indices": list(v.indices),
                "defect": ser.encode_float(v.defect),
                "witness_channel": None if v.witness is None else ser.channel_to_json(v.witness),
            },
            "wall_time_s": time.perf_counter() - start,
        }
        print(ser.dumps(_sanitize(report)), end="")
        return EXIT_SEMANTIC
    except coh.SolverError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC

    results = _sanitize(results)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_echo(args, tol, seed),
        "results": results,
        "wall_time_s": time.perf_counter() - start,
    }
    if checks is not None:
        report["checks"] = _sanitize(checks)
    print(ser.dumps(report), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ser.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())

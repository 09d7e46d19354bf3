"""Command-line front end.

Subcommands: sample, classify, apply, realize, coherence, distinguish,
verify. Every command prints a JSON report to stdout containing the schema
version, the fully resolved config (seed, the tolerances the command reads,
flags), the command results, and the wall time; --out additionally writes
just the results payload, which is byte-deterministic for a fixed config.

Exit codes: 0 success, 1 verification failure, 2 usage, file I/O or JSON
parse error, 3 semantic input error (invalid matrices, dim mismatch), 4
solver or internal failure (any other exception, reported in one line).
"""

from __future__ import annotations

import argparse
import functools
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

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3
EXIT_SOLVER = 4

SEED_MAX = 2**64 - 1
RESTARTS_MAX = 1024  # the seesaw holds O(restarts * M * d^4) complex entries at once
DIM_MAX = 8  # a sampled superchannel's C and realization are O(d^4) complex entries
N_MAX = 1024  # the report holds all n sampled items in memory at once

# The tolerances each subcommand reads: its parser accepts --tol.NAME for
# these names only, and its report echoes exactly these.
_TOLERANCES = {
    "sample": (),
    "classify": ("psd",),
    "apply": ("psd",),
    "realize": ("psd",),
    "coherence": ("psd", "feas", "gap"),
    "distinguish": ("psd", "feas", "gap"),
    "verify": tuple(ver.DEFAULT_TOLERANCES),
}


def _number(kind: type, text: str):
    """kind(text), or None for a non-number, so each type function below
    raises its own message instead of argparse naming the function."""
    try:
        return kind(text)
    except ValueError:
        return None


def _positive_int(text: str) -> int:
    value = _number(int, text)
    if value is None or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _int_up_to(cap: int):
    """Type function for an integer flag in 1..cap; a non-number gets the
    message of any positive-integer flag."""
    def parse(text: str) -> int:
        value = _number(int, text)
        if value is not None and not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(f"must be an integer in 1..{cap}, got {text}")
        return _positive_int(text)
    return parse


def _uint64(text: str) -> int:
    value = _number(int, text)
    if value is None or not 0 <= value <= SEED_MAX:
        raise argparse.ArgumentTypeError(f"seed must be an integer in 0..2^64-1, got {text}")
    return value


def _tol_value(text: str) -> float:
    value = _number(float, text)
    if value is None or not math.isfinite(value):  # a NaN or inf tolerance would also reach the report
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    if value < 0.0:  # no residual is below a negative bound, so every check would fail
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return value


def _eps_value(text: str) -> float:
    value = _number(float, text)
    if value is None or not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"eps must be a number in [0, 1), got {text}")
    return value


@functools.cache  # parsing keeps no state in the parser; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephaser",
        description="Dephasing superchannels: sampling, classification, "
                    "realization, coherence analysis, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=_uint64, default=None,
                       help="RNG seed (default: DEPHASER_SEED env var, else 0)")
        p.add_argument("--out", type=str, default=None,
                       help="write the results payload to this JSON file")
        for tol in _TOLERANCES[name]:
            default = ver.DEFAULT_TOLERANCES[tol]
            p.add_argument(f"--tol.{tol}", type=_tol_value, default=default, metavar="VALUE",
                           help=f"tolerance (default {default:g})")
        return p

    p = command("sample", "emit random objects")
    p.add_argument("--kind", choices=("superchannel", "channel", "dephasing-channel"),
                   default="superchannel")
    p.add_argument("--dim", type=_int_up_to(DIM_MAX), default=2)
    p.add_argument("--n", type=_int_up_to(N_MAX), default=1)
    p.add_argument("--rank", type=_positive_int, default=None,
                   help="Kraus rank for --kind channel (default d^2)")

    p = command("classify", "validate and classify a correlation matrix")
    p.add_argument("input", type=str)

    p = command("apply", "apply a superchannel to a channel")
    p.add_argument("superchannel", type=str)
    p.add_argument("channel", type=str)

    p = command("realize", "pre/post memory unitaries for a superchannel")
    p.add_argument("superchannel", type=str)

    p = command("coherence", "coherence, robustness, and divergence bounds")
    p.add_argument("channel", type=str)
    p.add_argument("--eps", type=_eps_value, action="append", default=None,
                   help="type-I error(s) for the divergence bound (repeatable; default 0 and 0.1)")
    p.add_argument("--restarts", type=_int_up_to(RESTARTS_MAX), default=8)

    p = command("distinguish", "seesaw discrimination of superchannels on a gate")
    p.add_argument("gate", type=str)
    p.add_argument("superchannels", type=str, nargs="+",
                   help="two or more superchannel JSON files")
    p.add_argument("--restarts", type=_int_up_to(RESTARTS_MAX), default=32)

    p = command("verify", "run the acceptance criteria suite")
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="cap per-loop trial counts (quick mode)")
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv and resolve the seed. Every usage error, an unknown
    --tol.NAME included, exits through parser.error (SystemExit 2)."""
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    for arg in extras:
        if arg.startswith("--tol."):
            name = arg[len("--tol."):].partition("=")[0]
            if name in _TOLERANCES[args.command]:  # only the subcommand's parser takes it
                parser.error(f"--tol.{name} must follow the subcommand {args.command}")
            known = ", ".join(_TOLERANCES[args.command]) or "none"
            parser.error(f"unknown tolerance {name!r} for {args.command}; known: {known}")
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if getattr(args, "rank", None) is not None and args.kind != "channel":
        parser.error("--rank applies only to --kind channel")
    if args.command == "distinguish" and len(args.superchannels) < 2:
        parser.error("distinguish needs at least two superchannel files")
    if args.seed is None:
        env = os.environ.get("DEPHASER_SEED", "0")
        try:
            args.seed = _uint64(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"DEPHASER_SEED: {exc}")
    return args


class _InvalidJSON(Exception):
    """An input file that is not UTF-8 JSON Python can read (exit 2)."""


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError: bad JSON or UTF-8, or an int literal past Python's digit
        # limit; RecursionError: arrays or objects nested past the decoder's depth
        except (ValueError, RecursionError) as exc:
            raise _InvalidJSON(exc) from None


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
        results = {"valid": False, "violation": ser.violation_to_json(out)}
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
    checks = coh.check_certificate(ch, cert, tol["feas"], tol["gap"])
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
            "image_count_bound": ser.encode_float(2.0 ** dh),
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
    results = ver.run_all(seed=seed, trials=args.trials, tolerances=tol)
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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    tol = {name: getattr(args, f"tol.{name}") for name in _TOLERANCES[args.command]}

    try:
        return _run(args, tol)
    except _InvalidJSON as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # unreadable input or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except coh.SolverError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as exc:  # anything unmapped: one line, never a traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: internal failure: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_SOLVER


def _run(args, tol: dict) -> int:
    """Run the subcommand and print its report; an invalid correlation
    matrix is reported with exit 3, every other exception reaches main."""
    start = time.perf_counter()
    try:
        results, checks, code = _HANDLERS[args.command](args, tol, args.seed)
        wall = time.perf_counter() - start
        if args.out:  # written before the report, so a failed write prints no report
            text = ser.dumps(results)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        body = {"results": results}
        if checks is not None:
            body["checks"] = checks
    except ssc.InvalidCorrelationError as exc:
        wall = time.perf_counter() - start
        body = {"error": ser.violation_to_json(exc.violation)}
        code = EXIT_SEMANTIC
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_echo(args, tol, args.seed),
        **body,
        "wall_time_s": wall,
    }
    print(ser.dumps(report), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""JSON codecs for matrices, channels, superchannels, realizations, and
solver artifacts.

Matrix schema: {"rows": r, "cols": c, "data": [[re, im], ...]} with the data
list in row-major order. Reports are strict JSON: `dumps` writes a NaN as
null and +inf / -inf as the strings "inf" / "-inf".
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .channels import Channel, DephasingChannelC, dephasing_c, from_jam, from_kraus
from .linalg import TOL_PSD
from .superchannels import (
    DephasingSuperchannel,
    SuperRealization,
    Violation,
    superchannel,
)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    data = np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _json_int(obj: dict, field: str, what: str) -> int:
    """The positive integer field of a JSON object. A float counts only when
    it is integral (2.0, not 2.5), so nothing is truncated; a bool, string,
    list or object is rejected with a ValueError naming the field."""
    value = obj[field]
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 1:
        raise ValueError(f"{what} field {field!r} must be a positive integer, got {value!r}")
    return int(value)


def matrix_from_json(obj) -> np.ndarray:
    """The complex matrix of a decoded matrix JSON object. Well-formed data
    is converted in one np.array call; anything else goes through
    _decode_entries, which names the first bad entry."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols = _json_int(obj, "rows", "matrix"), _json_int(obj, "cols", "matrix")
        data = obj["data"]
    except KeyError as exc:
        raise ValueError(f"matrix JSON missing field: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"matrix JSON field 'data' must be a list, got {data!r}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix JSON has {len(data)} entries, expected {rows}x{cols}")
    try:
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.shape != (rows * cols, 2) or not np.isfinite(pairs).all():
        return _decode_entries(data, cols).reshape(rows, cols)
    return pairs.view(complex).reshape(rows, cols)


def _decode_entries(data: list, cols: int) -> np.ndarray:
    """The flat complex array of data, entry by entry, raising a ValueError
    that names the first entry that is not a [re, im] pair of finite
    numbers; a number too large for a float counts as not a number."""
    flat = np.empty(len(data), dtype=complex)
    for pos, entry in enumerate(data):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValueError(f"matrix entry {pos} is not a [re, im] pair")
        try:
            flat[pos] = complex(float(entry[0]), float(entry[1]))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"matrix entry {pos} (row {pos // cols}, col {pos % cols}) "
                             f"is not a pair of numbers: {entry!r}") from None
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(f"matrix entry {pos} (row {pos // cols}, col {pos % cols}) "
                         f"is non-finite: {data[pos]!r}")
    return flat


def encode_float(x: float):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return x


def channel_to_json(ch: Channel) -> dict:
    return {"dim": int(ch.dim), "jamiolkowski": matrix_to_json(ch.jam)}


def channel_from_json(obj, tol: float = TOL_PSD) -> Channel:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("channel JSON must be an object with a dim field")
    d = _json_int(obj, "dim", "channel")
    if "kraus" in obj:
        if not isinstance(obj["kraus"], list):
            raise ValueError(f"channel JSON field 'kraus' must be a list, got {obj['kraus']!r}")
        ks = [matrix_from_json(k) for k in obj["kraus"]]
        if any(k.shape != (d, d) for k in ks):
            raise ValueError("kraus operator shape does not match dim")
        return from_kraus(ks, tol)
    if "jamiolkowski" in obj:
        jam = matrix_from_json(obj["jamiolkowski"])
        if jam.shape != (d * d, d * d):
            raise ValueError(f"jamiolkowski shape {jam.shape} does not match dim {d}")
        return from_jam(jam, tol)
    raise ValueError("channel JSON needs a jamiolkowski or kraus field")


def superchannel_to_json(sc: DephasingSuperchannel) -> dict:
    return {"dim": int(sc.dim), "correlation": matrix_to_json(sc.c)}


def correlation_from_json(obj) -> tuple[np.ndarray, int]:
    """(C, d) of a superchannel JSON object; checks the fields and C's shape
    against d, but leaves the superchannel conditions to the caller."""
    if not isinstance(obj, dict) or "dim" not in obj or "correlation" not in obj:
        raise ValueError("superchannel JSON needs dim and correlation fields")
    d = _json_int(obj, "dim", "superchannel")
    c = matrix_from_json(obj["correlation"])
    if c.shape != (d * d, d * d):
        raise ValueError(f"correlation shape {c.shape} does not match dim {d}")
    return c, d


def superchannel_from_json(obj, tol: float = TOL_PSD) -> DephasingSuperchannel:
    c, d = correlation_from_json(obj)
    return superchannel(c, d, tol)


def violation_to_json(v: Violation) -> dict:
    return {
        "kind": v.kind,
        "indices": list(v.indices),
        "defect": encode_float(v.defect),
        "witness_channel": None if v.witness is None else channel_to_json(v.witness),
    }


def dephasing_to_json(dc: DephasingChannelC) -> dict:
    return {"dim": int(dc.dim), "correlation": matrix_to_json(dc.c)}


def dephasing_from_json(obj) -> DephasingChannelC:
    if not isinstance(obj, dict) or "dim" not in obj or "correlation" not in obj:
        raise ValueError("dephasing-channel JSON needs dim and correlation fields")
    d = _json_int(obj, "dim", "dephasing-channel")
    c = matrix_from_json(obj["correlation"])
    if c.shape != (d, d):
        raise ValueError(f"correlation shape {c.shape} does not match dim {d}")
    return dephasing_c(c)


def realization_to_json(real: SuperRealization) -> dict:
    return {
        "us": [matrix_to_json(u) for u in real.us],
        "vs": [matrix_to_json(v) for v in real.vs],
    }


def realization_from_json(obj) -> SuperRealization:
    if not (isinstance(obj, dict) and isinstance(obj.get("us"), list)
            and isinstance(obj.get("vs"), list)):
        raise ValueError("realization JSON needs us and vs fields, each a list of matrices")
    us = tuple(matrix_from_json(u) for u in obj["us"])
    vs = tuple(matrix_from_json(v) for v in obj["vs"])
    if len(us) != len(vs) or not us:
        raise ValueError("realization needs equally many us and vs")
    return SuperRealization(us=us, vs=vs)


def certificate_to_json(cert) -> dict:
    out = {
        "value": encode_float(cert.value),
        "lower_bound": encode_float(cert.lower_bound),
        "primal_dual_gap": encode_float(cert.primal_dual_gap),
        "classical_target": matrix_to_json(np.asarray(cert.classical_target, dtype=complex)),
        "noise_channel": None,
    }
    if cert.noise_channel is not None:
        out["noise_channel"] = channel_to_json(cert.noise_channel)
    return out


def instance_to_json(inst) -> dict:
    return {
        "gate": channel_to_json(inst.gate),
        "superchannels": [superchannel_to_json(sc) for sc in inst.superchannels],
        "input_state": matrix_to_json(inst.input_state),
        "povm": [matrix_to_json(b) for b in inst.povm],
        "p_succ": encode_float(inst.p_succ),
        "iteration_log": _log_summary(inst.iteration_log),
    }


def _log_summary(log) -> list[dict]:
    """One row per restart of a seesaw log: its iteration count and its
    first and last objective."""
    rows: dict = {}
    for rec in log:
        row = rows.setdefault(rec["restart"], {"restart": rec["restart"], "start": rec["objective"]})
        row["iterations"] = rec["iter"]
        row["final"] = rec["objective"]
    return list(rows.values())


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n" in one walk that reads
    numpy scalars as Python values and writes NaN as null and +-inf as "inf" /
    "-inf"; any other leaf type but str and None raises TypeError."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """JSON text of obj; nl is the newline and indent of the line it starts on."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float.__repr__(x) if math.isfinite(x) else "null" if math.isnan(x) else f'"{x}"'
    if obj is None:
        return "null"
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [f"{_encode_str(k)}: {_encode(v, inner)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = _float_pairs(obj, inner) or [_encode(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1] if items else brackets


def _float_pairs(seq, inner: str) -> list[str] | None:
    """_encode's items, as one text from a per-pair template, of a list of
    [re, im] pairs of finite Python floats (a matrix's data); else None."""
    if not (set(map(type, seq)) <= {list, tuple} and set(map(len, seq)) == {2}
            and set(map(type, flat := tuple(chain.from_iterable(seq)))) == {float}):
        return None
    pad = inner + "  "
    text = ("," + inner).join([f"[{pad}%r,{pad}%r{inner}]"] * len(seq)) % flat
    # a finite float's repr has no "n"; nan, inf and -inf all have one
    return None if "n" in text else [text]

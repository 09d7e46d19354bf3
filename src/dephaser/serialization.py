"""JSON codecs for matrices, channels, superchannels, realizations, and
solver artifacts.

Matrix schema: {"rows": r, "cols": c, "data": [[re, im], ...]} with the data
list in row-major order. Reports are strict JSON, and `dumps` is the one
place that writes a non-finite float: a NaN as null and +inf / -inf as the
strings "inf" / "-inf". The codecs below hand it floats as they are.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .channels import Channel, DephasingChannelC, from_jam, from_kraus
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
    """The complex matrix of a decoded matrix JSON object. Each entry must
    be a [re, im] pair of JSON numbers (int or float; a string or a bool is
    not one). Data whose entries one pass over the types finds well-formed
    is converted by one np.fromiter over the flattened pairs; anything else
    goes through _decode_entries, which names the first bad entry."""
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
    pairs = None
    if (set(map(type, data)) == {list} and set(map(len, data)) == {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        try:
            pairs = np.fromiter(chain.from_iterable(data), dtype=float, count=2 * len(data))
        except OverflowError:  # an int too large for a float
            pass
    if pairs is None or not np.isfinite(pairs).all():
        return _decode_entries(data, cols).reshape(rows, cols)
    return pairs.view(complex).reshape(rows, cols)


def _decode_entries(data: list, cols: int) -> np.ndarray:
    """The flat complex array of data, entry by entry, raising a ValueError
    that names the first entry that is not a [re, im] pair of finite
    numbers; a string, a bool and a number too large for a float count as
    not a number."""
    flat = np.empty(len(data), dtype=complex)
    for pos, entry in enumerate(data):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValueError(f"matrix entry {pos} is not a [re, im] pair")
        try:
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry):
                raise TypeError
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
        "defect": v.defect,
        "witness_channel": None if v.witness is None else channel_to_json(v.witness),
    }


def dephasing_to_json(dc: DephasingChannelC) -> dict:
    return {"dim": int(dc.dim), "correlation": matrix_to_json(dc.c)}


def realization_to_json(real: SuperRealization) -> dict:
    """Memory states S (d^2 x d, column k = s_k) and images W_i = V_i S, i = 1 ... d - 1; V_0 = 1."""
    return {
        "memory_states": matrix_to_json(real.memory_states),
        "images": [matrix_to_json(w) for w in real.images],
    }


def certificate_to_json(cert) -> dict:
    """R, its certified bounds and the target T; the noise channel (still in the
    certificate) is not written: R J(F) = (1 + R) Diag(vec T)/d - J(E)."""
    return {
        "value": cert.value,
        "lower_bound": cert.lower_bound,
        "primal_dual_gap": cert.primal_dual_gap,
        "classical_target": matrix_to_json(np.asarray(cert.classical_target, dtype=complex)),
    }


def instance_to_json(inst) -> dict:
    """The strategy of a discrimination instance: psi as an n x 1 matrix and
    P_1 ... P_(M-1), as P_M = I - sum_(m<M) P_m; its gate and superchannels
    are the caller's inputs and are not repeated."""
    return {
        "input_vector": matrix_to_json(inst.input_vector[:, None]),
        "povm": [matrix_to_json(b) for b in inst.povm[:-1]],
        "p_succ": inst.p_succ,
        "iteration_log": _log_summary(inst.iteration_log),
    }


def _log_summary(log) -> list[dict]:
    """One row per restart of a seesaw log: its iteration count, its first
    and last objective, and the leading restart it joined (or None)."""
    rows: dict = {}
    for rec in log:
        row = rows.setdefault(rec["restart"], {"restart": rec["restart"], "start": rec["objective"]})
        row["iterations"] = rec["iter"]
        row["final"] = rec["objective"]
        row["joined"] = rec["joined"]
    return list(rows.values())


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n" in one walk that reads
    numpy scalars as Python values and writes NaN as null and +-inf as "inf" /
    "-inf"; any other leaf type but str and None raises TypeError."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """JSON text of obj; nl is the newline and indent of the line it starts on.
    The exact JSON types are dispatched first, by identity of type; numpy
    scalars and subclasses of JSON types take the isinstance chain after
    them, which encodes their value of exact type."""
    kind = type(obj)
    if kind is float:
        return float.__repr__(obj) if math.isfinite(obj) else "null" if math.isnan(obj) else f'"{obj}"'
    if kind is str:
        return _encode_str(obj)
    inner = nl + "  "
    if kind is dict:
        items = [f"{_encode_str(k)}: {_encode(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if kind is list or kind is tuple:
        items = _float_pairs(obj, inner) or [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return _encode(bool(obj), nl)
    if isinstance(obj, (int, np.integer)):
        return _encode(int(obj), nl)
    if isinstance(obj, (float, np.floating)):
        return _encode(float(obj), nl)
    if isinstance(obj, str):
        return _encode(str.__str__(obj), nl)
    if isinstance(obj, dict):
        return _encode(dict(obj), nl)
    if isinstance(obj, (list, tuple)):
        return _encode(list(obj), nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_pairs(seq, inner: str) -> list[str] | None:
    """_encode's items, as one text from a per-pair template, of a list of
    [re, im] pairs of finite Python floats (a matrix's data); else None. A
    list whose first entry is not such a pair is rejected on that entry."""
    head = seq[0] if seq else None
    if not (type(head) in (list, tuple) and len(head) == 2 and type(head[0]) is float):
        return None
    if not (set(map(type, seq)) <= {list, tuple} and set(map(len, seq)) == {2}
            and set(map(type, flat := tuple(chain.from_iterable(seq)))) == {float}):
        return None
    pad = inner + "  "
    text = ("," + inner).join([f"[{pad}%r,{pad}%r{inner}]"] * len(seq)) % flat
    # a finite float's repr has no "n"; nan, inf and -inf all have one
    return None if "n" in text else [text]

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dephaser import channels as chn
from dephaser import coherence as coh
from dephaser import serialization as ser
from dephaser import superchannels as sup
from dephaser.sampling import Rng


def test_matrix_roundtrip():
    rng = Rng(90)
    m = rng.complex_normal((3, 5))
    back = ser.matrix_from_json(ser.matrix_to_json(m))
    assert np.array_equal(back, m)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_matrix_roundtrip_property(seed, n):
    m = Rng(seed).complex_normal((n, n))
    assert np.array_equal(ser.matrix_from_json(ser.matrix_to_json(m)), m)


def test_matrix_json_is_plain_data():
    obj = ser.matrix_to_json(np.eye(2))
    json.dumps(obj)  # must not raise
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 0.0]


def test_matrix_from_json_errors():
    with pytest.raises(ValueError):
        ser.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        ser.matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ValueError):
        ser.matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})
    with pytest.raises(ValueError):
        ser.matrix_from_json([1, 2, 3])
    # JSON NaN / Infinity literals name the first bad entry as non-finite;
    # "nan" / "-inf" strings are not JSON numbers
    for bad, message in (([math.nan, 0.0], "non-finite"),
                         ([0.0, math.inf], "non-finite"),
                         (["nan", 0], "not a pair of numbers"),
                         (["-inf", 0], "not a pair of numbers")):
        obj = {"rows": 2, "cols": 2, "data": [[1, 0], bad, [0, 0], [1, 0]]}
        with pytest.raises(ValueError, match=message) as err:
            ser.matrix_from_json(json.loads(json.dumps(obj)))
        assert "entry 1 (row 0, col 1)" in str(err.value)


def ref_decode_entries(data, rows, cols):
    """The per-entry decode matrix_from_json used for every matrix before it
    converted well-formed data in one call (an over-large int literal, a
    string and a bool count as not a number)."""
    flat = np.empty(rows * cols, dtype=complex)
    for pos, entry in enumerate(data):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValueError(f"matrix entry {pos} is not a [re, im] pair")
        try:
            if any(type(x) not in (int, float) for x in entry):
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
    return flat.reshape(rows, cols)


NUMBERS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**70, 2**70)
           | st.sampled_from([-0.0, 5e-324, 2**53 + 1, 2**64 + 1]))
ODD_PARTS = (st.floats() | st.integers(10**300, 10**320) | st.none() | st.booleans() | st.text(max_size=6)
             | st.sampled_from(["1.5", " -2e3 ", "1_0", "nan", "-inf", "0x1", "1e400"])
             | st.lists(st.floats(), max_size=2) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
GOOD_ENTRIES = st.tuples(NUMBERS, NUMBERS).map(list)
ODD_ENTRIES = st.lists(NUMBERS | ODD_PARTS, max_size=3) | ODD_PARTS


@given(rows=st.integers(1, 4), cols=st.integers(1, 4), odd=st.integers(0, 2), data=st.data())
@settings(max_examples=300, deadline=None)
def test_matrix_from_json_matches_entrywise_decode(rows, cols, odd, data):
    # odd = 0 draws only well-formed pairs, the one-conversion path
    entries = GOOD_ENTRIES if odd == 0 else GOOD_ENTRIES | ODD_ENTRIES
    values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    obj = {"rows": rows, "cols": cols, "data": values}
    try:
        want = ref_decode_entries(values, rows, cols)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            ser.matrix_from_json(obj)
        assert str(err.value) == str(exc)
        return
    got = ser.matrix_from_json(obj)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dumps_writes_non_finite_floats():
    # dumps is the one place a report's non-finite floats become JSON text
    assert ser.dumps([1.5, math.inf, -math.inf, math.nan]) == '[\n  1.5,\n  "inf",\n  "-inf",\n  null\n]\n'


def test_channel_roundtrip_via_jam():
    ch = chn.random_channel(Rng(91), 3, 2)
    back = ser.channel_from_json(ser.channel_to_json(ch))
    assert np.array_equal(back.jam, ch.jam)


def test_channel_from_kraus_json():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    obj = {"dim": 2, "kraus": [ser.matrix_to_json(h)]}
    ch = ser.channel_from_json(obj)
    assert np.abs(ch.jam - chn.unitary_channel(h).jam).max() < 1e-12


def test_channel_from_json_rejects_invalid():
    bad = {"dim": 2, "jamiolkowski": ser.matrix_to_json(np.diag([1.0, 0, 0, 0.2]))}
    with pytest.raises(ValueError):
        ser.channel_from_json(bad)
    with pytest.raises(ValueError):
        ser.channel_from_json({"dim": 2})


def test_superchannel_roundtrip():
    sc = sup.sample(Rng(92), 2)
    back = ser.superchannel_from_json(ser.superchannel_to_json(sc))
    assert np.array_equal(back.c, sc.c)


def test_superchannel_from_json_validates():
    c = np.ones((4, 4), dtype=complex)
    c[1, 1] = 0.5
    obj = {"dim": 2, "correlation": ser.matrix_to_json(c)}
    with pytest.raises(sup.InvalidCorrelationError):
        ser.superchannel_from_json(obj)


def test_dephasing_roundtrip():
    dc = chn.random_dephasing(Rng(93), 3)
    obj = json.loads(ser.dumps(ser.dephasing_to_json(dc)))
    assert obj["dim"] == 3
    assert np.array_equal(chn.dephasing_c(ser.matrix_from_json(obj["correlation"])).c, dc.c)


def test_realization_roundtrip():
    # the wire form holds the memory states S and the images W_i = V_i S for
    # i = 1 ... d - 1; V_0 = 1 is implied
    sc = sup.sample(Rng(94), 3)
    real = sup.realize(sc)
    obj = json.loads(ser.dumps(ser.realization_to_json(real)))
    assert set(obj) == {"memory_states", "images"}
    assert np.array_equal(ser.matrix_from_json(obj["memory_states"]), real.memory_states)
    assert len(obj["images"]) == 2
    for a, b in zip(obj["images"], real.images):
        assert np.array_equal(ser.matrix_from_json(a), b)


def test_certificate_json():
    cert = coh.robustness(chn.unitary_channel(np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
    obj = ser.certificate_to_json(cert)
    json.dumps(obj)
    assert abs(obj["value"] - 3.0) < 1e-6
    assert cert.noise_channel is not None and "noise_channel" not in obj


def test_instance_json():
    gate = chn.random_channel(Rng(95), 2, 2)
    scs = [sup.identity_superchannel(2), sup.sample(Rng(96), 2)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=2, rng=Rng(97))
    obj = ser.instance_to_json(inst)
    json.dumps(obj)
    assert len(obj["povm"]) == 1  # P_2 = I - P_1 is not written
    first = [rec for rec in inst.iteration_log if rec["restart"] == 0]
    assert obj["iteration_log"][0] == {"restart": 0, "iterations": first[-1]["iter"],
                                       "start": first[0]["objective"], "final": first[-1]["objective"],
                                       "joined": first[-1]["joined"]}


def test_instance_json_summarises_each_restart():
    gate = chn.random_channel(Rng(98), 3, 2)
    scs = [sup.sample(Rng(99), 3), sup.sample(Rng(100), 3)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=4, rng=Rng(101))
    rows = ser.instance_to_json(inst)["iteration_log"]
    assert [row["restart"] for row in rows] == [0, 1, 2, 3]
    assert sum(row["iterations"] + 1 for row in rows) == len(inst.iteration_log)
    assert abs(max(row["final"] for row in rows) - inst.p_succ) <= 1e-12
    assert all(row["start"] <= row["final"] for row in rows)


def test_certificate_json_carries_the_dual_bound_not_the_dual():
    cert = coh.robustness(chn.random_channel(Rng(102), 3, 2))
    obj = ser.certificate_to_json(cert)
    assert obj["lower_bound"] == cert.lower_bound <= cert.value
    assert obj["primal_dual_gap"] == cert.value - cert.lower_bound
    assert "dual" not in obj


def test_dumps_deterministic_and_sorted():
    s1 = ser.dumps({"b": 1, "a": [1.5, 2.5]})
    s2 = ser.dumps({"a": [1.5, 2.5], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


def ref_sanitize(obj):
    """The report sanitizer that ran before json.dumps until ser.dumps took
    over its job; kept as the reference the encoder must match."""
    if isinstance(obj, dict):
        return {k: ref_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1.7976931348623157e308])
# [re, im] pair lists: all finite floats take the fast path; a NaN, inf, int
# or bool entry must send the list down the general path
PAIR_LISTS = st.one_of(
    st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=1, max_size=6),
    st.lists(st.lists(st.one_of(FINITE, EDGE_FLOATS, st.integers(-3, 3), st.booleans()),
                      min_size=2, max_size=2).map(tuple), min_size=1, max_size=6),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**200, 2**200), st.floats(), EDGE_FLOATS,
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.text(),
)
# keys: any text, so non-ASCII, quotes, backslashes and control characters
REPORTS = st.recursive(
    st.one_of(SCALARS, PAIR_LISTS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25,
)


@given(REPORTS)
@settings(max_examples=300, deadline=None)
def test_dumps_matches_sanitized_json_dumps(obj):
    assert ser.dumps(obj) == json.dumps(ref_sanitize(obj), indent=2, sort_keys=True) + "\n"


def test_dumps_matrix_data_fast_path_matches_json_dumps():
    m = Rng(98).complex_normal((4, 4))
    m[0, 0] = complex(-0.0, 5e-324)
    obj = {"m": ser.matrix_to_json(m), "pairs": [[1.0, math.inf]], "ints": [[1, 2.0]]}
    assert ser.dumps(obj) == json.dumps(ref_sanitize(obj), indent=2, sort_keys=True) + "\n"
    assert '"inf"' in ser.dumps(obj) and "-0.0" in ser.dumps(obj)


def test_dumps_matches_json_dumps_on_cli_shaped_reports():
    # a realize report and a distinguish report as the CLI prints them, with a
    # numpy-scalar leaf and a NaN inside matrix data, so both the exact-type
    # dispatch and the numpy/fallback path run
    sc = sup.sample(Rng(103), 2)
    real = sup.realize(sc)
    realization = ser.realization_to_json(real)
    realization["memory_states"]["data"][1] = [math.nan, 0.0]
    realize = {"realization": realization, "roundtrip_residual": np.float64(2.5e-16),
               "unitarity_deviation": 4.440892098500626e-16}
    gate = chn.random_channel(Rng(104), 2, 2)
    inst = coh.discrimination_seesaw(gate, [sc, sup.sample(Rng(105), 2)], restarts=2, rng=Rng(106))
    cert = coh.robustness(gate)
    distinguish = {"instance": ser.instance_to_json(inst), "robustness_value": cert.value,
                   "bound_check": {**coh.robustness_bound_check(inst, cert), "ok": np.bool_(True)}}
    for command, results in (("realize", realize), ("distinguish", distinguish)):
        report = {"schema_version": 2, "command": command,
                  "config": {"seed": np.int64(7), "tolerances": {"psd": 1e-9}, "out": None},
                  "results": results, "checks": None, "wall_time_s": 0.25}
        assert ser.dumps(report) == json.dumps(ref_sanitize(report), indent=2, sort_keys=True) + "\n"
    assert "null" in ser.dumps(realize["realization"]["memory_states"])


def test_dumps_rejects_array_leaf():
    with pytest.raises(TypeError, match="ndarray"):
        ser.dumps({"a": np.zeros(2)})

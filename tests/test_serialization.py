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
    # JSON NaN / Infinity literals and "nan" strings name the first bad entry
    for bad, where in (([math.nan, 0.0], "entry 1 (row 0, col 1)"),
                       ([0.0, math.inf], "entry 1 (row 0, col 1)"),
                       (["nan", 0], "entry 1 (row 0, col 1)"),
                       (["-inf", 0], "entry 1 (row 0, col 1)")):
        obj = {"rows": 2, "cols": 2, "data": [[1, 0], bad, [0, 0], [1, 0]]}
        with pytest.raises(ValueError, match="non-finite") as err:
            ser.matrix_from_json(json.loads(json.dumps(obj)))
        assert where in str(err.value)


def test_encode_float():
    assert ser.encode_float(1.5) == 1.5
    assert ser.encode_float(math.inf) == "inf"
    assert ser.encode_float(-math.inf) == "-inf"
    with pytest.raises(ValueError):
        ser.encode_float(math.nan)


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
    back = ser.dephasing_from_json(ser.dephasing_to_json(dc))
    assert np.array_equal(back.c, dc.c)


def test_realization_roundtrip():
    sc = sup.sample(Rng(94), 2)
    real = sup.realize(sc)
    back = ser.realization_from_json(ser.realization_to_json(real))
    for a, b in zip(back.us + back.vs, real.us + real.vs):
        assert np.array_equal(a, b)


def test_certificate_json():
    cert = coh.robustness(chn.unitary_channel(np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
    obj = ser.certificate_to_json(cert)
    json.dumps(obj)
    assert abs(obj["value"] - 3.0) < 1e-6
    assert obj["noise_channel"] is not None


def test_instance_json():
    gate = chn.random_channel(Rng(95), 2, 2)
    scs = [sup.identity_superchannel(2), sup.sample(Rng(96), 2)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=2, rng=Rng(97))
    obj = ser.instance_to_json(inst)
    json.dumps(obj)
    assert len(obj["povm"]) == 2
    assert obj["iteration_log"][0]["iter"] == 0


def test_dumps_deterministic_and_sorted():
    s1 = ser.dumps({"b": 1, "a": [1.5, 2.5]})
    s2 = ser.dumps({"a": [1.5, 2.5], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')

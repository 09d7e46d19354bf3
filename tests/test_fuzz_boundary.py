"""Fuzzed input files at the CLI boundary: every malformed input maps to
exit 2 (unparseable) or 3 (semantically invalid) with one error line, never
to exit 4 or a traceback."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from dephaser import channels as chn
from dephaser import cli, serialization as ser
from dephaser.linalg import TOL_HERM, TOL_PSD

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
COMMANDS = st.sampled_from(["classify", "coherence"])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


def _rejected(path, command, text) -> str:
    """Run command on a file holding text; check exit 2 or 3 with one error
    line and no report, and return that line."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path)])
    lines = err.getvalue().splitlines()
    assert code in (2, 3), err.getvalue()
    assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    assert out.getvalue() == ""
    return lines[0]


@given(command=COMMANDS, text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
@settings(max_examples=40, deadline=None)
def test_arbitrary_text_is_rejected(path, command, text):
    _rejected(path, command, text)


@given(command=COMMANDS, value=JSON_VALUES)
@settings(max_examples=40, deadline=None)
def test_arbitrary_json_is_rejected(path, command, value):
    _rejected(path, command, json.dumps(value))


@given(command=COMMANDS, d=st.integers(1, 4), rows=st.integers(1, 17), cols=st.integers(1, 17))
@settings(max_examples=40, deadline=None)
def test_mismatched_shape_is_rejected(path, command, d, rows, cols):
    assume((rows, cols) != (d * d, d * d))
    field = "correlation" if command == "classify" else "jamiolkowski"
    line = _rejected(path, command, json.dumps({"dim": d, field: ser.matrix_to_json(np.eye(rows, cols))}))
    assert "does not match dim" in line


@given(d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1), depth=st.floats(1e-6, 1.0),
       skew=st.floats(0.0, 0.45))
@settings(max_examples=40, deadline=None)
def test_hermitian_but_not_psd_channel_is_rejected(path, d, seed, depth, skew):
    # a unitary channel's Jamiolkowski matrix minus a rank-one term, off
    # Hermitian by less than the tolerance
    rng = np.random.default_rng(seed)
    n = d * d
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    jam = chn.unitary_channel(u).jam - depth * np.outer(p, p.conj()) / np.vdot(p, p).real
    assume(np.linalg.eigvalsh(jam)[0] < -2 * TOL_PSD)
    a = rng.normal(size=(n, n))
    jam = jam + 1j * skew * TOL_HERM * (a + a.T) / np.abs(a + a.T).max()
    line = _rejected(path, "coherence", json.dumps({"dim": d, "jamiolkowski": ser.matrix_to_json(jam)}))
    assert "not completely positive" in line

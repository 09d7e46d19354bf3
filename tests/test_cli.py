import json
import os
from importlib import resources

import numpy as np
import pytest

from dephaser import cli, serialization as ser
from dephaser import channels as chn
from dephaser import superchannels as sup
from dephaser.sampling import Rng


HAD_KRAUS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def fixture_path(name):
    return str(resources.files("dephaser").joinpath("fixtures").joinpath(name))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    report = json.loads(out)
    assert report["schema_version"] == 1
    return report


def write_superchannel(tmp_path, c, d, name="sc.json"):
    path = tmp_path / name
    path.write_text(ser.dumps({"dim": d, "correlation": ser.matrix_to_json(np.asarray(c, dtype=complex))}))
    return str(path)


def write_channel(tmp_path, ch, name="ch.json"):
    path = tmp_path / name
    path.write_text(ser.dumps(ch if isinstance(ch, dict) else ser.channel_to_json(ch)))
    return str(path)


def test_sample_superchannels(capsys):
    code, out, _ = run_cli(capsys, "sample", "--kind", "superchannel", "--dim", "2", "--n", "3", "--seed", "7")
    assert code == 0
    report = parse_report(out)
    items = report["results"]["items"]
    assert len(items) == 3
    for item in items:
        c = ser.matrix_from_json(item["correlation"])
        assert isinstance(sup.validate(c, 2), sup.DephasingSuperchannel)


def test_sample_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "sample", "--dim", "2", "--n", "2", "--seed", "9")
    _, out2, _ = run_cli(capsys, "sample", "--dim", "2", "--n", "2", "--seed", "9")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]
    assert r1["config"]["seed"] == 9


def test_sample_rejects_dim_zero(capsys):
    code, _, _ = run_cli(capsys, "sample", "--dim", "0")
    assert code == 2


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("DEPHASER_SEED", "123")
    _, out, _ = run_cli(capsys, "sample", "--n", "1")
    assert json.loads(out)["config"]["seed"] == 123
    monkeypatch.setenv("DEPHASER_SEED", "not-a-number")
    code, _, _ = run_cli(capsys, "sample", "--n", "1")
    assert code == 2


def test_classify_fixture_npt(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture_path("corr3_npt.json"), "--seed", "0")
    assert code == 0
    mc = parse_report(out)["results"]["memory_class"]
    assert mc["label"] == "NPT"
    assert abs(mc["ppt_min_eig"] - (1.0 - np.sqrt(2.0))) < 1e-10


def test_classify_product(tmp_path, capsys):
    rng = Rng(100)
    c1 = chn.random_dephasing(rng.derive(0), 2)
    c2 = chn.random_dephasing(rng.derive(1), 2)
    path = write_superchannel(tmp_path, sup.pre_post(c1, c2).c, 2)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    assert parse_report(out)["results"]["memory_class"]["label"] == "PRODUCT"


def test_classify_sampled_dim_one(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sample", "--dim", "1", "--n", "1")
    assert code == 0
    path = tmp_path / "sc1.json"
    path.write_text(ser.dumps(parse_report(out)["results"]["items"][0]))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert parse_report(out)["results"]["memory_class"]["label"] == "PRODUCT"


@pytest.mark.parametrize("d", [2, 3])
def test_classify_separability_note_only_at_dim_two(tmp_path, capsys, d):
    # Rng(1) at d = 3 samples a PPT memory, where PPT does not imply separable
    sc = sup.sample(Rng(1), d)
    code, out, _ = run_cli(capsys, "classify", write_superchannel(tmp_path, sc.c, d))
    assert code == 0
    results = parse_report(out)["results"]
    if d == 2:
        assert "PPT implies" in results["note"]
    else:
        assert results["memory_class"]["label"] == "PPT"
        assert "note" not in results


def test_classify_invalid_reports_witness(tmp_path, capsys):
    c = np.ones((4, 4))
    c[1, 1] = 0.5
    path = write_superchannel(tmp_path, c, 2)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 3
    report = parse_report(out)
    violation = report["results"]["violation"]
    assert violation["kind"] == "DIAGONAL_NOT_ONE"
    assert violation["indices"] == [0, 1]
    witness = ser.channel_from_json(violation["witness_channel"])
    chn.check_channel(witness)


def test_classify_corrupted_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "classify", str(path))
    assert code == 2


def test_classify_missing_file(capsys):
    code, _, _ = run_cli(capsys, "classify", "/nonexistent/file.json")
    assert code == 2


def test_apply_identity_superchannel(tmp_path, capsys):
    sc_path = write_superchannel(tmp_path, np.ones((4, 4)), 2)
    ch = chn.random_channel(Rng(101), 2, 2)
    ch_path = write_channel(tmp_path, ch)
    code, out, _ = run_cli(capsys, "apply", sc_path, ch_path)
    assert code == 0
    results = parse_report(out)["results"]
    got = ser.channel_from_json(results["output_channel"])
    assert np.abs(got.jam - ch.jam).max() < 1e-12
    assert results["transition_max_change"] < 1e-12


def test_apply_sign_flip_on_hadamard(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "apply", fixture_path("corr2_sign_flip.json"), fixture_path("hadamard_channel.json"))
    assert code == 0
    got = ser.channel_from_json(parse_report(out)["results"]["output_channel"])
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(chn.apply(got, ket0) - minus).max() < 1e-12


def test_apply_dim_mismatch(tmp_path, capsys):
    sc_path = write_superchannel(tmp_path, np.ones((4, 4)), 2)
    ch_path = write_channel(tmp_path, chn.identity_channel(3))
    code, _, _ = run_cli(capsys, "apply", sc_path, ch_path)
    assert code == 3


def test_realize_all_ones(tmp_path, capsys):
    sc_path = write_superchannel(tmp_path, np.ones((4, 4)), 2)
    code, out, _ = run_cli(capsys, "realize", sc_path)
    assert code == 0
    results = parse_report(out)["results"]
    assert results["roundtrip_residual"] < 1e-12
    assert results["unitarity_deviation"] < 1e-10


def test_realize_fixture(capsys):
    code, out, _ = run_cli(capsys, "realize", fixture_path("corr3_npt.json"))
    assert code == 0
    results = parse_report(out)["results"]
    assert results["roundtrip_residual"] < 1e-9
    real = ser.realization_from_json(results["realization"])
    assert len(real.us) == 3 and len(real.vs) == 3


def test_realize_invalid_superchannel(tmp_path, capsys):
    c = np.eye(4)
    c[0, 3] = c[3, 0] = 2.0
    c[1, 2] = c[2, 1] = 2.0
    path = write_superchannel(tmp_path, c, 2)
    code, out, _ = run_cli(capsys, "realize", path)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "NOT_PSD"


def test_coherence_classical_channel(tmp_path, capsys):
    t = np.array([[0.7, 0.2], [0.3, 0.8]])
    ch_path = write_channel(tmp_path, chn.classical_channel(t))
    code, out, _ = run_cli(capsys, "coherence", ch_path, "--eps", "0.0", "--seed", "3")
    assert code == 0
    results = parse_report(out)["results"]
    assert results["cohering_power"]["L1"] == 0.0
    assert results["robustness"]["value"] == 0.0
    b = results["divergence_bounds"][0]
    assert abs(b["dh_divergence_lower"]) < 1e-9
    assert abs(b["image_count_bound"] - 1.0) < 1e-9
    assert abs(b["discrimination_count_bound"] - 1.0) < 1e-9


def test_coherence_hadamard(capsys):
    code, out, _ = run_cli(capsys, "coherence", fixture_path("hadamard_channel.json"),
                           "--eps", "0.0", "--restarts", "2", "--seed", "1")
    assert code == 0
    results = parse_report(out)["results"]
    assert abs(results["robustness"]["value"] - 3.0) < 1e-6
    assert results["certificate_checks"]["ok"] is True
    assert results["divergence_bounds"][0]["dh_divergence_lower"] >= 1.0 - 1e-9


def test_coherence_rejects_bad_eps(capsys):
    code, _, _ = run_cli(capsys, "coherence", fixture_path("hadamard_channel.json"), "--eps", "1.0")
    assert code == 2


def test_distinguish_hadamard_sign_flip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "distinguish", fixture_path("hadamard_channel.json"),
        write_superchannel(tmp_path, np.ones((4, 4)), 2),
        fixture_path("corr2_sign_flip.json"),
        "--restarts", "4", "--seed", "11")
    assert code == 0
    results = parse_report(out)["results"]
    assert results["instance"]["p_succ"] > 1.0 - 1e-9
    assert results["bound_check"]["ok"] is True


def test_out_file_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_cli(capsys, "sample", "--dim", "2", "--n", "2", "--seed", "5", "--out", str(out1))
    run_cli(capsys, "sample", "--dim", "2", "--n", "2", "--seed", "5", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert "items" in payload and "wall_time_s" not in payload


def test_tol_override_unknown_name(capsys):
    code, _, _ = run_cli(capsys, "verify", "--tol.bogus", "1e-3")
    assert code == 2


@pytest.mark.parametrize("name", ["herm", "eig", "gram"])
def test_removed_tolerance_names_are_unknown(capsys, name):
    code, _, err = run_cli(capsys, "sample", f"--tol.{name}", "1e-3")
    assert code == 2
    assert "unknown tolerance" in err


@pytest.mark.parametrize("command", ["apply", "coherence"])
def test_non_finite_kraus_entry_exits_3(tmp_path, capsys, command):
    kraus = np.array(HAD_KRAUS, dtype=complex)
    kraus[1, 0] = np.nan
    ch_path = write_channel(tmp_path, {"dim": 2, "kraus": [ser.matrix_to_json(kraus)]})
    argv = [command, ch_path] if command == "coherence" else [
        command, write_superchannel(tmp_path, np.ones((4, 4)), 2), ch_path]
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "non-finite" in err
    assert "entry 2 (row 1, col 0)" in err


SC_OBJ = {"dim": 2, "correlation": ser.matrix_to_json(np.ones((4, 4)))}
CH_OBJ = {"dim": 2, "kraus": [ser.matrix_to_json(HAD_KRAUS)]}


def _bad_entry(m):
    m = ser.matrix_to_json(m)
    m["data"][1] = [{"a": 1}, 0]
    return m


@pytest.mark.parametrize("command,obj,message", [
    ("classify", {**SC_OBJ, "correlation": _bad_entry(np.ones((4, 4)))},
     "matrix entry 1 (row 0, col 1) is not a pair of numbers"),
    ("classify", {**SC_OBJ, "dim": [2]}, "'dim' must be a positive integer, got [2]"),
    ("classify", {**SC_OBJ, "dim": 2.5}, "'dim' must be a positive integer, got 2.5"),
    ("classify", {**SC_OBJ, "dim": -2}, "'dim' must be a positive integer, got -2"),
    ("coherence", {**CH_OBJ, "kraus": [_bad_entry(HAD_KRAUS)]},
     "matrix entry 1 (row 0, col 1) is not a pair of numbers"),
    ("coherence", {**CH_OBJ, "dim": [2]}, "'dim' must be a positive integer, got [2]"),
    ("coherence", {**CH_OBJ, "dim": 2.5}, "'dim' must be a positive integer, got 2.5"),
    ("coherence", {**CH_OBJ, "kraus": 5}, "'kraus' must be a list"),
    ("coherence", {**CH_OBJ, "kraus": [{"rows": 2, "cols": "2", "data": []}]},
     "'cols' must be a positive integer"),
    ("coherence", {**CH_OBJ, "kraus": [{"rows": 2, "cols": 2, "data": 4}]}, "'data' must be a list"),
], ids=["entry-object", "dim-list", "dim-fraction", "dim-negative", "kraus-entry-object",
        "channel-dim-list", "channel-dim-fraction", "kraus-not-list", "cols-string", "data-not-list"])
def test_malformed_json_fields_exit_3(tmp_path, capsys, command, obj, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert message in err


def test_tol_override_bad_value(capsys):
    code, _, _ = run_cli(capsys, "verify", "--tol.psd", "tiny")
    assert code == 2


def test_verify_quick_mode(capsys):
    code, out, err = run_cli(capsys, "verify", "--trials", "2", "--seed", "0")
    assert code == 0
    report = parse_report(out)
    assert report["results"]["passed"] is True
    assert len(report["results"]["criteria"]) == 12
    assert err.count("PASS") == 12


def test_verify_negative_control(capsys):
    # a nonsensically tight PSD tolerance must make criteria fail, exit 1
    code, out, err = run_cli(capsys, "verify", "--trials", "2", "--seed", "0",
                             "--tol.psd", "1e-30")
    assert code == 1
    assert "FAIL" in err
    assert json.loads(out)["results"]["passed"] is False


def test_config_echoes_tolerances(capsys):
    _, out, _ = run_cli(capsys, "sample", "--n", "1", "--seed", "0", "--tol.psd=1e-8")
    cfg = json.loads(out)["config"]
    assert cfg["tolerances"]["psd"] == 1e-8
    assert "unit" in cfg["tolerances"]

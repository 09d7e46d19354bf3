import json
import os
import re
from importlib import resources

import numpy as np
import pytest

from dephaser import cli, serialization as ser
from dephaser import channels as chn
from dephaser import coherence as coh
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
    assert report["schema_version"] == 2
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


def test_classify_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "classify", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 2, "note": "\xe9"}')
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert out == ""
    assert "invalid JSON input" in err


def _channel_text_with_entry(literal: str) -> str:
    """A d = 2 channel file whose first Jamiolkowski entry is the raw JSON literal."""
    return '{"dim": 2, "jamiolkowski": {"rows": 4, "cols": 4, "data": [[%s, 0]%s]}}' % (
        literal, ", [0, 0]" * 15)


def test_overflowing_integer_entry_is_not_a_number(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(_channel_text_with_entry("9" * 401))
    code, out, err = run_cli(capsys, "coherence", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: matrix entry 0 (row 0, col 0) is not a pair of numbers: [999")


def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(_channel_text_with_entry("9" * 5000))
    code, out, err = run_cli(capsys, "coherence", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON input: Exceeds the limit") and err.count("\n") == 1


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "sample", "--dim", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


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


REPORT_KEYS = {"schema_version", "command", "config", "wall_time_s"}


def test_report_shapes(tmp_path, capsys):
    # one report layout for every outcome: an invalid correlation matrix
    # reports "error" where a success reports "results", plus "checks" when
    # the command has checks
    c = np.eye(4)
    c[0, 3] = c[3, 0] = 2.0
    c[1, 2] = c[2, 1] = 2.0
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "realize", write_superchannel(tmp_path, c, 2), "--out", str(target))
    assert code == 3
    assert set(parse_report(out)) == REPORT_KEYS | {"error"}
    assert not target.exists()
    sc_path = write_superchannel(tmp_path, np.ones((4, 4)), 2, name="ones.json")
    ch_path = write_channel(tmp_path, chn.identity_channel(2))
    code, out, _ = run_cli(capsys, "apply", sc_path, ch_path)
    assert code == 0
    assert set(parse_report(out)) == REPORT_KEYS | {"results"}
    code, out, _ = run_cli(capsys, "classify", sc_path)
    assert code == 0
    assert set(parse_report(out)) == REPORT_KEYS | {"results", "checks"}



def _unreachable(*args, **kwargs):
    raise AssertionError("solver reached")


def test_distinguish_invalid_superchannel_reports_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coh, "discrimination_seesaw", _unreachable)
    c = np.eye(4)
    c[0, 3] = c[3, 0] = 2.0
    c[1, 2] = c[2, 1] = 2.0
    good = write_superchannel(tmp_path, np.ones((4, 4)), 2, name="good.json")
    bad = write_superchannel(tmp_path, c, 2, name="not_psd.json")
    code, out, _ = run_cli(capsys, "distinguish", fixture_path("hadamard_channel.json"), good, bad)
    assert code == 3
    report = parse_report(out)
    assert set(report) == REPORT_KEYS | {"error"}
    assert report["error"]["kind"] == "NOT_PSD"


@pytest.mark.parametrize("command", ["coherence", "distinguish"])
@pytest.mark.parametrize("value", ["0", "1025", str(10**12)])
def test_restarts_flag_is_bounded(tmp_path, capsys, monkeypatch, command, value):
    # rejected while parsing, so nothing is allocated at the bad size
    monkeypatch.setattr(coh, "dh_channel_divergence_lower", _unreachable)
    monkeypatch.setattr(coh, "discrimination_seesaw", _unreachable)
    monkeypatch.setattr(coh, "robustness", _unreachable)
    had = fixture_path("hadamard_channel.json")
    inputs = [had] if command == "coherence" else [had, fixture_path("corr2_sign_flip.json"),
                                                   fixture_path("corr2_sign_flip.json")]
    code, out, err = run_cli(capsys, command, *inputs, "--restarts", value)
    assert code == 2
    assert out == ""
    assert f"argument --restarts: must be an integer in 1..{cli.RESTARTS_MAX}, got {value}" in err
    assert cli.RESTARTS_MAX == 1024


def test_restarts_flag_accepts_the_cap(capsys, monkeypatch):
    seen = []

    def stop(gate, scs, restarts, rng):
        seen.append(restarts)
        raise coh.SolverError("stopped before the solve")

    monkeypatch.setattr(coh, "discrimination_seesaw", stop)
    sign_flip = fixture_path("corr2_sign_flip.json")
    code, _, _ = run_cli(capsys, "distinguish", fixture_path("hadamard_channel.json"),
                         sign_flip, sign_flip, "--restarts", "1024")
    assert code == 4
    assert seen == [1024]


@pytest.mark.parametrize("flag, cap", [("--dim", 8), ("--n", 1024)])
@pytest.mark.parametrize("offset", [None, 1, 10**12])
def test_sample_dim_and_n_are_bounded(capsys, monkeypatch, flag, cap, offset):
    # rejected while parsing, so nothing is allocated at the bad size
    monkeypatch.setattr(sup, "sample", _unreachable)
    value = "0" if offset is None else str(offset if offset > cap else cap + offset)
    code, out, err = run_cli(capsys, "sample", flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be an integer in 1..{cap}, got {value}" in err
    assert (cli.DIM_MAX, cli.N_MAX) == (8, 1024)


def test_sample_flags_accept_their_caps(capsys, monkeypatch):
    seen = []

    def stub(rng, d):
        seen.append(d)
        return sup.identity_superchannel(1)

    monkeypatch.setattr(sup, "sample", stub)
    code, out, _ = run_cli(capsys, "sample", "--dim", str(cli.DIM_MAX), "--n", str(cli.N_MAX))
    assert code == 0
    assert seen == [cli.DIM_MAX] * cli.N_MAX
    assert len(parse_report(out)["results"]["items"]) == cli.N_MAX


@pytest.mark.parametrize("exc", [TypeError("bad operand"), MemoryError(), KeyError("dim"),
                                 ZeroDivisionError("division by zero"),
                                 AssertionError("two\nlines")])
def test_unmapped_exception_exits_4_in_one_line(tmp_path, capsys, monkeypatch, exc):
    def fail(args, tol, seed):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "sample", fail)
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "sample", "--out", str(out_path))
    assert code == 4
    assert out == ""
    assert not out_path.exists()
    message = " ".join(str(exc).splitlines())
    assert err == f"error: internal failure: {type(exc).__name__}: {message}\n"

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
    # json.dumps writes the NaN literal; ser.dumps would write null
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"dim": 2, "kraus": [ser.matrix_to_json(kraus)]}))
    ch_path = str(path)
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_non_finite_tolerance_exits_2(capsys, command, value):
    argv = [command, fixture_path("corr3_npt.json")] if command == "classify" else [command]
    code, out, err = run_cli(capsys, *argv, f"--tol.psd={value}")  # "-inf" alone reads as a flag
    assert code == 2
    assert out == ""
    assert f"argument --tol.psd: must be a finite number, got {value}" in err



@pytest.mark.parametrize("argv,message", [
    (["coherence", fixture_path("hadamard_channel.json"), "--eps", "abc"],
     "argument --eps: eps must be a number in [0, 1), got abc"),
    (["sample", "--dim", "x"], "argument --dim: must be a positive integer, got x"),
    (["sample", "--seed", "x"], "argument --seed: seed must be an integer in 0..2^64-1, got x"),
], ids=["eps", "dim", "seed"])
def test_non_number_flag_names_expected_value(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert re.search(r"\b_\w", err) is None  # no private function name

def test_gap_tolerance_checks_the_duality_gap(capsys):
    # a gap target looser than feas is met by the certificate, not held to feas
    code, out, _ = run_cli(capsys, "coherence", fixture_path("hadamard_channel.json"),
                           "--eps", "0.0", "--restarts", "1", "--tol.gap", "1e-7")
    assert code == 0
    report = parse_report(out)
    assert report["checks"]["certificate_ok"] is True
    assert report["results"]["certificate_checks"]["gap"] <= 1e-7


def _channel_file(tmp_path, d):
    if d == 2:
        return fixture_path("hadamard_channel.json")
    return write_channel(tmp_path, chn.random_channel(Rng(3_500 + d), d, 2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gap_tolerance_is_certified(tmp_path, capsys, d):
    code, out, _ = run_cli(capsys, "coherence", _channel_file(tmp_path, d),
                           "--eps", "0.0", "--restarts", "1", "--tol.gap", "1e-10")
    assert code == 0
    rob = parse_report(out)["results"]["robustness"]
    assert 0.0 <= rob["value"] - rob["lower_bound"] <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_uncertifiable_gap_exits_4(tmp_path, capsys, d):
    # below roundoff no dual point certifies the gap, so the solver fails
    # instead of reporting a nominal one
    code, out, err = run_cli(capsys, "coherence", _channel_file(tmp_path, d),
                             "--eps", "0.0", "--restarts", "1", "--tol.gap", "1e-15")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: solver failed: ")


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
    _, out, _ = run_cli(capsys, "classify", fixture_path("corr3_npt.json"), "--seed", "0", "--tol.psd=1e-8")
    cfg = json.loads(out)["config"]
    assert cfg["tolerances"] == {"psd": 1e-8}


ALL_TOLERANCES = ("unit", "psd", "exact", "roundtrip", "spectrum", "mono",
                  "feas", "gap", "dh", "seesaw", "grid")
# positional arguments per subcommand; parsing never opens them
COMMAND_ARGS = {
    "sample": [], "classify": ["x"], "apply": ["x", "y"], "realize": ["x"],
    "coherence": ["x"], "distinguish": ["x", "y", "z"], "verify": [],
}
READ_TOLERANCES = {
    "sample": set(), "classify": {"psd"}, "apply": {"psd"}, "realize": {"psd"},
    "coherence": {"psd", "gap", "feas"}, "distinguish": {"psd", "gap", "feas"},
    "verify": set(ALL_TOLERANCES),
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("name", ALL_TOLERANCES + ("herm", "eig", "gram"))
def test_tolerance_flags_only_where_read(capsys, command, name):
    known = ", ".join(n for n in ALL_TOLERANCES if n in READ_TOLERANCES[command]) or "none"
    for flag in ([f"--tol.{name}", "0.5"], [f"--tol.{name}=0.5"]):
        argv = [command, *COMMAND_ARGS[command], *flag]
        if name in READ_TOLERANCES[command]:
            assert getattr(cli._parse_args(argv), f"tol.{name}") == 0.5
        else:
            with pytest.raises(SystemExit) as exc:
                cli._parse_args(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unknown tolerance '{name}' for {command}; known: {known}" in err


def test_tol_before_subcommand_exits_2(capsys):
    code, out, err = run_cli(capsys, "--tol.psd=1e-7", "classify", fixture_path("corr3_npt.json"))
    assert code == 2
    assert out == ""
    assert "--tol.psd must follow the subcommand classify" in err


@pytest.mark.parametrize("argv,expected", [
    (["sample"], {}),
    (["coherence", fixture_path("hadamard_channel.json"), "--eps", "0.1", "--restarts", "1",
      "--tol.gap", "1e-9"], {"psd": 1e-9, "gap": 1e-9, "feas": 1e-8}),
    (["verify", "--trials", "1", "--tol.grid", "2e-3"],
     {"unit": 1e-10, "psd": 1e-9, "exact": 1e-12, "roundtrip": 1e-9, "spectrum": 1e-10,
      "mono": 1e-9, "feas": 1e-8, "gap": 1e-8, "dh": 1e-8, "seesaw": 1e-9, "grid": 2e-3}),
], ids=["sample", "coherence", "verify"])
def test_config_echoes_only_read_tolerances(capsys, argv, expected):
    _, out, _ = run_cli(capsys, *argv)
    assert json.loads(out)["config"]["tolerances"] == expected


@pytest.mark.parametrize("via", ["flag", "env"])
def test_seed_range_is_uint64(capsys, monkeypatch, via):
    for seed, code in ((2**64, 2), (2**64 + 1, 2), (2**64 - 1, 0)):
        argv = ["sample", "--n", "1"]
        if via == "flag":
            argv += ["--seed", str(seed)]
        else:
            monkeypatch.setenv("DEPHASER_SEED", str(seed))
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if code == 0:
            assert json.loads(out)["config"]["seed"] == seed
        else:
            assert out == "" and "0..2^64-1" in err


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["channel", "dephasing-channel"])
def test_sample_channel_kinds(capsys, kind, d):
    ranks = [None, 1, d * d] if kind == "channel" else [None]
    for rank in ranks:
        argv = ["sample", "--kind", kind, "--dim", str(d), "--n", "3", "--seed", "4"]
        if rank is not None:
            argv += ["--rank", str(rank)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        items = parse_report(out)["results"]["items"]
        assert len(items) == 3
        for item in items:
            if kind == "channel":
                ch = ser.channel_from_json(item)
                assert ch.dim == d
                assert len(chn.to_kraus(ch)) == (d * d if rank is None else rank)
            else:
                assert ser.dephasing_from_json(item).dim == d


@pytest.mark.parametrize("kind", ["superchannel", "dephasing-channel"])
def test_sample_rank_needs_channel_kind(capsys, kind):
    code, out, err = run_cli(capsys, "sample", "--kind", kind, "--rank", "2")
    assert code == 2
    assert out == ""
    assert "--rank applies only to --kind channel" in err


@pytest.mark.parametrize("command", ["coherence", "distinguish"])
def test_solver_failure_exits_4(capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise coh.SolverError("no convergence")

    monkeypatch.setattr(coh, "robustness", fail)
    had = fixture_path("hadamard_channel.json")
    argv = [command, had] if command == "coherence" else [
        command, had, fixture_path("corr2_sign_flip.json"), fixture_path("corr2_sign_flip.json"),
        "--restarts", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["error: solver failed: no convergence"]

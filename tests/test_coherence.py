import math
import re

import numpy as np
import pytest

from dephaser import channels as chn
from dephaser import coherence as coh
from dephaser import superchannels as sup
from dephaser.sampling import Rng, haar_vector, random_state

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_state_coherence_diagonal_is_zero():
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    assert coh.state_coherence(rho, coh.L1) == 0.0
    assert coh.state_coherence(rho, coh.REL_ENT) == 0.0


def test_state_coherence_plus_state():
    assert abs(coh.state_coherence(PLUS, coh.L1) - 1.0) < 1e-12
    assert abs(coh.state_coherence(PLUS, coh.REL_ENT) - 1.0) < 1e-12


def test_rel_ent_equals_diagonal_entropy_for_pure():
    rng = Rng(70)
    for trial in range(10):
        psi = haar_vector(rng.derive(trial), 2)
        rho = np.outer(psi, psi.conj())
        p = np.abs(psi) ** 2
        expect = -sum(x * math.log2(x) for x in p if x > 1e-15)
        assert abs(coh.state_coherence(rho, coh.REL_ENT) - expect) < 1e-10


def test_state_coherence_monotone_under_dephasing():
    rng = Rng(71)
    for trial in range(20):
        d = 2 + trial % 3
        rho = random_state(rng.derive(trial), d)
        dc = chn.random_dephasing(rng.derive(100 + trial), d)
        out = chn.apply(chn.dephasing_channel(dc), rho)
        for m in coh.MEASURES:
            assert coh.state_coherence(out, m) <= coh.state_coherence(rho, m) + 1e-9


def test_cohering_power_basics():
    assert coh.cohering_power(chn.identity_channel(2), coh.L1) == 0.0
    assert coh.cohering_power(chn.completely_dephasing(3), coh.L1) == 0.0
    assert abs(coh.cohering_power(chn.unitary_channel(HAD), coh.L1) - 1.0) < 1e-12


def test_hypothesis_test_equal_states():
    rho = random_state(Rng(72), 3)
    for eps in (0.0, 0.1, 0.5):
        val = coh.hypothesis_test_divergence(rho, rho, eps)
        assert abs(val - (-math.log2(1.0 - eps))) < 1e-10


def test_hypothesis_test_orthogonal_states():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    for eps in (0.0, 0.3):
        assert math.isinf(coh.hypothesis_test_divergence(rho, sigma, eps))


def test_hypothesis_test_rejects_bad_eps():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        coh.hypothesis_test_divergence(rho, rho, 1.0)
    with pytest.raises(ValueError):
        coh.hypothesis_test_divergence(rho, rho, -0.1)


def lp_oracle(p, q, eps):
    # exact optimum over diagonal tests: fill Q greedily by ascending q/p
    order = sorted(range(len(p)), key=lambda i: q[i] / p[i] if p[i] > 0 else math.inf)
    need = 1.0 - eps
    cost = 0.0
    for i in order:
        if need <= 1e-15:
            break
        take = min(1.0, need / p[i]) if p[i] > 0 else 1.0
        if p[i] == 0.0:
            continue
        cost += take * q[i]
        need -= take * p[i]
    return cost


def test_hypothesis_test_matches_diagonal_lp():
    rng = Rng(73)
    for trial in range(40):
        d = 2 + trial % 3
        p = rng.derive(trial).uniform(size=d) + 1e-3
        p = p / p.sum()
        q = rng.derive(1000 + trial).uniform(size=d) + 1e-3
        q = q / q.sum()
        eps = (0.0, 0.1, 0.3, 0.6)[trial % 4]
        val = coh.hypothesis_test_divergence(np.diag(p), np.diag(q), eps)
        expect = -math.log2(lp_oracle(p, q, eps))
        assert abs(val - expect) < 1e-8


def test_hypothesis_test_monotone_in_eps():
    rng = Rng(74)
    for trial in range(10):
        rho = random_state(rng.derive(trial), 3)
        sigma = random_state(rng.derive(1000 + trial), 3)
        vals = [coh.hypothesis_test_divergence(rho, sigma, e) for e in (0.0, 0.2, 0.4, 0.6)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9


def test_hypothesis_test_data_processing():
    rng = Rng(75)
    for trial in range(20):
        d = 2 + trial % 2
        rho = random_state(rng.derive(trial), d)
        sigma = random_state(rng.derive(1000 + trial), d)
        lam = chn.random_channel(rng.derive(2000 + trial), d, 2)
        eps = (0.0, 0.25)[trial % 2]
        before = coh.hypothesis_test_divergence(rho, sigma, eps)
        after = coh.hypothesis_test_divergence(
            chn.apply(lam, rho), chn.apply(lam, sigma), eps)
        if math.isinf(before):
            continue
        assert after <= before + 1e-8


def test_dh_lower_equal_channels():
    ch = chn.random_channel(Rng(76), 2, 2)
    for eps in (0.0, 0.2):
        val = coh.dh_channel_divergence_lower(ch, ch, eps, restarts=3, rng=Rng(1))
        assert abs(val - (-math.log2(1.0 - eps))) < 1e-10


def test_dh_lower_hadamard_vs_classical():
    had = chn.unitary_channel(HAD)
    val = coh.dh_channel_divergence_lower(had, chn.classical_version(had), 0.0,
                                          restarts=4, rng=Rng(2))
    assert val >= 1.0 - 1e-9


def test_dh_lower_monotone_in_restarts():
    e1 = chn.random_channel(Rng(77), 2, 2)
    e2 = chn.random_channel(Rng(78), 2, 3)
    vals = [coh.dh_channel_divergence_lower(e1, e2, 0.1, restarts=r, rng=Rng(3))
            for r in (1, 2, 4, 8)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_robustness_classical_is_zero():
    raw = Rng(79).uniform(size=(3, 3)) + 1e-3
    t = raw / raw.sum(axis=0, keepdims=True)
    cert = coh.robustness(chn.classical_channel(t))
    assert cert.value == 0.0
    assert cert.noise_channel is None
    assert np.abs(cert.classical_target - t).max() < 1e-12


def test_robustness_hadamard():
    cert = coh.robustness(chn.unitary_channel(HAD))
    assert abs(cert.value - 3.0) < 1e-6
    grid = coh.robustness_grid(chn.unitary_channel(HAD))
    assert abs(cert.value - grid) < 1e-3


def test_robustness_dephasing_matches_coherence_strength():
    for c in (0.25, -0.6, 0.9):
        dc = chn.dephasing_c(np.array([[1.0, c], [c, 1.0]]))
        cert = coh.robustness(chn.dephasing_channel(dc))
        assert abs(cert.value - abs(c)) < 1e-6


def test_robustness_certificate_checks():
    rng = Rng(80)
    for trial in range(10):
        d = 2 + trial % 2
        ch = chn.random_channel(rng.derive(trial), d, 1 + trial % 3)
        cert = coh.robustness(ch)
        report = coh.check_certificate(ch, cert)
        assert report["ok"]
        if cert.noise_channel is not None:
            chn.check_channel(cert.noise_channel)
            mix = (ch.jam + cert.value * cert.noise_channel.jam) / (1.0 + cert.value)
            off = mix - np.diag(np.diag(mix))
            assert np.abs(off).max() < 1e-7


def test_robustness_matches_grid_on_random_qubits():
    rng = Rng(81)
    for trial in range(8):
        ch = chn.random_channel(rng.derive(trial), 2, 1 + trial % 4)
        cert = coh.robustness(ch)
        assert abs(cert.value - coh.robustness_grid(ch)) < 1e-3


def test_robustness_grid_rejects_large_dims():
    with pytest.raises(ValueError):
        coh.robustness_grid(chn.identity_channel(3))


def test_robustness_grid_matches_exhaustive_scan():
    rng = Rng(81)
    dephasing = chn.dephasing_channel(chn.dephasing_c(np.array([[1.0, 0.6], [0.6, 1.0]])))
    # the dephasing channel's minimum sits at the corner alpha = 1, beta = 0
    cases = [(chn.unitary_channel(HAD), 1e-3), (dephasing, 1e-3)]
    cases += [(chn.random_channel(rng.derive(t), 2, 1 + t % 4), 4e-3) for t in range(8)]
    for ch, resolution in cases:
        jam = ch.jam
        o = -(jam - np.diag(np.diag(jam)))
        fr = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
        aa, bb = np.meshgrid(fr, fr, indexing="ij")
        exhaustive = 2.0 * float(coh._grid_smin(o, aa.ravel(), bb.ravel()).min())
        assert abs(coh.robustness_grid(ch, resolution) - exhaustive) <= 1e-12
    assert abs(coh.robustness_grid(dephasing) - 0.6) < 1e-3


@pytest.mark.parametrize("bad", [0.0, -1e-3, 0.51, 2.0, math.nan, math.inf])
def test_robustness_grid_rejects_bad_resolution(bad):
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        coh.robustness_grid(chn.unitary_channel(HAD), resolution=bad)


def test_seesaw_hadamard_perfect_discrimination():
    had = chn.unitary_channel(HAD)
    flip = np.ones((4, 4))
    flip[:2, 2:] = -1.0
    flip[2:, :2] = -1.0
    scs = [sup.identity_superchannel(2), sup.superchannel(flip, 2)]
    inst = coh.discrimination_seesaw(had, scs, restarts=4, rng=Rng(4))
    assert inst.p_succ > 1.0 - 1e-9


def test_seesaw_classical_gate_is_blind():
    raw = Rng(82).uniform(size=(2, 2)) + 1e-3
    t = raw / raw.sum(axis=0, keepdims=True)
    gate = chn.classical_channel(t)
    rng = Rng(5)
    scs = [sup.sample(rng.derive(k), 2) for k in range(3)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=4, rng=Rng(6))
    assert abs(inst.p_succ - 1.0 / 3.0) < 1e-9


def test_seesaw_log_monotone_and_feasible():
    rng = Rng(83)
    gate = chn.random_channel(rng.derive(0), 2, 2)
    scs = [sup.sample(rng.derive(1 + k), 2) for k in range(2)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=3, rng=Rng(7))
    assert inst.p_succ >= 0.5 - 1e-12
    by_restart: dict = {}
    for rec in inst.iteration_log:
        by_restart.setdefault(rec["restart"], []).append(rec["objective"])
    for objs in by_restart.values():
        for a, b in zip(objs, objs[1:]):
            assert b >= a
    # povm is a resolution of identity
    total = sum(inst.povm)
    assert np.abs(total - np.eye(total.shape[0])).max() < 1e-9
    for e in inst.povm:
        assert np.linalg.eigvalsh(e).min() > -1e-9


def test_bound_chain_random_instances():
    rng = Rng(84)
    for trial in range(5):
        gate = chn.random_channel(rng.derive(trial), 2, 1 + trial % 4)
        m = 2 + trial % 2
        scs = [sup.sample(rng.derive(100 + trial * 10 + k), 2) for k in range(m)]
        inst = coh.discrimination_seesaw(gate, scs, restarts=4, rng=Rng(8).derive(trial))
        cert = coh.robustness(gate)
        report = coh.robustness_bound_check(inst, cert)
        assert report["ok"]
        assert report["slack"] >= -1e-8
        assert inst.p_succ >= 1.0 / m - 1e-9


def test_bound_chain_hadamard_saturates():
    had = chn.unitary_channel(HAD)
    flip = np.ones((4, 4))
    flip[:2, 2:] = -1.0
    flip[2:, :2] = -1.0
    scs = [sup.identity_superchannel(2), sup.superchannel(flip, 2)]
    inst = coh.discrimination_seesaw(had, scs, restarts=4, rng=Rng(9))
    cert = coh.robustness(had)
    # 2 * 1 <= 1 + R forces R >= 1; Hadamard in fact has R = 3
    assert 2.0 * inst.p_succ <= 1.0 + cert.value + 1e-8
    assert cert.value >= 1.0 - 1e-8


def test_identity_superchannel_gap_is_zero():
    rng = Rng(87)
    ident = sup.identity_superchannel(2)
    for trial in range(10):
        ch = chn.random_channel(rng.derive(trial), 2, 1 + trial % 4)
        before = coh.cohering_power(ch, coh.L1)
        after = coh.cohering_power(sup.apply(ident, ch), coh.L1)
        assert abs(after - before) < 1e-14


def test_monotonicity_suite_qubit():
    report = coh.monotonicity_suite(Rng(85), 30, 2)
    assert report["violations"] == 0
    assert report["max_violation"] <= 1e-9


def test_monotonicity_suite_rel_ent():
    report = coh.monotonicity_suite(Rng(86), 20, 3, measure=coh.REL_ENT)
    assert report["violations"] == 0
    assert report["ok"]

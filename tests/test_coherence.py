import dataclasses
import math
import re

import numpy as np
import pytest

from dephaser import channels as chn
from dephaser import coherence as coh
from dephaser import fixtures as fx
from dephaser import superchannels as sup
from dephaser import verify as ver
from dephaser.sampling import Rng, haar_unitary, haar_vector, random_state

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



def ref_np_test_optimum(rho, sigma, eps):
    """The bisection that the search of coherence._np_test_min replaced, kept
    verbatim as the reference for its safeguarded Newton search."""
    if eps < 1e-15:
        w, v = np.linalg.eigh(rho)
        p = v[:, w > 1e-12]
        return float(np.real(np.trace(p.conj().T @ sigma @ p)))
    target = 1.0 - eps
    ev_r = np.linalg.eigvalsh(rho)
    ev_s = np.linalg.eigvalsh(sigma)
    pos = ev_s[ev_s > 1e-14]
    t_max = ev_r.max() / pos.min() if pos.size else 1e6
    t_max = min(max(t_max, 1.0), 1e6)

    def fval(t):
        w, v = np.linalg.eigh(rho - t * sigma)
        p = v[:, w > 0]
        if not p.size:
            return 0.0
        return float(np.real(np.trace(p.conj().T @ rho @ p)))

    lo, hi = 0.0, t_max
    if fval(hi) >= target - 1e-15:
        lo = hi
    else:
        while hi - lo > 1e-12 * max(1.0, lo):
            mid = 0.5 * (lo + hi)
            if fval(mid) >= target - 1e-15:
                lo = mid
            else:
                hi = mid
    t = 0.5 * (lo + hi)
    band = max(1e-13, 10.0 * (hi - lo) * max(1.0, np.abs(ev_s).max()))
    w, v = np.linalg.eigh(rho - t * sigma)
    p = v[:, w > band]
    bm = v[:, np.abs(w) <= band]
    g = float(np.real(np.trace(p.conj().T @ rho @ p))) if p.size else 0.0
    gb = float(np.real(np.trace(bm.conj().T @ rho @ bm))) if bm.size else 0.0
    need = target - g
    if need <= 1e-12:
        x = 0.0
    elif gb <= need:
        x = 1.0
    else:
        x = need / gb
    vs = float(np.real(np.trace(p.conj().T @ sigma @ p))) if p.size else 0.0
    vb = float(np.real(np.trace(bm.conj().T @ sigma @ bm))) if bm.size else 0.0
    return vs + x * vb


def _low_rank_state(g, n, rank):
    a = g.normal(size=(n, rank)) + 1j * g.normal(size=(n, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _lifted_candidates(d, channels=4, restarts=8):
    """(E (x) I) and (Delta E Delta (x) I) on the maximally entangled input and
    Haar-random inputs, as dh_channel_divergence_lower forms them."""
    rng = Rng(90 + d)
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    out = []
    for c in range(channels):
        rank = 1 + int(rng.derive(c).integers(0, d * d))
        ch = chn.random_channel(rng.derive(100 + c), d, rank)
        lifted = coh._Lifted([ch, chn.classical_version(ch)])
        inputs = [phi] + [haar_vector(rng.derive(1000 * c + i), d * d) for i in range(restarts)]
        out += [lifted.forward(psi[None])[0] for psi in inputs]
    return out


def _parity_pairs():
    g = np.random.default_rng(91)
    for i in range(264):
        n = int(g.integers(2, 17))
        kind = i % 4
        if kind == 0:  # commuting: h(t) is a step function
            p, q = g.dirichlet(np.ones(n)), g.dirichlet(np.ones(n))
            if i % 8 == 0:
                p[: n // 2] = 0.0
                p /= p.sum()
            yield np.diag(p).astype(complex), np.diag(q).astype(complex)
        elif kind == 1:
            rho = _low_rank_state(g, n, n)
            yield rho, rho.copy()
        elif kind == 2:
            yield _low_rank_state(g, n, 1), _low_rank_state(g, n, n)
        else:
            yield (_low_rank_state(g, n, max(1, n // 3)),
                   _low_rank_state(g, n, int(g.integers(1, n + 1))))
    for d in (2, 3, 4):
        yield from _lifted_candidates(d, channels=2, restarts=5)


def test_np_test_optimum_matches_bisection():
    # eps >= 1e-6: for pure states the optimum has a square-root cusp at
    # eps = 0, so the 1e-15 slack of the feasibility test moves it by up to
    # about 1e-7 relative at eps near 1e-15, in the bisection as in Newton
    epss = np.random.default_rng(92).uniform(1e-6, 0.95, size=400)
    n = 0
    for (rho, sigma), eps in zip(_parity_pairs(), epss):
        ref = ref_np_test_optimum(rho, sigma, eps)
        got = coh._np_test_min(rho[None], sigma[None], eps)
        if ref <= coh.DH_VALUE_FLOOR:
            assert got <= coh.DH_VALUE_FLOOR
            assert math.isinf(coh.hypothesis_test_divergence(rho, sigma, eps))
        else:
            assert abs(got - ref) <= 1e-10 * ref
        n += 1
    assert n == 300


@pytest.mark.parametrize("d", [2, 3, 4])
def test_np_test_optimum_eigensolve_count(monkeypatch, d):
    eigh = np.linalg.eigh
    calls = [0]

    def counted(a):
        calls[0] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = []
    for rho, sigma in _lifted_candidates(d):
        calls[0] = 0
        coh._np_test_min(rho[None], sigma[None], 0.1)
        counts.append(calls[0])
    assert np.median(counts) <= 12
    assert max(counts) <= 60


def fourier(d):
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dh_lower_saturates_at_fourier_gate(d):
    f = chn.unitary_channel(fourier(d))
    for eps in (0.0, 0.1, 0.5):
        val = coh.dh_channel_divergence_lower(f, chn.classical_version(f), eps)
        assert abs(val - math.log2(d * d / (1.0 - eps))) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_robustness_saturates_at_fourier_gate(d):
    # J(F_d) is maximally coherent on d^2 levels, so R(F_d) = d^2 - 1
    f = chn.unitary_channel(fourier(d))
    cert = coh.robustness(f)
    assert abs(cert.value - (d * d - 1)) <= cert.primal_dual_gap
    assert coh.check_certificate(f, cert)["ok"]

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


def _exhaustive_grid(ch, resolution):
    jam = ch.jam
    o = -(jam - np.diag(np.diag(jam)))
    fr = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
    aa, bb = np.meshgrid(fr, fr, indexing="ij")
    return 2.0 * float(coh._grid_smin(o, aa.ravel(), bb.ravel()).min())


def _near_classical_qubits():
    # (1 - lam) J(E) + lam J(Delta o E): output dephasing keeps the jam
    # entries whose two output indices agree
    out_diag = np.kron(np.eye(2), np.ones((2, 2)))
    rng = Rng(82)
    for t in range(4):
        ch = chn.random_channel(rng.derive(t), 2, 1 + t % 4)
        for lam in (0.5, 0.9, 0.99):
            yield chn.Channel(dim=2, jam=(1.0 - lam) * ch.jam + lam * out_diag * ch.jam)


def test_robustness_grid_matches_exhaustive_scan_near_classical_and_dephasing():
    cases = list(_near_classical_qubits())
    # dephasing minima sit at the corner alpha = 1, beta = 0
    cases += [chn.dephasing_channel(chn.dephasing_c(np.array([[1.0, c], [c, 1.0]])))
              for c in (0.05, 0.5, 0.95)]
    for ch in cases:
        assert coh.robustness_grid(ch, 1e-2) == _exhaustive_grid(ch, 1e-2)


@pytest.mark.parametrize("resolution", [0.5, 0.25, 0.1])
def test_robustness_grid_matches_exhaustive_scan_at_coarse_resolutions(resolution):
    rng = Rng(83)
    cases = [chn.unitary_channel(HAD)] + list(_near_classical_qubits())
    cases += [chn.random_channel(rng.derive(t), 2, 1 + t % 4) for t in range(8)]
    for ch in cases:
        assert coh.robustness_grid(ch, resolution) == _exhaustive_grid(ch, resolution)


def test_robustness_grid_interior_point_count(monkeypatch):
    smin = coh._grid_smin
    interior = [0]

    def counted(o, al, be):
        interior[0] += int(((al > 0) & (al < 1) & (be > 0) & (be < 1)).sum())
        return smin(o, al, be)

    monkeypatch.setattr(coh, "_grid_smin", counted)
    rng = Rng(81)
    cases = [chn.unitary_channel(HAD)]
    cases += [chn.random_channel(rng.derive(t), 2, 1 + t % 4) for t in range(8)]
    for ch in cases:
        interior[0] = 0
        coh.robustness_grid(ch)
        assert 0 < interior[0] <= 1500


def test_robustness_grid_certification_window_grows_to_the_minimum(monkeypatch):
    # a narrow tilted valley u^2 + (8 v)^2, (u, v) rotated by 1.4 rad about
    # (0.5, 0.6), is convex and so quasiconvex like s; the zoom ends off its
    # grid minimum, and only the doubling certification window reaches it
    c, s = math.cos(1.4), math.sin(1.4)
    sizes = []

    def valley(o, al, be):
        sizes.append(al.size)
        u = c * (al - 0.5) + s * (be - 0.6)
        v = -s * (al - 0.5) + c * (be - 0.6)
        return u**2 + (8.0 * v) ** 2

    monkeypatch.setattr(coh, "_grid_smin", valley)
    value = coh.robustness_grid(chn.unitary_channel(HAD), 1e-2)
    assert sizes[-1] > 5 * 5  # the last window is wider than the first
    fr = np.linspace(0.0, 1.0, 101)
    aa, bb = np.meshgrid(fr, fr, indexing="ij")
    assert value == 2.0 * float(valley(None, aa.ravel(), bb.ravel()).min())


@pytest.mark.parametrize("bad", [0.0, -1e-3, 5e-7, 0.51, 2.0, math.nan, math.inf])
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


@pytest.mark.parametrize("seed,trials", [(7, 2), (0, None), (3, None)])
def test_seesaw_p_succ_is_raw_within_the_tie_margin_of_one(seed, trials):
    # criterion 3's Hadamard instance is perfectly distinguishable: p_succ is
    # the unclipped value of the reported strategy, so roundoff can put it
    # above 1, but by no more than the tie rule's margin of M n^2 ulps
    cfg = ver.VerifyConfig(seed=seed, trials=trials)
    scs = [sup.identity_superchannel(2), fx.qubit_sign_flip_superchannel()]
    inst = coh.discrimination_seesaw(fx.hadamard_channel(), scs, restarts=cfg.count(8), rng=cfg.rng(3))
    margin = len(scs) * 4 ** 2 * math.ulp(1.0)
    assert abs(inst.p_succ - 1.0) <= margin
    if trials is not None:
        # the instance `verify --trials 2 --seed 7` reports: 3 ulps over 1, as evaluated
        assert inst.p_succ == 1.0 + 3 * math.ulp(1.0)
        row = next(r for r in ver.run_all(seed=seed, trials=trials) if r.cid == 3)
        assert row.detail["p_succ"] == inst.p_succ


def test_seesaw_classical_gate_is_blind():
    raw = Rng(82).uniform(size=(2, 2)) + 1e-3
    t = raw / raw.sum(axis=0, keepdims=True)
    gate = chn.classical_channel(t)
    rng = Rng(5)
    scs = [sup.sample(rng.derive(k), 2) for k in range(3)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=4, rng=Rng(6))
    assert abs(inst.p_succ - 1.0 / 3.0) < 1e-9
    # tie rule: a restart replaces the incumbent only if it is higher by more
    # than the value's roundoff, M n^2 ulps; here restart 3 ends 1.4e-15
    # (25 ulps) above the baseline in roundoff, inside that margin
    finals = {rec["restart"]: rec["objective"] for rec in inst.iteration_log}
    assert max(finals.values()) == finals[3] == inst.p_succ + 25 * math.ulp(inst.p_succ)
    # no restart beats the baseline (phi with the uniform POVM): it stays
    phi = (np.eye(2).reshape(-1) / np.sqrt(2)).astype(complex)
    for restarts in (0, 1, 4):
        inst = coh.discrimination_seesaw(gate, scs, restarts=restarts, rng=Rng(6))
        assert np.array_equal(inst.input_state, np.outer(phi, phi.conj()))
        assert all(np.array_equal(e, np.eye(4) / 3) for e in inst.povm)
        assert len(inst.iteration_log) == 4 * restarts


@pytest.mark.parametrize("restarts", [8, 32])
def test_seesaw_restarts_share_eigensolves(monkeypatch, restarts):
    # all restarts advance as one stack: two batched eigh calls per iteration
    # (POVM candidate, input step), not two per restart and iteration; and,
    # as a cost guard, at M = 2 only the race's leader runs past
    # _RACE_ITERS, so the log holds at most restarts (R + 1) records plus
    # the leader's climb
    rng = Rng(87)
    gate = chn.random_channel(rng.derive(0), 3, 2)
    scs = [sup.sample(rng.derive(1 + k), 3) for k in range(2)]
    eigh = np.linalg.eigh
    calls = [0]

    def counted(a):
        calls[0] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    inst = coh.discrimination_seesaw(gate, scs, restarts=restarts, rng=Rng(9))
    assert {rec["restart"] for rec in inst.iteration_log} == set(range(restarts))
    assert calls[0] <= 2 * coh.SEESAW_ITERS + 1
    assert len(inst.iteration_log) <= restarts * (coh._RACE_ITERS + 1) + coh.SEESAW_ITERS + 1


def test_seesaw_retires_restarts_behind_a_leader():
    # M = 2: the race is one stacked iteration; the stop test cannot fire
    # before iteration 3, so every restart races, and then every one but the
    # highest-valued (on a tie, the lowest index) is retired: its records are
    # iterations 0 and 1, and the last names the leader. The leader alone
    # climbs on, one record per extrapolated cycle, nondecreasing, and stops
    # before the SEESAW_ITERS backstop; p_succ is its final value. M = 3
    # retires none.
    assert coh._RACE_ITERS == 1
    rng = Rng(88_100)
    gate = chn.random_channel(rng.derive(0), 3, 2)
    scs = [sup.sample(rng.derive(1 + k), 3) for k in range(3)]
    inst = coh.discrimination_seesaw(gate, scs[:2], restarts=16, rng=rng.derive(9))
    by: dict = {}
    for rec in inst.iteration_log:
        by.setdefault(rec["restart"], []).append(rec)
    retired = {rs: recs for rs, recs in by.items() if recs[-1]["joined"] is not None}
    (lead,) = set(by) - set(retired)
    assert len(retired) == 15
    ahead = by[lead][1]["objective"]
    for rs, recs in retired.items():
        assert [rec["iter"] for rec in recs] == [0, 1]
        assert recs[0]["joined"] is None and recs[1]["joined"] == lead
        assert ahead > recs[1]["objective"] or (ahead == recs[1]["objective"] and lead < rs)
    climb = [rec["objective"] for rec in by[lead]]
    assert all(rec["joined"] is None for rec in by[lead])
    assert 2 < len(climb) <= coh.SEESAW_ITERS and all(b >= a for a, b in zip(climb, climb[1:]))
    assert abs(climb[-1] - inst.p_succ) <= 1e-12
    inst = coh.discrimination_seesaw(gate, scs, restarts=16, rng=rng.derive(9))
    assert all(rec["joined"] is None for rec in inst.iteration_log)


def test_negative_restarts_rejected():
    gate = chn.random_channel(Rng(88), 2, 2)
    scs = [sup.sample(Rng(89).derive(k), 2) for k in range(2)]
    with pytest.raises(ValueError, match="restarts"):
        coh.discrimination_seesaw(gate, scs, restarts=-1)
    with pytest.raises(ValueError, match="restarts"):
        coh.dh_channel_divergence_lower(gate, chn.classical_version(gate), 0.1, restarts=-1)
    # restarts = 0 leaves only the maximally entangled candidate
    phi = (np.eye(2).reshape(-1) / np.sqrt(2)).astype(complex)
    lifted = coh._Lifted([gate, chn.classical_version(gate)])
    rho, sigma = lifted.forward(phi[None])[0]
    assert coh.dh_channel_divergence_lower(gate, chn.classical_version(gate), 0.1, restarts=0) \
        == coh.hypothesis_test_divergence(rho, sigma, 0.1)


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


def test_monotonicity_qubit():
    rng = Rng(85)
    for t in range(30):
        sc, ch = ver._pair(rng.derive(1000 * t), 2)
        before = coh.cohering_power(ch, coh.L1)
        after = coh.cohering_power(sup.apply(sc, ch), coh.L1)
        assert after <= before + 1e-9


def test_monotonicity_rel_ent():
    rng = Rng(86)
    for t in range(20):
        sc, ch = ver._pair(rng.derive(1000 * t), 3)
        before = coh.cohering_power(ch, coh.REL_ENT)
        after = coh.cohering_power(sup.apply(sc, ch), coh.REL_ENT)
        assert after <= before + 1e-9


def _kron_lifted(ch):
    """Reference lifting: the Kraus operators K (x) I of E (x) I."""
    return [np.kron(k, np.eye(ch.dim)) for k in chn.to_kraus(ch)]


@pytest.mark.parametrize("d,rank", sorted({(d, r) for d in (1, 2, 3, 4) for r in (1, d * d)}))
def test_lifted_kernel_matches_kron_reference(d, rank):
    rng = Rng(300 + 10 * d + rank)
    # the second channel's rank differs, so one Kraus list gets zero-padded
    chs = [chn.random_channel(rng.derive(1), d, rank),
           chn.random_channel(rng.derive(2), d, d * d + 1 - rank)]
    lifted = coh._Lifted(chs)
    psi = haar_vector(rng.derive(3), d * d)
    rho = np.outer(psi, psi.conj())
    g = rng.derive(4).complex_normal((2, d * d, d * d))
    bs = g + g.conj().transpose(0, 2, 1)
    outs = lifted.forward(psi[None])[0]
    for out, ch in zip(outs, chs):
        ref = sum(k @ rho @ k.conj().T for k in _kron_lifted(ch))
        assert np.abs(out - ref).max() <= 1e-12
    ref_dual = sum(sum(k.conj().T @ b @ k for k in _kron_lifted(ch)) for b, ch in zip(bs, chs))
    assert np.abs(lifted.dual(bs[None])[0] - ref_dual).max() <= 1e-12
    # dual adjointness channel by channel: Tr(B Phi(rho)) = Tr(Phi^dag(B) rho)
    for b, ch in zip(bs, chs):
        one = coh._Lifted([ch])
        lhs = np.trace(b @ one.forward(psi[None])[0, 0])
        rhs = np.trace(one.dual(b[None, None])[0] @ rho)
        assert abs(lhs - rhs) <= 1e-12


# p_succ of the seesaw when it applied the lifted channels as sums over
# kron(K, I) terms; the lifted-channel kernel must reproduce them
@pytest.mark.parametrize("d,p_succ", [
    (2, 0.638938177323186),
    (3, 0.7121462569200236),
    (4, 0.6929525980179521),
])
def test_seesaw_pinned_success_probability(d, p_succ):
    rng = Rng(40 + d)
    gate = chn.random_channel(rng.derive(1), d, 2)
    scs = [sup.sample(rng.derive(10 + i), d) for i in range(2)]
    inst = coh.discrimination_seesaw(gate, scs, restarts=4, rng=rng.derive(2))
    assert abs(inst.p_succ - p_succ) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_seesaw_step_is_covariant_under_reference_unitaries(d):
    # with psi -> (I (x) V) psi for a unitary V on the reference, the
    # Helstrom value is unchanged and the next input moves to (I (x) V)
    # times the next input, up to a phase; so at M = 2 a restart's future
    # depends on its system marginal alone, the variable of the concave g
    # that the seesaw's race rests on (next test)
    rng = Rng(62_000 + d)
    n = d * d
    for trial in range(10):
        rt = rng.derive(trial)
        gate = chn.random_channel(rt.derive(0), d, 1 + trial % n)
        lifted = coh._Lifted([sup.apply(sup.sample(rt.derive(1 + k), d), gate) for k in range(2)])
        lift_v = np.kron(np.eye(d), haar_unitary(rt.derive(3), d))
        psi = haar_vector(rt.derive(4), n)
        taus = lifted.forward(np.stack([psi, lift_v @ psi]))
        povms = coh._povm_candidate(taus, 2, n)
        vals = coh._strategy_values(povms, taus, 2)
        assert abs(vals[0] - vals[1]) <= 1e-13
        w, vecs = np.linalg.eigh(lifted.dual(povms) / 2)
        mapped, nxt = lift_v @ vecs[0, :, -1], vecs[1, :, -1]
        phase = np.vdot(mapped, nxt)
        assert abs(w[0, -1] - w[1, -1]) <= 1e-13
        assert np.abs(nxt - phase / abs(phase) * mapped).max() <= 1e-9


def _helstrom_gap(lifted, sigma):
    # g(sigma) = 2 p - 1 for the Helstrom value p at psi = vec(sqrt(sigma))
    n = len(sigma) ** 2
    w, v = np.linalg.eigh(sigma)
    psi = ((v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T).reshape(-1)
    taus = lifted.forward(psi[None])
    return 2.0 * coh._strategy_values(coh._povm_candidate(taus, 2, n), taus, 2)[0] - 1.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_helstrom_gap_is_concave_in_the_system_marginal(d):
    # the premise of the seesaw's race at M = 2: the best Helstrom value over
    # inputs with system marginal sigma is 1/2 + 1/2 g(sigma), with
    # g(sigma) = max_{0 <= W <= I (x) sigma} Tr(W C_Delta) concave in sigma
    # (Watrous 2009), so every restart climbs to the same maximum
    rng = Rng(62_100 + d)
    for trial in range(100):
        rt = rng.derive(trial)
        gate = chn.random_channel(rt.derive(0), d, 1 + trial % (d * d))
        lifted = coh._Lifted([sup.apply(sup.sample(rt.derive(1 + k), d), gate) for k in range(2)])
        s1, s2 = (random_state(rt.derive(3 + k), d, pure=(trial + k) % 4 == 0) for k in range(2))
        lam = float(rt.derive(5).uniform())
        mixed = _helstrom_gap(lifted, lam * s1 + (1.0 - lam) * s2)
        assert mixed >= lam * _helstrom_gap(lifted, s1) + (1.0 - lam) * _helstrom_gap(lifted, s2) - 1e-12


def _certificate_channels():
    # d = 1 (classical by force), random channels at d = 2-4, the Fourier
    # gate and near-classical channels with off-diagonal mass down to 1e-9
    yield chn.random_channel(Rng(3_000), 1, 1)
    for d in (2, 3, 4):
        for k in range(4):
            yield chn.random_channel(Rng(3_000 + 10 * d + k), d, 1 + k * (d * d - 1) // 3)
        yield chn.unitary_channel(fourier(d))
        ch = chn.random_channel(Rng(3_100 + d), d, d)
        classical = chn.classical_version(ch).jam
        for s in (1e-3, 1e-6, 1e-9):
            yield chn.Channel(dim=d, jam=s * ch.jam + (1.0 - s) * classical)


def test_every_certificate_brackets_robustness():
    for ch in _certificate_channels():
        cert = coh.robustness(ch)
        report = coh.check_certificate(ch, cert)
        assert report["ok"], report
        assert 0.0 <= cert.value - cert.lower_bound <= coh.GAP_TOL
        assert report["gap"] == cert.value - cert.lower_bound


def _tampered(cert, kind):
    z = cert.dual.copy()
    if kind == "dual-not-psd":
        # an off-diagonal pair larger than its diagonal: the diagonal conditions hold
        z[0, 1] = z[1, 0] = 10.0 * np.abs(z.diagonal()).max()
        return dataclasses.replace(cert, dual=z)
    if kind == "dual-diagonal":
        z[0, 0] += 1e-3
        return dataclasses.replace(cert, dual=z)
    return dataclasses.replace(cert, lower_bound=cert.lower_bound + 1e-6)


@pytest.mark.parametrize("kind,residual", [("dual-not-psd", "dual_min_eig"),
                                           ("dual-diagonal", "dual_diag_residual"),
                                           ("inflated-bound", "lower_bound_excess")])
def test_check_certificate_rejects_a_tampered_dual(kind, residual):
    ch = chn.random_channel(Rng(3_200), 3, 2)
    cert = coh.robustness(ch)
    assert coh.check_certificate(ch, cert)["ok"]
    report = coh.check_certificate(ch, _tampered(cert, kind))
    assert not report["ok"]
    assert abs(report[residual]) > coh.FEAS_TOL


@pytest.mark.parametrize("d", [2, 3, 4])
def test_robustness_inverts_the_kkt_matrix_once_per_iteration(monkeypatch, d):
    # the predictor and the corrector share one inverse of the
    # (n + 1 + d)-square KKT matrix, and no iteration calls np.linalg.solve;
    # each iteration starts with one Cholesky, and the last one stops there
    inv, solve, cholesky = np.linalg.inv, np.linalg.solve, np.linalg.cholesky
    kkt = (d * d + 1 + d,) * 2
    calls = {"inv": 0, "solve": 0, "cholesky": 0}

    def counted_inv(a):
        calls["inv"] += np.shape(a) == kkt
        return inv(a)

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    def counted_cholesky(a):
        calls["cholesky"] += 1
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    for k in range(6):
        calls.update(inv=0, solve=0, cholesky=0)
        coh.robustness(chn.random_channel(Rng(3_300 + 10 * d + k), d, 1 + k % (d * d)))
        assert calls["solve"] == 0
        assert 0 < calls["inv"] == calls["cholesky"] - 1 <= coh.MAX_PD_ITERS


def test_robustness_unreachable_gap_is_a_solver_error():
    ch = chn.random_channel(Rng(3_400), 3, 2)
    with pytest.raises(coh.SolverError, match="gap"):
        coh.robustness(ch, gap_tol=1e-15)


def _phase(d, k):
    """Rank-one phase correlation v v^H with v_j = w^(kj): D_C is conjugation by Z^k."""
    v = np.exp(2j * np.pi * k * np.arange(d) / d)
    return chn.dephasing_c(np.outer(v, v.conj()))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_seesaw_is_perfect_at_fourier_gate(d):
    # pre_post(Z^k, Z^l) maps F_d to Z^l F_d Z^k; these d^2 unitaries are
    # mutually orthogonal, so p_succ = 1 and M p_succ = 1 + R = d^2
    f = fourier(d)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    gate = chn.unitary_channel(f)
    scs = []
    for k in range(d):
        for l in range(d):
            sc = sup.pre_post(_phase(d, k), _phase(d, l))
            image = np.linalg.matrix_power(clock, l) @ f @ np.linalg.matrix_power(clock, k)
            assert np.abs(sup.apply(sc, gate).jam - chn.unitary_channel(image).jam).max() <= 1e-12
            scs.append(sc)
    inst = coh.discrimination_seesaw(gate, scs, restarts=2)
    assert inst.p_succ >= 1.0 - 1e-9
    cert = coh.robustness(gate)
    assert abs(len(scs) * inst.p_succ - (1.0 + cert.value)) <= cert.primal_dual_gap + 1e-9

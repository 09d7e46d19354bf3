"""Bit-identity of the stacked kernels against frozen single-input copies.

The seesaw advances all restarts as one stack, the D_H lower bound runs
one stacked threshold search over all its candidates, and
complete_isometry carries its residuals across pivot rounds, and
cohering_power reads every basis image from one slice of J. Each is meant to run the same
floating-point operations as the one-at-a-time code it replaced, so every
comparison here is exact (== and np.array_equal), never a tolerance.

The seesaw's reference runs its restarts in lock-step Python loops and
mirrors the M = 2 race, after which only the leading restart runs on, by
extrapolated (SQUAREM) cycles on its system marginal; its p_succ is also
held to 1e-12 of the single-restart copy without retirement
(ref_seesaw_unmerged), since at M = 2 every restart climbs to the same
maximum.

The other exception is robustness: the primal-dual solver replaced the
log-det barrier, so it is held to the frozen barrier from both sides
(weak duality), not bit for bit.
"""

import math

import numpy as np
import pytest

from dephaser import channels as chn
from dephaser import coherence as coh
from dephaser import superchannels as sup
from dephaser.channels import transition_matrix
from dephaser.linalg import GRAM_TOL, PIVOT_TOL, complete_isometry
from dephaser.sampling import Rng, haar_unitary, haar_vector


# --- frozen copies of the single-input kernels -----------------------------

def ref_forward(lifted, psi):
    m, r, d, _ = lifted.ks.shape
    a = (lifted.ks @ psi.reshape(d, d)).reshape(m, r, d * d)
    return a.transpose(0, 2, 1) @ a.conj()


def ref_dual(lifted, bs):
    d = lifted.ks.shape[-1]
    bp = bs.reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(-1, d * d)
    g = (lifted.dual_matrix @ bp).reshape(d, d, d, d)
    return g.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def ref_povm_candidate(taus, m, n):
    if m == 2:
        w, v = np.linalg.eigh(taus[0] - taus[1])
        pos = v[:, w > 0]
        b1 = pos @ pos.conj().T if pos.size else np.zeros((n, n), dtype=complex)
        return np.stack([b1, np.eye(n) - b1])
    w, v = np.linalg.eigh(taus.sum(axis=0) / m)
    winv = np.where(w > 1e-12, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    si = (v * winv) @ v.conj().T
    supp = v[:, w > 1e-12]
    pker = np.eye(n) - supp @ supp.conj().T
    return si @ (taus / m) @ si + pker / m


def ref_cohering_power(ch, measure):
    # one basis state at a time, each image a full contraction of J
    d = ch.dim
    best = 0.0
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        image = d * np.einsum("ikjl,kl->ij", ch.jam.reshape(d, d, d, d), e)
        best = max(best, coh._state_coherence(image, measure))
    return best


def ref_strategy_value(povm, taus, m):
    # Re Tr(P T) for Hermitian T, as one dot of the float views
    return float((povm.view(float).ravel() * taus.view(float).ravel()).sum()) / m


def ref_seesaw_unmerged(gate, scs, restarts, rng):
    # each restart alone, from start to stop, with no retirement
    scs = tuple(scs)
    m = len(scs)
    d = gate.dim
    n = d * d
    lifted = coh._Lifted([sup.apply(sc, gate) for sc in scs])
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    uniform = np.stack([np.eye(n, dtype=complex) / m] * m)
    best_psi, best_povm = phi, uniform
    best_val = ref_strategy_value(uniform, ref_forward(lifted, phi), m)
    logs = []
    for rs in range(restarts):
        psi = phi.copy() if rs == 0 else haar_vector(rng.derive(rs), n)
        povm = cur_povm = uniform
        taus = ref_forward(lifted, psi)
        cur, cur_psi = ref_strategy_value(povm, taus, m), psi
        logs.append({"restart": rs, "iter": 0, "objective": cur})
        for it in range(1, coh.SEESAW_ITERS + 1):
            cand = ref_povm_candidate(taus, m, n)
            cand_val = ref_strategy_value(cand, taus, m)
            if cand_val > cur:
                povm = cur_povm = cand
                cur, cur_psi = cand_val, psi
            w, v = np.linalg.eigh(ref_dual(lifted, povm) / m)
            if w[-1] > cur + 1e-15:
                psi = v[:, -1]
                taus = ref_forward(lifted, psi)
                cur = ref_strategy_value(povm, taus, m)
                cur_psi = psi
            logs.append({"restart": rs, "iter": it, "objective": cur})
            if it > 2 and logs[-1]["objective"] - logs[-3]["objective"] < 1e-13:
                break
        if cur > best_val + m * n * n * math.ulp(best_val):
            best_val, best_psi, best_povm = cur, cur_psi, cur_povm
    p = ref_strategy_value(best_povm, ref_forward(lifted, best_psi), m)
    return np.outer(best_psi, best_psi.conj()), tuple(best_povm), p, tuple(logs)


def ref_climb(lifted, psi, povm, cur, log, it):
    # the M = 2 leader's SQUAREM cycles on sigma = Psi Psi^dag, one input at
    # a time: two seesaw steps, the extrapolated marginal clipped to a
    # density matrix, and the better of psi2 and vec(sqrt(sigma')) (psi2 on a
    # tie) kept if it beats the strategy; one log record per cycle
    d = lifted.ks.shape[-1]
    n = d * d
    hel = ref_povm_candidate(ref_forward(lifted, psi), 2, n)
    for it in range(it + 1, coh.SEESAW_ITERS + 1):
        psi1 = np.linalg.eigh(ref_dual(lifted, hel) / 2)[1][:, -1]
        psi2 = np.linalg.eigh(ref_dual(lifted, ref_povm_candidate(ref_forward(lifted, psi1), 2, n)) / 2)[1][:, -1]
        s0, s1, s2 = (x.reshape(d, d) @ x.reshape(d, d).conj().T for x in (psi, psi1, psi2))
        r, v = s1 - s0, s2 - 2.0 * s1 + s0
        nv = np.linalg.norm(v)
        a = min(-1.0, -np.linalg.norm(r) / nv) if nv > 0 else -1.0
        w, u = np.linalg.eigh(s0 - 2.0 * a * r + a * a * v)
        w = np.maximum(w, 0.0)
        scored = []
        for x in (psi2, ((u * np.sqrt(w / w.sum())) @ u.conj().T).reshape(-1)):
            taus = ref_forward(lifted, x)
            cand = ref_povm_candidate(taus, 2, n)
            scored.append((ref_strategy_value(cand, taus, 2), x, cand))
        val, x, cand = max(scored, key=lambda s: s[0])
        gain = val - cur
        if gain > 0:
            psi, povm, cur, hel = x, cand, val, cand
        log.append({"restart": log[0]["restart"], "iter": it, "objective": cur, "joined": None})
        if gain < 1e-13:
            break
    return psi, povm, cur


def ref_seesaw(gate, scs, restarts, rng):
    # the restarts in lock-step, one Python loop per iteration; at M = 2 the
    # stop test of iteration _RACE_ITERS is followed by the retirement of
    # every running restart but the highest-valued one (on a tie, the lowest),
    # which then climbs alone (ref_climb)
    scs = tuple(scs)
    m = len(scs)
    d = gate.dim
    n = d * d
    lifted = coh._Lifted([sup.apply(sc, gate) for sc in scs])
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    uniform = np.stack([np.eye(n, dtype=complex) / m] * m)
    best_psi, best_povm = phi, uniform
    best_val = ref_strategy_value(uniform, ref_forward(lifted, phi), m)
    psi = [phi.copy() if rs == 0 else haar_vector(rng.derive(rs), n) for rs in range(restarts)]
    povm = [uniform] * restarts
    taus = [ref_forward(lifted, p) for p in psi]
    cur = [ref_strategy_value(uniform, t, m) for t in taus]
    logs = [[{"restart": rs, "iter": 0, "objective": cur[rs], "joined": None}] for rs in range(restarts)]
    running = list(range(restarts))
    joined = [None] * restarts
    for it in range(1, coh.SEESAW_ITERS + 1):
        for rs in running:
            cand = ref_povm_candidate(taus[rs], m, n)
            cand_val = ref_strategy_value(cand, taus[rs], m)
            if cand_val > cur[rs]:
                povm[rs], cur[rs] = cand, cand_val
            w, v = np.linalg.eigh(ref_dual(lifted, povm[rs]) / m)
            if w[-1] > cur[rs] + 1e-15:
                psi[rs] = v[:, -1]
                taus[rs] = ref_forward(lifted, psi[rs])
                cur[rs] = ref_strategy_value(povm[rs], taus[rs], m)
            logs[rs].append({"restart": rs, "iter": it, "objective": cur[rs], "joined": None})
        running = [rs for rs in running
                   if not (it > 2 and logs[rs][-1]["objective"] - logs[rs][-3]["objective"] < 1e-13)]
        if m == 2 and it == coh._RACE_ITERS and running:
            lead = max(running, key=lambda j: (cur[j], -j))
            for rs in running:
                if rs != lead:
                    joined[rs] = lead
                    logs[rs][-1]["joined"] = lead
            psi[lead], povm[lead], cur[lead] = ref_climb(lifted, psi[lead], povm[lead], cur[lead], logs[lead], it)
            break
    for rs in range(restarts):
        if joined[rs] is None and cur[rs] > best_val + m * n * n * math.ulp(best_val):
            best_val, best_psi, best_povm = cur[rs], psi[rs], povm[rs]
    p = ref_strategy_value(best_povm, ref_forward(lifted, best_psi), m)
    return np.outer(best_psi, best_psi.conj()), tuple(best_povm), p, tuple(rec for log in logs for rec in log)


MAX_NEWTON = 60  # Newton steps per barrier round of ref_robustness


def ref_robustness(ch):
    """robustness() with a per-step np.block KKT matrix and a fresh barrier
    evaluation at the start of every line search; returns (value, noise jam
    or None, classical target, gap)."""
    d = ch.dim
    n = d * d
    jam = ch.jam
    off = jam - np.diag(np.diag(jam))
    if np.abs(off).max() < 1e-12:
        return 0.0, None, transition_matrix(ch), 0.0
    o = -off
    a = np.hstack([np.tile(np.eye(d), d), np.full((d, 1), -1.0 / d)])
    c0 = float(np.linalg.norm(o, 2)) + 1.0
    y = np.full(n, c0)
    r = n * c0
    t = 1.0

    def barrier(yv, rv, tv):
        m = np.diag(yv).astype(complex) + o
        if np.linalg.eigvalsh(m)[0] <= 0:
            return math.inf
        _sign, logdet = np.linalg.slogdet(m)
        return rv - logdet.real / tv

    while True:
        converged = False
        for _ in range(MAX_NEWTON):
            ym = np.diag(y).astype(complex) + o
            yi = np.linalg.inv(ym)
            grad = np.concatenate([-np.real(np.diag(yi)), [t]])
            h = np.zeros((n + 1, n + 1))
            h[:n, :n] = np.abs(yi) ** 2
            kkt = np.block([[h, a.T], [a, np.zeros((d, d))]])
            rhs = np.concatenate([-grad, np.zeros(d)])
            dx = np.linalg.solve(kkt, rhs)[: n + 1]
            decrement = float(-grad @ dx) / 2.0
            if decrement <= 1e-11:
                converged = True
                break
            if decrement <= 0.25:
                s = 1.0
                while s > 1e-14:
                    m = np.diag(y + s * dx[:n]).astype(complex) + o
                    if np.linalg.eigvalsh(m)[0] > 0:
                        break
                    s *= 0.5
            else:
                f0 = barrier(y, r, t)
                slope = float(grad @ dx) / t
                s = 1.0
                while s > 1e-14:
                    if barrier(y + s * dx[:n], r + s * dx[n], t) <= f0 + 0.25 * s * slope:
                        break
                    s *= 0.5
            step = s * dx
            y = y + step[:n]
            r = r + step[n]
            scale = max(1.0, abs(r), float(np.abs(y).max()))
            if decrement <= 1e-6 and float(np.abs(step).max()) <= 1e-13 * scale:
                converged = True
                break
        assert converged
        if n / t <= coh.GAP_TOL:
            break
        t *= 10.0
    ym = np.diag(y).astype(complex) + o
    value = float(r)
    target = (d * np.real(np.diag(jam + ym)) / (1.0 + value)).reshape(d, d)
    return value, ym / value, target, n / t


def ref_np_test_optimum(rho, sigma, eps):
    """_np_test_min of a lone pair, as one safeguarded Newton search."""
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

    def probe(t):
        w, v = np.linalg.eigh(rho - t * sigma)
        j = int(np.searchsorted(w, 0.0, side="right"))
        vh = v.conj().T
        r, s = vh @ rho @ v, vh @ sigma @ v
        h = float(np.real(np.trace(r[j:, j:])))
        feasible = h >= target - 1e-15
        side = 1.0 if feasible else -1.0
        k = j if feasible else j - 1
        step = abs(w[k]) / s[k, k].real if 0 <= k < w.size and s[k, k].real > 0 else math.inf
        dh = -2.0 * float(np.sum(np.real(s[j:, :j] * r[j:, :j].conj()) / (w[j:, None] - w[:j])))
        if dh < 0:
            step = min(step, max(0.0, side * (target - h) / dh))
        return feasible, side * step

    lo, hi = 0.0, t_max
    feasible, step = probe(hi)
    if feasible:
        lo = hi
    else:
        t, ref, since, was_close = hi, hi - lo, 0, False
        while hi - lo > 1e-12 * max(1.0, lo):
            half = 0.5e-12 * max(1.0, lo)
            close = abs(step) < half
            nt = t + (math.copysign(half, step) if close else step)
            stalled = since >= 2 and hi - lo > 0.5 * ref and (was_close or not close)
            was_close = close
            if not lo < nt < hi or stalled:
                nt, ref, since = 0.5 * (lo + hi), 0.5 * (hi - lo), 0
            else:
                since += 1
            t = nt
            feasible, step = probe(t)
            if feasible:
                lo = t
            else:
                hi = t
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


def dh_candidates(e1, e2, restarts, rng):
    """The (1 + restarts, 2, d^2, d^2) lifted outputs dh_channel_divergence_lower searches."""
    d = e1.dim
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    psis = np.array([phi] + [haar_vector(rng.derive(i), d * d) for i in range(1, restarts + 1)])
    return coh._Lifted([e1, e2]).forward(psis)


def ref_dh_channel_divergence_lower(e1, e2, eps, restarts, rng):
    """The D_H lower bound as a max over one search per candidate."""
    best = 0.0
    for rho, sigma in dh_candidates(e1, e2, restarts, rng):
        val = ref_np_test_optimum(rho, sigma, eps)
        best = max(best, math.inf if val <= coh.DH_VALUE_FLOOR else -math.log2(val))
        if math.isinf(best):
            break
    return best


def ref_haar_unitary(rng, d):
    """haar_unitary as it was before sampling stacked its QR: one Ginibre
    matrix from the stream's own PCG64 generator, one QR, one phase fix."""
    g = np.random.Generator(np.random.PCG64(rng.seed))
    z = (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r).copy()
    mags = np.abs(diag)
    phases = np.where(mags > 1e-300, diag / np.where(mags > 1e-300, mags, 1.0), 1.0)
    return q * phases


def ref_sample(rng, d):
    us = [ref_haar_unitary(rng.derive(k), d * d) for k in range(d)]
    vs = [np.eye(d * d, dtype=complex)]
    vs += [ref_haar_unitary(rng.derive(d + i), d * d) for i in range(1, d)]
    return sup._correlation(np.array([u[:, 0] for u in us]).T, vs)


def ref_random_channel(rng, d, rank):
    v = ref_haar_unitary(rng, d * rank)[:, :d]
    return chn._jam_from_kraus([v.reshape(d, rank, d)[:, e, :] for e in range(rank)], d)


def ref_residual(vec, basis):
    w = vec.astype(complex)
    for b in basis:
        w = w - b * (b.conj() @ w)
    return w


def ref_orthonormalize(vec, basis):
    w = ref_residual(ref_residual(vec, basis), basis)
    return w / np.linalg.norm(w)


def ref_complete_isometry(partial_map):
    sources = [np.asarray(s, dtype=complex).reshape(-1) for s, _ in partial_map]
    targets = [np.asarray(t, dtype=complex).reshape(-1) for _, t in partial_map]
    n = sources[0].size
    s_mat = np.stack(sources, axis=1)
    t_mat = np.stack(targets, axis=1)
    gram_dev = np.abs(s_mat.conj().T @ s_mat - t_mat.conj().T @ t_mat).max()
    assert gram_dev <= GRAM_TOL
    basis_s, basis_t = [], []
    remaining = list(range(len(sources)))
    while remaining:
        norms = [np.linalg.norm(ref_residual(sources[j], basis_s)) for j in remaining]
        best = int(np.argmax(norms))
        if norms[best] <= PIVOT_TOL:
            break
        j = remaining.pop(best)
        basis_s.append(ref_orthonormalize(sources[j], basis_s))
        basis_t.append(ref_orthonormalize(targets[j], basis_t))
    for basis in (basis_s, basis_t):
        for j in range(n):
            if len(basis) == n:
                break
            e = np.zeros(n, dtype=complex)
            e[j] = 1.0
            if np.linalg.norm(ref_residual(e, basis)) > PIVOT_TOL:
                basis.append(ref_orthonormalize(e, basis))
    return np.stack(basis_t, axis=1) @ np.stack(basis_s, axis=1).conj().T


# --- exact comparisons ------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("restarts", [0, 1, 8])
def test_seesaw_matches_single_restart_reference(d, m, restarts):
    for trial in range(3):
        rng = Rng(20_000 + 1000 * d + 100 * m + 10 * restarts + trial)
        gate = chn.random_channel(rng.derive(1), d, 1 + (trial * 3 + m) % (d * d))
        scs = [sup.sample(rng.derive(10 + k), d) for k in range(m)]
        if trial == 2:  # identical superchannels: the Helstrom projector is empty
            scs = [scs[0]] * m
        inst = coh.discrimination_seesaw(gate, scs, restarts=restarts, rng=rng.derive(2))
        state, povm, p, log = ref_seesaw(gate, scs, restarts, rng.derive(2))
        assert inst.p_succ == p
        assert np.array_equal(inst.input_state, state)
        assert len(inst.povm) == len(povm)
        assert all(np.array_equal(a, b) for a, b in zip(inst.povm, povm))
        assert inst.iteration_log == log
        # the race leaves p_succ within 1e-12 of every restart climbing alone
        assert abs(inst.p_succ - ref_seesaw_unmerged(gate, scs, restarts, rng.derive(2))[2]) <= 1e-12


# the instances, among the 300 of test_seesaw_leader_stops_before_the_cap,
# whose race leader still climbed at the 80-iteration cap when it took plain
# seesaw steps after a four-iteration race
_CAPPED_BEFORE = (24, 25, 46, 49, 67, 70, 82, 172, 184, 259)


def test_seesaw_leader_stops_before_the_cap(monkeypatch):
    # random M = 2 instances at d = 2-4 with 8 restarts: the leader's
    # extrapolated climb stops on its own, below SEESAW_ITERS, and loses
    # nothing against every restart climbing alone with a cap of 2,000
    for i in range(300):
        rng = Rng(908_000 + i)
        d = 2 + i % 3
        gate = chn.random_channel(rng.derive(0), d, 1 + i % (d * d))
        scs = [sup.sample(rng.derive(1 + k), d) for k in range(2)]
        inst = coh.discrimination_seesaw(gate, scs, restarts=8, rng=rng.derive(9))
        assert max(rec["iter"] for rec in inst.iteration_log) < coh.SEESAW_ITERS, i
        if i in _CAPPED_BEFORE:
            with monkeypatch.context() as mp:
                mp.setattr(coh, "SEESAW_ITERS", 2000)
                ref = ref_seesaw_unmerged(gate, scs, 8, rng.derive(9))[2]
            assert inst.p_succ >= ref - 1e-12, i


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_strategy_values_rows_match_one_row_calls(d, m):
    # the seesaw's stacked strategy value gives every row the bits of its
    # one-row call, also for the empty stack of restarts = 0
    rng = Rng(23_000 + 10 * d + m)
    lifted = coh._Lifted([chn.random_channel(rng.derive(j), d, 1 + j % (d * d)) for j in range(m)])
    n = d * d
    for k in (0, 1, 8):
        psis = np.array([haar_vector(rng.derive(100 + i), n) for i in range(2 * k)]).reshape(2, k, n)
        # two Hermitian stacks of the seesaw's shape, restarts = 0 included
        taus, povms = lifted.forward(psis[0]), lifted.forward(psis[1])
        got = coh._strategy_values(povms, taus, m)
        assert got.shape == (k,)
        for row, povm, tau in zip(got, povms, taus):
            assert row == coh._strategy_values(povm[None], tau[None], m)[0]
            assert row == ref_strategy_value(povm, tau, m)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_povm_candidate_rows_match_single_stack_reference(d, m):
    # every row of a stacked POVM step has the bits of its one-stack reference,
    # and the empty stack of restarts = 0 gives an empty (0, M, n, n) result
    rng = Rng(28_000 + 10 * d + m)
    lifted = coh._Lifted([chn.random_channel(rng.derive(j), d, 1 + j % (d * d)) for j in range(m)])
    n = d * d
    for k in (0, 1, 8):
        psis = np.array([haar_vector(rng.derive(100 + i), n) for i in range(k)]).reshape(k, n)
        taus = lifted.forward(psis)
        got = coh._povm_candidate(taus, m, n)
        assert got.shape == (k, m, n, n) and got.dtype == complex
        for row, tau in zip(got, taus):
            assert np.array_equal(row, ref_povm_candidate(tau, m, n))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_lifted_forward_matches_single_input_reference(d, m):
    # Kraus ranks differ across the M channels, so the shorter lists are zero-padded
    rng = Rng(24_000 + 10 * d + m)
    chs = [chn.random_channel(rng.derive(j), d, 1 + j % (d * d)) for j in range(m)]
    lifted = coh._Lifted(chs)
    for k in (0, 1, 8):
        psis = np.array([haar_vector(rng.derive(100 + i), d * d) for i in range(k)]).reshape(k, d * d)
        got = lifted.forward(psis)
        assert got.shape == (k, m, d * d, d * d)
        assert all(np.array_equal(out, ref_forward(lifted, psi)) for out, psi in zip(got, psis))


def test_dh_lower_never_builds_dual_matrix(monkeypatch):
    built = []

    class Recorded(coh._Lifted):
        def __init__(self, chs):
            super().__init__(chs)
            built.append(self)

    monkeypatch.setattr(coh, "_Lifted", Recorded)
    ch = chn.random_channel(Rng(25_000), 3, 2)
    coh.dh_channel_divergence_lower(ch, chn.classical_version(ch), 0.1, restarts=4, rng=Rng(1))
    assert len(built) == 1 and "dual_matrix" not in vars(built[0])
    scs = [sup.sample(Rng(25_001).derive(k), 3) for k in range(2)]
    coh.discrimination_seesaw(ch, scs, restarts=2, rng=Rng(2))
    assert len(built) == 2 and "dual_matrix" in vars(built[1])


def test_sample_and_random_channel_match_per_matrix_reference():
    for seed in range(240):
        d = 1 + seed % 4
        rank = 1 + (seed // 4) % (d * d)
        assert np.array_equal(sup.sample(Rng(26_000 + seed), d).c, ref_sample(Rng(26_000 + seed), d))
        assert np.array_equal(chn.random_channel(Rng(27_000 + seed), d, rank).jam,
                              ref_random_channel(Rng(27_000 + seed), d, rank))


def _cohering_power_channels():
    rng = Rng(29_000)
    for d in (1, 2, 3, 4):
        for rank in range(1, d * d + 1):
            for trial in range(6):
                r = rng.derive(1000 * d + 10 * rank + trial)
                ch = chn.random_channel(r.derive(0), d, rank)
                yield ch
                yield sup.apply(sup.sample(r.derive(1), d), ch)


def test_cohering_power_matches_per_basis_state_reference():
    n = 0
    for ch in _cohering_power_channels():
        for measure in coh.MEASURES:
            assert coh.cohering_power(ch, measure) == ref_cohering_power(ch, measure)
            n += 1
    assert n >= 600


def _robustness_channels():
    rng = Rng(21_000)
    for d in (1, 2, 3, 4):
        for k in range(40):
            rank = 1 + k % (d * d)  # includes rank 1 (unitary)
            yield chn.random_channel(rng.derive(100 * d + k), d, rank)
    for d in (2, 3):
        yield chn.classical_version(chn.random_channel(rng.derive(900 + d), d, d))
        yield chn.identity_channel(d)


DH_EPS = (0.0, 1e-3, 0.1, 0.5, 0.9)


def _dh_channel_pairs(d):
    """(E1, E2) pairs: a gate against its classical version, two unrelated
    gates, identical gates and, for d >= 2, the identity against the cyclic
    shift, whose outputs on the maximally entangled input are orthogonal (a
    candidate at the floor)."""
    rng = Rng(24_000 + d)
    ch = chn.random_channel(rng.derive(1), d, min(1 + d, d * d))
    other = chn.random_channel(rng.derive(2), d, d * d)
    pairs = [(ch, chn.classical_version(ch)), (ch, other), (other, other)]
    if d >= 2:
        pairs.append((chn.identity_channel(d), chn.unitary_channel(np.roll(np.eye(d), 1, axis=0))))
    return pairs


def _dh_candidate_stacks():
    """(rhos, sigmas) stacks of 1 + 8 candidates, as dh_channel_divergence_lower forms them."""
    for d in (1, 2, 3, 4):
        for k, (e1, e2) in enumerate(_dh_channel_pairs(d)):
            outs = dh_candidates(e1, e2, 8, Rng(25_000 + 10 * d + k))
            yield outs[:, 0], outs[:, 1]


def test_np_test_optima_match_single_pair_reference():
    # each pair searched alone, and each stack's minimum, bit for bit
    n = same = floor = 0
    for rhos, sigmas in _dh_candidate_stacks():
        for eps in DH_EPS:
            refs = []
            for rho, sigma in zip(rhos, sigmas):
                val = coh._np_test_min(rho[None], sigma[None], eps)
                assert val == ref_np_test_optimum(rho, sigma, eps)
                refs.append(val)
                n += 1
                same += bool(np.array_equal(rho, sigma))
                floor += val <= coh.DH_VALUE_FLOOR
            assert coh._np_test_min(rhos, sigmas, eps) == min(refs)
    assert n >= 600 and same >= 150 and floor >= 15


@pytest.mark.parametrize("restarts", [0, 1, 8])
def test_dh_lower_matches_per_candidate_max(restarts):
    for d in (1, 2, 3, 4):
        for k, (e1, e2) in enumerate(_dh_channel_pairs(d)):
            for eps in DH_EPS:
                rng = Rng(26_000 + 10 * d + k)
                got = coh.dh_channel_divergence_lower(e1, e2, eps, restarts=restarts, rng=rng)
                assert got == ref_dh_channel_divergence_lower(e1, e2, eps, restarts, rng)


def test_dh_lower_eigensolve_count(monkeypatch):
    eigh = np.linalg.eigh
    calls = [0]

    def counted(a):
        calls[0] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    e1, e2 = _dh_channel_pairs(3)[0]
    rng = Rng(27_000)
    coh.dh_channel_divergence_lower(e1, e2, 0.1, restarts=8, rng=rng)
    stacked = calls[0]
    counts = []
    for rho, sigma in dh_candidates(e1, e2, 8, rng):
        calls[0] = 0
        ref_np_test_optimum(rho, sigma, 0.1)
        counts.append(calls[0])
    assert stacked <= max(counts) + 3 < sum(counts)


def _pruned_min_matches(rhos, sigmas, eps):
    """The stacked search's minimum against the single-pair searches, bit for
    bit. Returns how many pairs its final evaluation (the last stacked eigh)
    kept."""
    singles = [coh._np_test_min(rho[None], sigma[None], eps) for rho, sigma in zip(rhos, sigmas)]
    eigh = np.linalg.eigh
    last = [0]

    def counted(a):
        if a.ndim == 3:
            last[0] = a.shape[0]
        return eigh(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", counted)
        got = coh._np_test_min(rhos, sigmas, eps)
    assert got == min(singles)
    return last[0]


def _random_state(rng, n):
    g = rng.complex_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_dh_pruning_keeps_near_tie_minimum():
    # candidates (rho, sigma_delta), sigma_delta = (1 - delta) sigma + delta tau,
    # whose optima differ from the base pair's by about delta = 1e-12 .. 1e-6
    dropped = 0
    for n in (4, 9, 16):
        for trial in range(3):
            r = Rng(28_000 + 10 * n + trial)
            rho, sigma = _random_state(r.derive(1), n), _random_state(r.derive(2), n)
            taus = [_random_state(r.derive(3 + j), n) for j in range(2)]
            sigmas = [sigma] + [(1 - delta) * sigma + delta * tau
                                for delta in (1e-12, 1e-10, 1e-8, 1e-6) for tau in taus]
            order = np.argsort(r.derive(9).uniform(size=len(sigmas)))
            sigmas = np.array(sigmas)[order]
            rhos = np.array([rho] * len(sigmas))
            for eps in (1e-3, 0.1, 0.5):
                dropped += len(rhos) - _pruned_min_matches(rhos, sigmas, eps)
    assert dropped > 0  # the margins still let clearly worse candidates go


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dh_pruning_on_ties_and_infinite_divergence(d):
    other = chn.random_channel(Rng(29_000 + d), d, d * d)
    ident, shift = chn.identity_channel(d), chn.unitary_channel(np.roll(np.eye(d), 1, axis=0))
    for eps in DH_EPS[1:]:
        rng = Rng(29_100 + d)
        # identical channels: every candidate ties at 1 - eps, none is dropped
        outs = dh_candidates(other, other, 8, rng)
        assert _pruned_min_matches(outs[:, 0], outs[:, 1], eps) == len(outs)
        got = coh.dh_channel_divergence_lower(other, other, eps, restarts=8, rng=rng)
        assert got == ref_dh_channel_divergence_lower(other, other, eps, 8, rng)
        # the maximally entangled input tells the identity from the shift: D = inf
        outs = dh_candidates(ident, shift, 8, rng)
        _pruned_min_matches(outs[:, 0], outs[:, 1], eps)
        assert coh.dh_channel_divergence_lower(ident, shift, eps, restarts=8, rng=rng) == math.inf


def test_dh_lower_pruning_probes_fewer_slices(monkeypatch):
    eigh = np.linalg.eigh
    slices = [0]

    def counted(a):
        if a.ndim == 3:
            slices[0] += a.shape[0]
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    pruned = full = 0
    for j in range(6):
        rng = Rng(30_000 + j)
        gate = chn.random_channel(rng.derive(1), 3, 1 + j)
        classical = chn.classical_version(gate)
        outs = dh_candidates(gate, classical, 8, rng.derive(2))
        slices[0] = 0
        coh.dh_channel_divergence_lower(gate, classical, 0.1, restarts=8, rng=rng.derive(2))
        pruned += slices[0]
        slices[0] = 0
        for rho, sigma in zip(outs[:, 0], outs[:, 1]):
            coh._np_test_min(rho[None], sigma[None], 0.1)
        full += slices[0]
    assert pruned <= 0.7 * full


def test_robustness_matches_reference():
    # the frozen barrier's value is primal feasible and its gap bounds its
    # suboptimality, so R lies in [ref.value - ref.gap, ref.value]; the
    # certified lower bound sits below it and the value above it
    n = zero = 0
    for ch in _robustness_channels():
        cert = coh.robustness(ch)
        value, noise, target, gap = ref_robustness(ch)
        if noise is None:
            assert cert.value == value
            assert cert.primal_dual_gap == gap
            assert np.array_equal(cert.classical_target, target)
            assert cert.noise_channel is None
            zero += 1
        else:
            assert cert.lower_bound <= value + 1e-12
            assert cert.value >= value - gap - 1e-12
        n += 1
    assert n >= 150 and zero >= 40  # every d = 1 channel is classical


def _realize_cases():
    for d in (1, 2, 3, 4):
        yield sup.identity_superchannel(d)
        yield sup.pre_post(chn.dephasing_c(np.ones((d, d))), chn.random_dephasing(Rng(58), d))
    rng = Rng(22_000)
    for d, count in ((1, 30), (2, 160), (3, 160), (4, 60)):
        for k in range(count):
            yield sup.sample(rng.derive(1000 * d + k), d)


def test_realize_matches_reference(monkeypatch):
    # realize completes the U_k and the V_i only when they are read, so they
    # are read here before the reference kernel is patched in
    cases = list(_realize_cases())
    got = [(real.us, real.vs) for real in map(sup.realize, cases)]
    monkeypatch.setattr(sup, "complete_isometry", ref_complete_isometry)
    assert len(cases) >= 400
    for sc, (us, vs) in zip(cases, got):
        ref = sup.realize(sc)
        assert len(us) == len(ref.us) and len(vs) == len(ref.vs)
        assert all(np.array_equal(a, b) for a, b in zip(us + vs, ref.us + ref.vs))


def test_images_match_the_completed_unitaries():
    # the library's V_i send the memory states to the images realize reports
    for sc in _realize_cases():
        real = sup.realize(sc)
        assert len(real.images) == sc.dim - 1
        for i, w in enumerate(real.images, start=1):
            assert np.abs(real.vs[i] @ real.memory_states - w).max() <= 1e-12


def test_memory_unitaries_match_reference(monkeypatch):
    # realize completes the U_k only when they are read, so they are read
    # here before the reference kernel is patched in; each first column is
    # the reported memory state, bit for bit
    cases = list(_realize_cases())
    got = [sup.realize(sc).us for sc in cases]
    monkeypatch.setattr(sup, "complete_isometry", ref_complete_isometry)
    for sc, us in zip(cases, got):
        ref = sup.realize(sc)
        assert len(us) == sc.dim and all(np.array_equal(a, b) for a, b in zip(us, ref.us))
        assert all(np.array_equal(u[:, 0], ref.memory_states[:, k]) for k, u in enumerate(us))


def _isometry_cases(n, rng):
    """Partial maps that realize never sends: a full unitary (k = n pairs),
    2 <= k < n pairs with a shared Gram matrix, and source sets with one
    exactly dependent vector, which the pivot stops on. The full unitary's
    sources are strided views (columns), the others contiguous."""
    u = haar_unitary(rng.derive(1), n)
    full = haar_unitary(rng.derive(2), n)
    yield list(zip(full.T, (u @ full).T))
    for k in range(2, n):
        s = np.array([haar_vector(rng.derive(100 + j), n) * (1 + j) for j in range(k)]).T
        yield list(zip(s.T, (u @ s).T))
    a, b = haar_vector(rng.derive(3), n), haar_vector(rng.derive(4), n)
    for dep in (2.0 * a, 3.0 * a + 2.0j * b, 0.5 * a - 0.25 * b):  # pivoted first, or last
        s = np.array([a, dep] if n == 1 else [a, b, dep]).T
        yield list(zip(s.T, (u @ s).T))


@pytest.mark.parametrize("n", [1, 4, 9, 16])
def test_complete_isometry_matches_reference(n):
    rng = Rng(25_000 + n)
    cases = list(_isometry_cases(n, rng))
    assert len(cases) == max(n - 2, 0) + 4
    for pairs in cases:
        w = complete_isometry(pairs)
        assert np.array_equal(w, ref_complete_isometry(pairs))
        s = np.array([p for p, _ in pairs]).T
        assert np.allclose(w @ s, np.array([t for _, t in pairs]).T, atol=1e-12)
        assert np.allclose(w.conj().T @ w, np.eye(n), atol=1e-12)

"""Coherence of states and channels under dephasing noise.

Covers the l1 and relative-entropy coherence measures, the cohering power of
a channel, the one-shot hypothesis-testing divergence D_H^eps, a bespoke
interior-point solver for the robustness of a channel against noise that
makes it classical, and a seesaw heuristic for the superchannel
discrimination game. Logarithms are base 2 throughout (bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL_PSD
from .channels import (
    Channel,
    _apply as _channel_apply,
    assert_state,
    random_channel,
    to_kraus,
    transition_matrix,
)
from .superchannels import DephasingSuperchannel, apply as super_apply, sample
from .sampling import Rng, haar_vector

L1 = "L1"
REL_ENT = "REL_ENT"
MEASURES = (L1, REL_ENT)

DH_VALUE_FLOOR = 1e-12  # optimum below this reports +inf
FEAS_TOL = 1e-8


class SolverError(RuntimeError):
    """An iterative solver failed to reach its target accuracy."""


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


def state_coherence(rho: np.ndarray, measure: str = L1, tol: float = TOL_PSD) -> float:
    """Coherence of a state in the computational basis.

    L1: sum of absolute values of off-diagonal entries. REL_ENT: entropy of
    the dephased state minus entropy of the state, in bits.
    """
    return _state_coherence(assert_state(rho, tol), measure)


def _state_coherence(rho: np.ndarray, measure: str) -> float:
    """state_coherence() without validating rho, for callers whose rho is a
    complex density matrix by construction."""
    if measure == L1:
        return float(np.abs(rho - np.diag(np.diag(rho))).sum())
    if measure == REL_ENT:
        w, _ = np.linalg.eigh(rho)
        diag = np.clip(np.diag(rho).real, 0.0, None)
        val = _entropy_bits(diag) - _entropy_bits(np.clip(w, 0.0, None))
        return max(val, 0.0)
    raise ValueError(f"unknown measure {measure!r}")


def cohering_power(ch: Channel, measure: str = L1) -> float:
    """Maximum coherence the channel creates from a basis state. The basis
    states and their images under the channel are density matrices by
    construction, so neither is re-validated."""
    d = ch.dim
    best = 0.0
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        best = max(best, _state_coherence(_channel_apply(ch, e), measure))
    return best


def hypothesis_test_divergence(rho: np.ndarray, sigma: np.ndarray, eps: float = 0.0,
                               tol: float = TOL_PSD) -> float:
    """D_H^eps(rho||sigma) = -log2 min{Tr(Q sigma) : 0<=Q<=1, Tr(Q rho)>=1-eps}.

    Solved by the operator Neyman-Pearson construction: the optimal Q is the
    positive-part projector of rho - t*sigma for the right threshold t, plus
    a fractional multiple of the boundary eigenprojector to hit the
    constraint exactly; t is found by bisection. Returns math.inf when the
    optimal error is zero (up to 1e-12), e.g. for orthogonal supports.
    """
    rho = assert_state(rho, tol)
    sigma = assert_state(sigma, tol)
    if rho.shape != sigma.shape:
        raise ValueError("states must have equal dims")
    _check_eps(eps)
    return _dh(rho, sigma, eps)


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")


def _dh(rho: np.ndarray, sigma: np.ndarray, eps: float) -> float:
    """hypothesis_test_divergence() without its argument checks, for callers
    whose states and eps are valid by construction."""
    val = _np_test_optimum(rho, sigma, eps)
    if val <= DH_VALUE_FLOOR:
        return math.inf
    return -math.log2(val)


def _np_test_optimum(rho: np.ndarray, sigma: np.ndarray, eps: float) -> float:
    """Minimized Tr(Q sigma) of the hypothesis test (the pre-log optimum)."""
    if eps < 1e-15:
        # exact: any feasible Q acts as identity on supp(rho), and the
        # support projector itself is feasible, so it is optimal
        w, v = np.linalg.eigh(rho)
        p = v[:, w > 1e-12]
        return float(np.real(np.trace(p.conj().T @ sigma @ p)))
    target = 1.0 - eps
    ev_r = np.linalg.eigvalsh(rho)
    ev_s = np.linalg.eigvalsh(sigma)
    pos = ev_s[ev_s > 1e-14]
    t_max = ev_r.max() / pos.min() if pos.size else 1e6
    t_max = min(max(t_max, 1.0), 1e6)

    def fval(t: float) -> float:
        w, v = np.linalg.eigh(rho - t * sigma)
        p = v[:, w > 0]
        if not p.size:
            return 0.0
        return float(np.real(np.trace(p.conj().T @ rho @ p)))

    lo, hi = 0.0, t_max
    if fval(hi) >= target - 1e-15:
        # constraint still satisfiable at the cap; evaluating there keeps Q
        # feasible, so the result stays a valid bound
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


class _Lifted:
    """E_m (x) I for channels E_1..E_M of one dim d, system first in the
    row-major vec (identities in discrimination_seesaw). forward(psi) stacks
    the M outputs on |psi><psi|; dual(bs) = sum_m (E_m (x) I)^dag(bs[m]) is
    one matmul of the stacked W_m^T, W_m = sum_k conj(K_k) (x) K_k, on bs
    regrouped [a,i,b,j] -> [(a,b),(i,j)]. Kraus lists are zero-padded to one
    rank, which adds only zero terms."""

    def __init__(self, chs):
        kss = [to_kraus(ch) for ch in chs]
        d, r = chs[0].dim, max(map(len, kss))
        self.ks = np.array([ks + [np.zeros((d, d))] * (r - len(ks)) for ks in kss], dtype=complex)
        w = np.einsum("mkaA,mkbB->ABmab", self.ks.conj(), self.ks)
        self.dual_matrix = w.reshape(d * d, -1)

    def forward(self, psi: np.ndarray) -> np.ndarray:
        m, r, d, _ = self.ks.shape
        a = (self.ks @ psi.reshape(d, d)).reshape(m, r, d * d)
        return a.transpose(0, 2, 1) @ a.conj()

    def dual(self, bs: np.ndarray) -> np.ndarray:
        d = self.ks.shape[-1]
        bp = bs.reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(-1, d * d)
        g = (self.dual_matrix @ bp).reshape(d, d, d, d)
        return g.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def dh_channel_divergence_lower(e1: Channel, e2: Channel, eps: float = 0.0,
                                restarts: int = 8, rng: Rng | None = None) -> float:
    """Lower bound on the channel divergence sup_rho D_H^eps((E1 (x) I)rho ||
    (E2 (x) I)rho) over pure inputs on d (x) d.

    The maximally entangled state is always a candidate; further candidates
    are Haar-random pure states with per-candidate derived seeds, so the
    bound is nondecreasing in restarts for a fixed base seed. The lifted
    output states are density matrices by construction and are not
    re-validated.
    """
    if e1.dim != e2.dim:
        raise ValueError("channels must have equal dims")
    _check_eps(eps)
    rng = Rng(0) if rng is None else rng
    d = e1.dim
    lifted = _Lifted([e1, e2])
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    candidates = [phi] + [haar_vector(rng.derive(i), d * d) for i in range(1, restarts + 1)]
    best = 0.0
    for psi in candidates:
        best = max(best, _dh(*lifted.forward(psi), eps))
        if math.isinf(best):
            break
    return best


@dataclass(frozen=True)
class RobustnessCertificate:
    """Optimal mixing weight making the channel classical, with its witnesses.

    value is R(E); noise_channel is the optimal F with (J(E) + R J(F))/(1+R)
    diagonal (None in the zero-robustness branch); classical_target is the
    transition matrix of the classical channel reached; primal_dual_gap is
    the barrier duality gap at termination.
    """

    value: float
    noise_channel: Channel | None
    classical_target: np.ndarray
    primal_dual_gap: float


def robustness(ch: Channel, gap_tol: float = 1e-8, feas_tol: float = FEAS_TOL,
               max_newton: int = 60) -> RobustnessCertificate:
    """min r >= 0 such that (J(E) + r J(F))/(1+r) is the Jamiolkowski matrix
    of a classical channel, over channels F.

    Reduction: Y = r J(F) must cancel the off-diagonal of J(E) exactly, so
    only the d^2 diagonal entries y are free, tied by the d trace-preservation
    sums y_{0k} + ... + y_{(d-1)k} = r/d and minimized via r = Tr(Y). Solved
    by a log-det barrier with Newton steps on the equality-constrained
    problem; barrier parameter grows by decades until the gap d^2/t is below
    gap_tol. Feasibility of the certificate is re-verified before returning.
    """
    d = ch.dim
    n = d * d
    jam = ch.jam
    off = jam - np.diag(np.diag(jam))
    if np.abs(off).max() < 1e-12:
        return RobustnessCertificate(0.0, None, transition_matrix(ch), 0.0)
    o = -off
    # constraints A x = 0 on x = (y, r): column sums of y equal r/d
    a = np.zeros((d, n + 1))
    for k in range(d):
        for i in range(d):
            a[k, i * d + k] = 1.0
        a[k, n] = -1.0 / d
    c0 = float(np.linalg.norm(o, 2)) + 1.0
    y = np.full(n, c0)
    r = n * c0
    t = 1.0

    def barrier(yv: np.ndarray, rv: float, tv: float) -> float:
        # scaled as r - logdet/t so line-search comparisons stay O(1) even at
        # huge t, where the raw t*r - logdet would drown decreases in roundoff
        m = np.diag(yv).astype(complex) + o
        if np.linalg.eigvalsh(m)[0] <= 0:
            return math.inf
        _sign, logdet = np.linalg.slogdet(m)
        return rv - logdet.real / tv

    while True:
        converged = False
        for _ in range(max_newton):
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
                # quadratic phase: full Newton step, backing off only to stay
                # strictly feasible
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
                # the step is below float64 resolution of the iterate, so the
                # residual decrement is roundoff noise at scale t; a decrement
                # this small keeps the duality-gap bound intact
                converged = True
                break
        if not converged:
            raise SolverError(f"robustness Newton loop stalled at t={t:.1e}")
        if n / t <= gap_tol:
            break
        t *= 10.0
    gap = n / t
    ym = np.diag(y).astype(complex) + o
    value = float(r)
    target = (d * np.real(np.diag(jam + ym)) / (1.0 + value)).reshape(d, d)
    cert = RobustnessCertificate(value, Channel(dim=d, jam=ym / value), target, gap)
    checks = check_certificate(ch, cert, feas_tol)
    if not checks["ok"]:
        raise SolverError(f"robustness certificate failed re-verification: {checks}")
    return cert


def check_certificate(ch: Channel, cert: RobustnessCertificate,
                      feas_tol: float = FEAS_TOL) -> dict:
    """Independent feasibility residuals of a robustness certificate."""
    d = ch.dim
    t = np.asarray(cert.classical_target)
    report: dict = {"value": cert.value, "gap": cert.primal_dual_gap}
    if cert.noise_channel is None:
        off = ch.jam - np.diag(np.diag(ch.jam))
        report["offdiag_residual"] = float(np.abs(off).max())
        report["psd_min_eig"] = 0.0
        report["tp_residual"] = 0.0
    else:
        yj = cert.value * cert.noise_channel.jam
        mix = ch.jam + yj
        report["offdiag_residual"] = float(np.abs(mix - np.diag(np.diag(mix))).max())
        report["psd_min_eig"] = float(np.linalg.eigvalsh(yj)[0])
        ydiag = np.real(np.einsum("ikik->ik", yj.reshape(d, d, d, d)))
        report["tp_residual"] = float(np.abs(ydiag.sum(axis=0) - cert.value / d).max())
    report["target_column_residual"] = float(np.abs(t.sum(axis=0) - 1.0).max())
    report["target_min_entry"] = float(t.min())
    report["ok"] = bool(
        report["psd_min_eig"] >= -feas_tol
        and report["offdiag_residual"] <= feas_tol
        and report["tp_residual"] <= feas_tol
        and report["target_column_residual"] <= feas_tol
        and report["target_min_entry"] >= -feas_tol
        and cert.primal_dual_gap <= feas_tol
        and cert.value >= -feas_tol
    )
    return report


GRID_CHUNK = 200_000  # grid points per batched eigensolve
GRID_COARSE = 40  # coarse scan is GRID_COARSE x GRID_COARSE interior points


def _grid_smin(o: np.ndarray, al: np.ndarray, be: np.ndarray) -> np.ndarray:
    """s(alpha, beta) = max(0, -lambda_min(D^-1/2 O D^-1/2)) with
    D = diag(alpha, beta, 1 - alpha, 1 - beta), at each point (al[i], be[i]).

    Where a diagonal entry of D is zero (the square's edges) its row and
    column are dropped, or s = inf if O has mass in that row. Points are
    grouped by which entries are zero and each group is one batched
    eigensolve, in chunks of at most GRID_CHUNK points.
    """
    diag = np.stack([al, be, 1 - al, 1 - be], axis=1)
    zero = diag <= 1e-15
    pattern = zero @ (1 << np.arange(4))
    out = np.empty(al.size)
    for key in np.unique(pattern):
        idx = np.flatnonzero(pattern == key)
        gone = zero[idx[0]]
        if np.any(np.abs(o[gone, :]) > 1e-15):
            out[idx] = math.inf  # forced zero diagonal cannot cover off-diagonal mass
            continue
        keep = ~gone
        on = o[np.ix_(keep, keep)]
        for s0 in range(0, idx.size, GRID_CHUNK):
            sel = idx[s0 : s0 + GRID_CHUNK]
            dinv = 1.0 / np.sqrt(diag[np.ix_(sel, keep)])
            ms = on[None, :, :] * dinv[:, :, None] * dinv[:, None, :]
            out[sel] = np.maximum(0.0, -np.linalg.eigvalsh(ms)[:, 0])
    return out


def robustness_grid(ch: Channel, resolution: float = 1e-3) -> float:
    """Brute-force oracle for robustness at d=2: the two free diagonal
    fractions (alpha, beta) of the noise are taken on the grid
    {0, resolution, ..., 1} and the minimal PSD scale s(alpha, beta) is
    computed per point; R = 2 min s, accurate to about the grid resolution.

    The value is the minimum over the whole grid, but only part of the grid
    is visited. s is quasiconvex: its sublevel set {s <= t} is
    {(alpha, beta): t D(alpha, beta) + O >= 0}, an LMI affine in
    (alpha, beta), hence convex. So if every point on the boundary of a
    window is strictly above the window's minimum m, no point outside the
    window goes below m: the segment from it to the window's minimiser would
    stay in {s <= m} and cross the boundary at or below m. The square's four
    edges (alpha or beta in {0, 1}) are always evaluated in full. The
    interior is scanned on a coarse GRID_COARSE x GRID_COARSE grid, then at
    full resolution in a window around the coarse minimum whose half-width
    doubles until every window side not on the interior's border is
    strictly above the window minimum; a window that reaches the whole
    interior is the exhaustive scan. The stop test looks at grid points
    only, so a sublevel set could in principle pass between two
    neighbouring boundary points; requiring strict inequality means ties
    and plateaus keep the window growing, which guards against a dip
    between neighbouring edge points of equal value.
    """
    if not (math.isfinite(resolution) and 0.0 < resolution <= 0.5):
        raise ValueError(f"grid resolution must be finite and in (0, 0.5], got {resolution!r}")
    d = ch.dim
    if d != 2:
        raise ValueError("grid oracle only implemented for d=2")
    jam = ch.jam
    o = -(jam - np.diag(np.diag(jam)))
    if np.abs(o).max() < 1e-12:
        return 0.0
    steps = int(round(1.0 / resolution))
    fr = np.linspace(0.0, 1.0, steps + 1)

    def smin(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        return _grid_smin(o, fr[ia.ravel()], fr[ib.ravel()]).reshape(ia.shape)

    every = np.arange(steps + 1)
    ends = np.array([0, steps])
    best = float(min(smin(*np.meshgrid(ends, every, indexing="ij")).min(),
                     smin(*np.meshgrid(every, ends, indexing="ij")).min()))

    lo, hi = 1, steps - 1
    coarse = np.unique(np.linspace(lo, hi, GRID_COARSE).round().astype(int))
    vals = smin(*np.meshgrid(coarse, coarse, indexing="ij"))
    ka, kb = np.unravel_index(np.argmin(vals), vals.shape)
    ca, cb = int(coarse[ka]), int(coarse[kb])
    half = max(1, math.ceil((hi - lo) / (GRID_COARSE - 1)))
    while True:
        a0, a1 = max(lo, ca - half), min(hi, ca + half)
        b0, b1 = max(lo, cb - half), min(hi, cb + half)
        win = smin(*np.meshgrid(np.arange(a0, a1 + 1), np.arange(b0, b1 + 1), indexing="ij"))
        m = win.min()
        sides = [side for side, inner in ((win[0], a0 > lo), (win[-1], a1 < hi),
                                          (win[:, 0], b0 > lo), (win[:, -1], b1 < hi)) if inner]
        if all(side.min() > m for side in sides):
            break
        half *= 2
    return 2.0 * min(best, float(m))


@dataclass(frozen=True)
class DiscriminationInstance:
    """Best strategy found for distinguishing M dephasing superchannels
    applied to a known gate, with one side of a maximally entangled probe.

    p_succ is the evaluated success probability of the stored strategy and a
    lower bound on the optimum; iteration_log holds {restart, iter,
    objective} records, nondecreasing within each restart.
    """

    gate: Channel
    superchannels: tuple[DephasingSuperchannel, ...]
    input_state: np.ndarray
    povm: tuple[np.ndarray, ...]
    p_succ: float
    iteration_log: tuple[dict, ...]


def _povm_candidate(taus: np.ndarray, m: int, n: int) -> np.ndarray:
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


def _strategy_value(povm: np.ndarray, taus: np.ndarray, m: int) -> float:
    return float(np.einsum("mij,mji->", povm, taus).real) / m


def discrimination_seesaw(gate: Channel, scs, restarts: int = 32,
                          rng: Rng | None = None, iters: int = 40) -> DiscriminationInstance:
    """Alternating optimization of the input state and POVM for discriminating
    uniformly-chosen dephasing superchannels acting on a fixed gate.

    Restart 0 starts from the maximally entangled input; the POVM step uses
    the exact Helstrom projector for M=2 and the pretty-good measurement for
    larger M, accepted only when it improves; the input step takes the top
    eigenvector of the effective observable. Every reported value is the
    evaluated success probability of an explicit strategy.

    The outputs E_m = Xi_m[gate] act as E_m (x) I (_Lifted) by two identities:
    (E (x) I)(|psi><psi|) = sum_k vec(K_k Psi) vec(K_k Psi)^dag for psi = vec(Psi),
    and the dual sum_k (K_k (x) I)^dag B (K_k (x) I) acts on B's system indices
    alone, through the d^2 x d^2 matrix sum_k conj(K_k) (x) K_k.
    """
    scs = tuple(scs)
    m = len(scs)
    if m < 2:
        raise ValueError("need at least two superchannels")
    rng = Rng(0) if rng is None else rng
    d = gate.dim
    if any(sc.dim != d for sc in scs):
        raise ValueError("all superchannels must match the gate dim")
    n = d * d
    lifted = _Lifted([super_apply(sc, gate) for sc in scs])
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    uniform = np.stack([np.eye(n, dtype=complex) / m] * m)
    best_psi, best_povm = phi, uniform
    best_val = _strategy_value(uniform, lifted.forward(phi), m)
    logs: list[dict] = []
    for rs in range(restarts):
        psi = phi.copy() if rs == 0 else haar_vector(rng.derive(rs), n)
        povm = cur_povm = uniform
        taus = lifted.forward(psi)
        cur, cur_psi = _strategy_value(povm, taus, m), psi
        logs.append({"restart": rs, "iter": 0, "objective": cur})
        for it in range(1, iters + 1):
            cand = _povm_candidate(taus, m, n)
            cand_val = _strategy_value(cand, taus, m)
            if cand_val > cur:
                povm = cur_povm = cand
                cur, cur_psi = cand_val, psi
            w, v = np.linalg.eigh(lifted.dual(povm) / m)
            if w[-1] > cur + 1e-15:
                psi = v[:, -1]
                taus = lifted.forward(psi)
                cur = _strategy_value(povm, taus, m)
                cur_psi = psi
            logs.append({"restart": rs, "iter": it, "objective": cur})
            if it > 2 and logs[-1]["objective"] - logs[-3]["objective"] < 1e-13:
                break
        if cur > best_val:
            best_val, best_psi, best_povm = cur, cur_psi, cur_povm
    p = _strategy_value(best_povm, lifted.forward(best_psi), m)
    return DiscriminationInstance(gate, scs, np.outer(best_psi, best_psi.conj()),
                                  tuple(best_povm), p, tuple(logs))


def robustness_bound_check(inst: DiscriminationInstance, cert: RobustnessCertificate,
                           tol: float = FEAS_TOL) -> dict:
    """Check M * p_succ <= 1 + R for a discrimination instance against the
    robustness certificate of its gate."""
    m = len(inst.superchannels)
    lhs = m * inst.p_succ
    rhs = 1.0 + cert.value
    return {
        "m": m,
        "p_succ": inst.p_succ,
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "ok": bool(lhs <= rhs + tol),
    }


def monotonicity_suite(rng: Rng, trials: int, d: int, measure: str = L1,
                       tol: float = 1e-9) -> dict:
    """Monte Carlo check that dephasing superchannels never increase the
    cohering power of a channel. Reports the worst signed violation and the
    distribution of the slack cohering_power(E) - cohering_power(Xi[E])."""
    gaps = []
    worst = -math.inf
    violations = 0
    for trial in range(trials):
        rt = rng.derive(1000 * trial)
        sc = sample(rt, d)
        rank = 1 + int(rt.derive(500).integers(0, d * d))
        ch = random_channel(rt.derive(501), d, rank)
        before = cohering_power(ch, measure)
        after = cohering_power(super_apply(sc, ch), measure)
        gap = before - after
        gaps.append(gap)
        worst = max(worst, after - before)
        if after > before + tol:
            violations += 1
    qs = np.quantile(np.array(gaps), [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "trials": trials,
        "dim": d,
        "measure": measure,
        "violations": violations,
        "max_violation": worst,
        "gap_quantiles": [float(q) for q in qs],
        "ok": violations == 0,
    }

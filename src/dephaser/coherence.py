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
from functools import cached_property

import numpy as np

from .channels import Channel, assert_state, to_kraus, transition_matrix
from .superchannels import DephasingSuperchannel, apply as super_apply
from .sampling import Rng, haar_vector

L1 = "L1"
REL_ENT = "REL_ENT"
MEASURES = (L1, REL_ENT)

DH_VALUE_FLOOR = 1e-12  # optimum below this reports +inf
FEAS_TOL = 1e-8
GAP_TOL = 1e-8  # certified duality gap value - lower_bound at which robustness stops
MAX_PD_ITERS = 25  # primal-dual iterations per robustness call before SolverError
SEESAW_ITERS = 80  # steps per seesaw restart; at M = 2 a backstop on the leader's extrapolated cycles
_RACE_ITERS = 1  # M = 2: iterations all restarts run before only the leading one goes on


class SolverError(RuntimeError):
    """An iterative solver failed to reach its target accuracy."""


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


def state_coherence(rho: np.ndarray, measure: str = L1) -> float:
    """Coherence of a state in the computational basis.

    L1: sum of absolute values of off-diagonal entries. REL_ENT: entropy of
    the dephased state minus entropy of the state, in bits.
    """
    return _state_coherence(assert_state(rho), measure)


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
    """Maximum coherence the channel creates from a basis state. The images
    E(|k><k|) = d J[(ik),(jk)] are all read from one slice of the
    Jamiolkowski matrix; they are density matrices by construction, so none
    is re-validated."""
    d = ch.dim
    images = d * np.einsum("ikjk->kij", ch.jam.reshape(d, d, d, d))
    return max([0.0] + [_state_coherence(rho, measure) for rho in images])


def hypothesis_test_divergence(rho: np.ndarray, sigma: np.ndarray, eps: float = 0.0) -> float:
    """D_H^eps(rho||sigma) = -log2 min{Tr(Q sigma) : 0<=Q<=1, Tr(Q rho)>=1-eps}.

    Solved by the operator Neyman-Pearson construction: the optimal Q is the
    positive-part projector of rho - t*sigma for the right threshold t, plus
    a fractional multiple of the boundary eigenprojector to hit the
    constraint exactly. t is found by a safeguarded Newton search on
    h(t) = Tr(P+(t) rho), keeping a bracket h(lo) >= 1-eps > h(hi) (up to
    1e-15) until hi - lo <= 1e-12 max(1, lo). Each step is the nearer of the
    smooth Newton step and the step that moves the eigenvalue next to zero,
    on the root's side, to zero (an optimum on a jump of h); a step leaving
    the bracket, or two steps not halving it, fall back to bisection.
    Returns math.inf when the optimal error is zero (up to 1e-12), e.g. for
    orthogonal supports.

    For pure rho and sigma at eps below about 1e-9 the optimum is accurate
    only to about 1e-7 relative: it has a square-root cusp in eps,
    beta(eps) = (sqrt((1-eps)F) - sqrt(eps(1-F)))^2 with F the fidelity, so
    the 1e-15 slack of the feasibility test acts like a change of eps of
    that size.
    """
    rho = assert_state(rho)
    sigma = assert_state(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("states must have equal dims")
    _check_eps(eps)
    return _bits(_np_test_min(rho[None], sigma[None], eps))


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")


def _bits(val: float) -> float:
    """-log2 of a pre-log optimum, math.inf at or below DH_VALUE_FLOOR."""
    return math.inf if val <= DH_VALUE_FLOOR else -math.log2(val)


def _np_test_min(rhos: np.ndarray, sigmas: np.ndarray, eps: float) -> float:
    """Smallest minimized Tr(Q sigma) (pre-log optimum) of the hypothesis
    tests of the pairs (rhos[i], sigmas[i]) of two (k, n, n) stacks. Every
    search keeps its own scalar step logic (_np_search); each round probes
    the searches still bracketing with one stacked eigh of rho_i - t_i sigma_i
    and one stacked congruence, and numpy's stacked eigh and matmul give
    every slice the bits of the 2-D call, so each pair's optimum is
    bit-identical to a search run alone.

    For k > 1 a pair that provably cannot attain the minimum leaves the
    search and skips the final evaluation (see dh_channel_divergence_lower
    for the bounds and margins); a lone pair has nothing to prune."""
    if eps < 1e-15:
        # exact: any feasible Q acts as identity on supp(rho), and the
        # support projector itself is feasible, so it is optimal
        ws, vs = np.linalg.eigh(rhos)
        best = math.inf
        for w, v, sigma in zip(ws, vs, sigmas):
            p = v[:, w > 1e-12]
            best = min(best, float((p.conj().T @ sigma @ p).trace().real))
        return best
    target = 1.0 - eps
    ev_r = np.linalg.eigvalsh(rhos)
    ev_s = np.linalg.eigvalsh(sigmas)
    k, n = rhos.shape[:2]
    ulps = n * np.finfo(float).eps
    # roundoff of the positive-part sum: n ulps of ||rho|| + t ||sigma||
    round_r, round_s = ulps * np.abs(ev_r).max(-1), ulps * np.abs(ev_s).max(-1)
    lower, upper = np.full(k, -math.inf), math.inf
    kept = np.ones(k, dtype=bool)
    pairs = np.stack([rhos, sigmas], axis=1)  # (k, 2, n, n): one matmul pair maps rho and sigma together
    searches = [_np_search(er, es, target) for er, es in zip(ev_r, ev_s)]
    ts = [s.send(None) for s in searches]
    brackets = [(0.0, 0.0)] * k
    live = list(range(k))
    while live:
        rs = pairs if len(live) == k else pairs[live]
        t = np.array(ts)
        w, v = np.linalg.eigh(rs[:, 0] - t[:, None, None] * rs[:, 1])
        congruent = v.conj().swapaxes(-1, -2)[:, None] @ rs @ v[:, None]
        if k > 1:  # the bounds of dh_channel_divergence_lower at this probe
            h, mass = (congruent.diagonal(0, -2, -1).real * (w > 0)[:, None]).sum(-1).T
            slack = 1e-12 + round_r[live] + t * round_s[live]
            lower[live] = np.maximum(lower[live], (target - slack - np.maximum(w, 0.0).sum(-1)) / t)
            upper = min(upper, float(np.where(h >= target - 1e-15, mass, math.inf).min()))
            kept &= lower <= upper + 1e-9 * abs(upper) + ulps
        still, ts = [], []
        for i, wi, (ri, si) in zip(live, w, congruent):
            if not kept[i]:
                continue
            try:
                ts.append(searches[i].send((wi, ri, si)))
                still.append(i)
            except StopIteration as done:
                brackets[i] = done.value
        live = still
    idx = np.flatnonzero(kept)
    if idx.size < k:
        rhos, sigmas, ev_s = rhos[idx], sigmas[idx], ev_s[idx]
    ts = np.array([0.5 * (lo + hi) for lo, hi in (brackets[i] for i in idx)])
    ws, vs = np.linalg.eigh(rhos - ts[:, None, None] * sigmas)
    best = math.inf
    for i, es, w, v, rho, sigma in zip(idx, ev_s, ws, vs, rhos, sigmas):
        lo, hi = brackets[i]
        band = max(1e-13, 10.0 * (hi - lo) * max(1.0, np.abs(es).max()))
        p = v[:, w > band]
        bm = v[:, np.abs(w) <= band]
        g = float((p.conj().T @ rho @ p).trace().real)
        gb = float((bm.conj().T @ rho @ bm).trace().real)
        need = target - g
        if need <= 1e-12:
            x = 0.0
        elif gb <= need:
            x = 1.0
        else:
            x = need / gb
        pv = float((p.conj().T @ sigma @ p).trace().real)
        vb = float((bm.conj().T @ sigma @ bm).trace().real)
        best = min(best, pv + x * vb)
    return best


def _np_probe(w: np.ndarray, r: np.ndarray, s: np.ndarray, target: float) -> tuple[bool, float]:
    """Whether h(t) = Tr(P+ rho) meets the target, and the signed step toward
    the root (see hypothesis_test_divergence), from the eigenvalues w of
    rho - t sigma with eigenvectors V, r = V^H rho V and s = V^H sigma V."""
    j = int(w.searchsorted(0.0, "right"))  # w[j:] > 0 >= w[:j]
    h = float(r[j:, j:].trace().real)
    feasible = h >= target - 1e-15
    side = 1.0 if feasible else -1.0
    k = j if feasible else j - 1
    step = abs(w[k]) / s[k, k].real if 0 <= k < w.size and s[k, k].real > 0 else math.inf
    dh = -2.0 * float(((s[j:, :j] * r[j:, :j].conj()).real / (w[j:, None] - w[:j])).sum())
    if dh < 0:
        step = min(step, max(0.0, side * (target - h) / dh))
    return feasible, side * step


def _np_search(ev_r: np.ndarray, ev_s: np.ndarray, target: float):
    """One pair's threshold search, from the spectra of rho and sigma, as a
    generator: it yields each t to probe, is sent (w, r, s) at that t (see
    _np_probe), and returns the final bracket (lo, hi)."""
    pos = ev_s[ev_s > 1e-14]
    t_max = ev_r.max() / pos.min() if pos.size else 1e6
    lo, hi = 0.0, float(min(max(t_max, 1.0), 1e6))
    feasible, step = _np_probe(*(yield hi), target)
    if feasible:
        # constraint still satisfiable at the cap; evaluating there keeps Q
        # feasible, so the result stays a valid bound
        return hi, hi
    # a step under half the stop width goes half the width past the
    # iterate, closing the bracket from the far side; the first such step
    # is exempt from the test that two steps halve the bracket
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
        feasible, step = _np_probe(*(yield t), target)
        if feasible:
            lo = t
        else:
            hi = t
    return lo, hi


class _Lifted:
    """E_m (x) I for channels E_1..E_M of one dim d, system first in the
    row-major vec (identities in discrimination_seesaw), on stacks of k
    inputs. forward(psis) maps (k, d^2) pure inputs to the (k, M, d^2, d^2)
    outputs on |psi><psi|: one (M r d, d) @ (d, d) product per input forms
    K Psi for all M r stacked Kraus operators K at once. dual(bs) maps
    (k, M, d^2, d^2) to the (k, d^2, d^2) sums sum_m (E_m (x) I)^dag(bs[:, m]),
    one matmul per input of the stacked W_m^T, W_m = sum_k conj(K_k) (x) K_k,
    on bs regrouped [a,i,b,j] -> [(a,b),(i,j)]; that matrix (dual_matrix) is
    built on first use, so forward-only callers never build it. Each slice
    is the arithmetic of a lone input, bit for bit. Kraus lists are
    zero-padded to one rank, which adds only zero terms."""

    def __init__(self, chs):
        kss = [to_kraus(ch) for ch in chs]
        d, r = chs[0].dim, max(map(len, kss))
        self.ks = np.array([ks + [np.zeros((d, d))] * (r - len(ks)) for ks in kss], dtype=complex)

    @cached_property
    def dual_matrix(self) -> np.ndarray:
        d = self.ks.shape[-1]
        return np.einsum("mkaA,mkbB->ABmab", self.ks.conj(), self.ks).reshape(d * d, -1)

    def forward(self, psis: np.ndarray) -> np.ndarray:
        m, r, d, _ = self.ks.shape
        k = len(psis)
        a = (self.ks.reshape(-1, d) @ psis.reshape(k, d, d)).reshape(k, m, r, d * d)
        return a.transpose(0, 1, 3, 2) @ a.conj()

    def dual(self, bs: np.ndarray) -> np.ndarray:
        d = self.ks.shape[-1]
        k = len(bs)
        bp = bs.reshape(k, -1, d, d, d, d).transpose(0, 1, 2, 4, 3, 5).reshape(k, -1, d * d)
        g = (self.dual_matrix @ bp).reshape(k, d, d, d, d)
        return g.transpose(0, 1, 3, 2, 4).reshape(k, d * d, d * d)


def dh_channel_divergence_lower(e1: Channel, e2: Channel, eps: float = 0.0,
                                restarts: int = 8, rng: Rng | None = None) -> float:
    """Lower bound on the channel divergence sup_rho D_H^eps((E1 (x) I)rho ||
    (E2 (x) I)rho) over pure inputs on d (x) d.

    The maximally entangled state is always a candidate; further candidates
    are Haar-random pure states with per-candidate derived seeds, so the
    bound is nondecreasing in restarts for a fixed base seed. The lifted
    output states are density matrices by construction and are not
    re-validated. All candidates run one stacked threshold search
    (_np_test_min): each round is one batched eigh over the candidates
    still bracketing, and every candidate's value is bit-identical to its
    own hypothesis_test_divergence search.

    Only the maximum D_H, the smallest pre-log optimum, is wanted, so the
    search is a branch-and-bound over the candidates. Each probe at a threshold t bounds the candidate's
    optimal type-II error beta from the eigenvalues w of rho - t sigma and
    the congruent rho and sigma it already has, with no extra eigensolve:
    weak duality gives beta >= (1 - eps - sum_{w>0} w)/t, an upper bound on
    its D_H, and where the projector P+ onto w > 0 is feasible,
    beta <= Tr(P+ sigma), a lower bound. The sum is first raised by a
    roundoff allowance of n ulps of ||rho|| + t ||sigma|| (n = d^2) and by
    the 1e-12 feasibility slack of the final evaluation. After each round a
    candidate whose lower bound on beta is above the smallest feasible
    Tr(P+ sigma) so far, plus a relative margin of 1e-9 and n ulps, cannot
    hold the maximum: it leaves the search and skips the final evaluation.
    The candidates kept run unchanged, so the maximum has the same bits as
    without the pruning.
    """
    if e1.dim != e2.dim:
        raise ValueError("channels must have equal dims")
    _check_eps(eps)
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    rng = Rng(0) if rng is None else rng
    d = e1.dim
    lifted = _Lifted([e1, e2])
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    psis = np.array([phi] + [haar_vector(rng.derive(i), d * d) for i in range(1, restarts + 1)])
    outs = lifted.forward(psis)
    return max(0.0, _bits(_np_test_min(outs[:, 0], outs[:, 1], eps)))


@dataclass(frozen=True)
class RobustnessCertificate:
    """Optimal mixing weight making the channel classical, with primal and
    dual witnesses that check_certificate verifies without the solver.

    value is R(E), attained by the primal witness: noise_channel is the
    optimal F with (J(E) + R J(F))/(1+R) diagonal (None in the
    zero-robustness branch) and classical_target is the transition matrix of
    the classical channel reached (a report omits noise_channel: R J(F) =
    (1 + R) Diag(vec T)/d - J(E) for T = classical_target). dual is a
    dual-feasible Z (Z >= 0 and Z_(ik)(ik) = nu_k with sum_k nu_k = d), so
    lower_bound = tr(Z offdiag J(E)) <= R(E) by weak duality;
    primal_dual_gap is the certified width value - lower_bound.
    """

    value: float
    noise_channel: Channel | None
    classical_target: np.ndarray
    lower_bound: float
    dual: np.ndarray

    @property
    def primal_dual_gap(self) -> float:
        return self.value - self.lower_bound


def robustness(ch: Channel, gap_tol: float = GAP_TOL,
               feas_tol: float = FEAS_TOL) -> RobustnessCertificate:
    """min r >= 0 such that (J(E) + r J(F))/(1+r) is the Jamiolkowski matrix
    of a classical channel, over channels F.

    Reduction: Y = r J(F) must cancel the off-diagonal of J(E) exactly, so
    only the d^2 diagonal entries y are free, tied by the d trace-preservation
    sums y_{0k} + ... + y_{(d-1)k} = r/d and minimized via r = Tr(Y): the
    primal is X = diag(y) + O >= 0 with O = -offdiag J(E). Its dual (Napoli
    et al., PRL 116, 150502, 2016) maximizes tr(Z offdiag J(E)) over Z >= 0
    with Z_(ik)(ik) = nu_k and sum_k nu_k = d, and the gap is <X, Z>.

    Solved by a feasible-start primal-dual path-following method from
    y = c0 1, Z = I: each iteration takes the HKM direction with a Mehrotra
    predictor-corrector (sigma = (mu_aff/mu)^3), and each cone takes 0.98 of
    its distance to the boundary. An iteration makes one stacked Cholesky of
    (X, Z) and one inverse of the KKT matrix [[H, A^T], [A, 0]], which the
    predictor and the corrector share; the matrix is built once, and an
    iteration rewrites H = Re(X^-1 o Z^T) only. Once <X, Z> <= gap_tol, Z is
    rescaled to exact dual feasibility (_repair_dual), and the method stops
    when the certified gap value - lower_bound is at most gap_tol. A lost
    Cholesky, or MAX_PD_ITERS iterations short of gap_tol, raises
    SolverError naming the gap reached. The certificate is re-verified
    before returning.
    """
    d = ch.dim
    n = d * d
    jam = ch.jam
    off = jam - np.diag(np.diag(jam))
    if np.abs(off).max() < 1e-12:
        return RobustnessCertificate(0.0, None, transition_matrix(ch), 0.0, np.eye(n, dtype=complex))
    o = -off
    # constraints A x = 0 on x = (y, r): column sums of y equal r/d
    a = np.hstack([np.tile(np.eye(d), d), np.full((d, 1), -1.0 / d)])
    c0 = float(np.linalg.norm(o, 2)) + 1.0
    r = n * c0
    # (X, Z) in one stack; O's diagonal is zero, so y is a strided view of X's
    xz = np.stack([o + c0 * np.eye(n), np.eye(n, dtype=complex)])
    x, z = xz
    y = xz.reshape(2, -1)[0, :: n + 1]
    cong = np.empty_like(xz)
    # KKT [[H, A^T], [A, 0]] [dx; -dlambda] = [Re diag(R); 0], with dZ = herm(R - X^-1 dX Z)
    kkt = np.block([[np.zeros((n + 1, n + 1)), a.T], [a, np.zeros((d, d))]])

    def direction(res: np.ndarray):
        dx = kinv[: n + 1, :n] @ res.diagonal().real
        dz = res - (xi * dx[:n]) @ z
        return dx, 0.5 * (dz + dz.conj().T)

    gap = math.inf
    try:
        for _ in range(MAX_PD_ITERS):
            lis = np.linalg.inv(np.linalg.cholesky(xz))
            mu = float(np.vdot(x, z).real) / n
            gap = n * mu  # <X, Z>, the duality gap up to roundoff
            if gap <= gap_tol:
                zd = _repair_dual(z, d)
                lower = float(np.vdot(off, zd).real)
                gap = r - lower
                if gap <= gap_tol:
                    break
            lih = lis.conj().transpose(0, 2, 1)
            xi = lih[0] @ lis[0]
            kkt[:n, :n] = (xi * z.T).real
            kinv = np.linalg.inv(kkt)
            dxa, dza = direction(-z)
            ap, ad = _step_lengths(lis, lih, cong, dxa[:n], dza, 1.0)
            mu_aff = float(np.vdot(x + ap * np.diag(dxa[:n]), z + ad * dza).real) / n
            sigma = (mu_aff / mu) ** 3
            dx, dz = direction(sigma * mu * xi - z - xi @ (dxa[:n, None] * dza))
            ap, ad = _step_lengths(lis, lih, cong, dx[:n], dz, 0.98)
            y += ap * dx[:n]
            r = r + ap * dx[n]
            z += ad * dz
        else:
            raise SolverError(f"robustness stopped at gap {gap:.1e} after {MAX_PD_ITERS} iterations")
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"robustness lost positive definiteness at gap {gap:.1e}: {exc}") from None
    value = float(r)
    target = (d * np.real(np.diag(jam + x)) / (1.0 + value)).reshape(d, d)
    cert = RobustnessCertificate(value, Channel(dim=d, jam=x / value), target, lower, zd)
    checks = check_certificate(ch, cert, feas_tol, gap_tol)
    if not checks["ok"]:
        raise SolverError(f"robustness certificate failed re-verification: {checks}")
    return cert


def _step_lengths(lis: np.ndarray, lih: np.ndarray, cong: np.ndarray, dy: np.ndarray,
                  dz: np.ndarray, frac: float) -> list[float]:
    """min(1, frac * the largest s keeping X + s diag(dy) and Z + s dZ PSD),
    for X and Z in turn, from lis = (Lx^-1, Lz^-1) of X = Lx Lx^H and
    Z = Lz Lz^H and lih = their conjugate transposes: the two congruent steps
    are written into cong for one stacked eigvalsh."""
    np.matmul(lis[0] * dy, lih[0], out=cong[0])
    np.matmul(lis[1] @ dz, lih[1], out=cong[1])
    w = np.linalg.eigvalsh(cong)[:, 0]
    return [min(1.0, -frac / v) if v < 0 else 1.0 for v in w]


def _repair_dual(z: np.ndarray, d: int) -> np.ndarray:
    """D Z D with D_(ik) = sqrt(nu_k / Z_(ik)(ik)), nu_k the mean of group
    k's diagonal scaled to sum_k nu_k = d: exactly dual-feasible, and PSD
    whenever Z is (a congruence)."""
    diag = z.diagonal().real.reshape(d, d)
    nu = diag.mean(axis=0)
    s = np.sqrt(nu * (d / nu.sum()) / diag).reshape(-1)
    return s[:, None] * z * s


def check_certificate(ch: Channel, cert: RobustnessCertificate,
                      feas_tol: float = FEAS_TOL, gap_tol: float = GAP_TOL) -> dict:
    """Independent residuals of a certificate. ok holds the primal witness
    (noise PSD, off-diagonal cancelled, trace preserving, target
    column-stochastic) and the dual Z (PSD, Z_(ik)(ik) = nu_k equal within
    each group k, sum_k nu_k = d) to feas_tol. The gap is recomputed as
    value - tr(Z offdiag J(E)) and must lie in [-feas_tol, gap_tol], and the
    stored lower_bound may not exceed what Z certifies by more than feas_tol.
    """
    d = ch.dim
    t = np.asarray(cert.classical_target)
    off = ch.jam - np.diag(np.diag(ch.jam))
    z = np.asarray(cert.dual)
    bound = float(np.vdot(off, z).real)
    zdiag = z.diagonal().real.reshape(d, d)
    nu = zdiag.mean(axis=0)
    report: dict = {"value": cert.value, "lower_bound": cert.lower_bound, "gap": cert.value - bound}
    if cert.noise_channel is None:
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
    report["dual_min_eig"] = float(np.linalg.eigvalsh(z)[0])
    report["dual_diag_residual"] = float(max(np.abs(zdiag - nu).max(), abs(nu.sum() - d)))
    report["lower_bound_excess"] = cert.lower_bound - bound
    report["ok"] = bool(
        report["psd_min_eig"] >= -feas_tol
        and report["offdiag_residual"] <= feas_tol
        and report["tp_residual"] <= feas_tol
        and report["target_column_residual"] <= feas_tol
        and report["target_min_entry"] >= -feas_tol
        and report["dual_min_eig"] >= -feas_tol
        and report["dual_diag_residual"] <= feas_tol
        and report["lower_bound_excess"] <= feas_tol
        and -feas_tol <= report["gap"] <= gap_tol
        and cert.value >= -feas_tol
    )
    return report


GRID_CHUNK = 200_000  # grid points per batched eigensolve
GRID_COARSE = 12  # each zoom level scans GRID_COARSE x GRID_COARSE interior points
_GRID_RES_MIN = 1e-6  # peak memory is about 250 MB here and grows about tenfold per finer decade


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
    edges (alpha or beta in {0, 1}) are always evaluated in full.

    The interior is searched coarse-to-fine. A GRID_COARSE x GRID_COARSE
    lattice spans the whole interior; each zoom level lays the same lattice
    over plus or minus one lattice spacing around the previous level's
    minimum, so the spacing shrinks by about (GRID_COARSE - 1) / 2 per
    level, until a level's lattice holds every grid point of its window.
    The zoom only chooses where the certification window is centred: that
    window is scanned at full resolution from half-width 2, its half-width
    doubling until every window side not on the interior's border is
    strictly above the window minimum; a window that reaches the whole
    interior is the exhaustive scan. The stop test looks at grid points
    only, so a sublevel set could in principle pass between two
    neighbouring boundary points; requiring strict inequality means ties
    and plateaus keep the window growing, which guards against a dip
    between neighbouring edge points of equal value.
    """
    if not (math.isfinite(resolution) and _GRID_RES_MIN <= resolution <= 0.5):
        raise ValueError(f"grid resolution must be finite and in [{_GRID_RES_MIN}, 0.5], "
                         f"got {resolution!r}")
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
    ca, cb, half = lo, lo, hi - lo  # the first level's window is the whole interior
    while True:
        a0, a1 = max(lo, ca - half), min(hi, ca + half)
        b0, b1 = max(lo, cb - half), min(hi, cb + half)
        la = np.unique(np.linspace(a0, a1, GRID_COARSE).round().astype(int))
        lb = np.unique(np.linspace(b0, b1, GRID_COARSE).round().astype(int))
        vals = smin(*np.meshgrid(la, lb, indexing="ij"))
        ka, kb = np.unravel_index(np.argmin(vals), vals.shape)
        ca, cb = int(la[ka]), int(lb[kb])
        spacing = max(a1 - a0, b1 - b0) / (GRID_COARSE - 1)
        if spacing <= 1.0:
            break
        half = math.ceil(spacing)
    half = 2
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

    The strategy is the input vector psi (input_state = psi psi^dag) and the
    POVM. p_succ is the raw evaluated success probability of that strategy,
    never clipped, and a lower bound on the optimum; roundoff can put it
    above 1 by up to M n^2 ulps (n = d^2), the tie rule's margin.
    iteration_log holds {restart, iter, objective, joined} records,
    nondecreasing within each restart. joined is None except in the last
    record of a restart retired when the M = 2 restarts' race ends (see
    discrimination_seesaw), where it is the index of the leader, the one
    restart that runs on; the leader's records after the race count its
    extrapolated cycles, not single steps.
    """

    gate: Channel
    superchannels: tuple[DephasingSuperchannel, ...]
    input_vector: np.ndarray
    povm: tuple[np.ndarray, ...]
    p_succ: float
    iteration_log: tuple[dict, ...]

    @property
    def input_state(self) -> np.ndarray:
        return np.outer(self.input_vector, self.input_vector.conj())


def _povm_candidate(taus: np.ndarray, m: int, n: int) -> np.ndarray:
    """Helstrom (m = 2) or pretty-good (m > 2) POVM per (M, n, n) slice, from
    one batched eigh; the Helstrom pairs are written into one (k, 2, n, n) array."""
    w, v = np.linalg.eigh(taus[:, 0] - taus[:, 1] if m == 2 else taus.sum(axis=1) / m)
    if m == 2:
        out = np.empty((len(taus), 2, n, n), dtype=complex)
        # + 0.0 turns the -0.0 entries of an empty projector into +0.0
        out[:, 0] = (v * (w > 0)[:, None, :]) @ v.conj().swapaxes(-1, -2) + 0.0
        np.subtract(np.eye(n), out[:, 0], out=out[:, 1])
        return out
    winv = np.where(w > 1e-12, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    si = (v * winv[:, None, :]) @ v.conj().transpose(0, 2, 1)
    # np.array + reshape, not np.stack, so that an empty stack keeps its (0, n, n) shape
    pker = np.array([np.eye(n) - s @ s.conj().T for s in (vi[:, wi > 1e-12] for wi, vi in zip(w, v))],
                    dtype=complex).reshape(len(w), n, n)
    return si[:, None] @ (taus / m) @ si[:, None] + pker[:, None] / m


def _strategy_values(povms: np.ndarray, taus: np.ndarray, m: int) -> np.ndarray:
    """(1/m) Re Tr(P_j T_j) summed over j, per row of (k, M, n, n) stacks, as
    one row-wise dot of the float views (Re P Re T + Im P Im T, which is
    Re Tr(P T) for Hermitian T); each row has the bits of its one-row call."""
    k, width = len(povms), 2 * math.prod(povms.shape[1:])
    return (povms.view(float).reshape(k, width) * taus.view(float).reshape(k, width)).sum(-1) / m


def discrimination_seesaw(gate: Channel, scs, restarts: int = 32,
                          rng: Rng | None = None) -> DiscriminationInstance:
    """Alternating optimization of the input state and POVM for discriminating
    uniformly-chosen dephasing superchannels acting on a fixed gate.

    Restart 0 starts from the maximally entangled input; the POVM step uses
    the exact Helstrom projector for M=2 and the pretty-good measurement for
    larger M, accepted only when it improves; the input step takes the top
    eigenvector of the effective observable. Every reported value is the
    evaluated success probability of an explicit strategy.

    All restarts advance as one array program: one row-wise strategy value
    (_strategy_values) per step for the whole stack, acceptance and input
    moves as masks over the running restarts, objectives in a
    (restarts, SEESAW_ITERS + 1) array with a vectorized stop test, and the
    iteration_log records built from it once, at the end. The running
    restarts' rows are kept compacted, so the steps see contiguous stacks;
    a restart's rows go back to the full arrays when it stops. Each
    restart's arithmetic is its own, bit for bit as if it ran alone. An
    iteration in which no restart's input moves skips the forward map.

    Race rule (M = 2 only): all restarts run one iteration together; then
    every one but the highest-valued (on a tie, the lowest index) is retired:
    it keeps its log, whose last record names the leader in joined, and is
    never the reported strategy. The leader climbs alone by extrapolated
    cycles on its system marginal sigma = Psi Psi^dag (_climb). The premise:
    with the Helstrom POVM the value depends on psi through sigma alone, as
    1/2 + 1/2 g(sigma), g(sigma) = max_{0 <= W <= I (x) sigma} Tr(W C_Delta)
    for the Choi difference C_Delta of the two outputs, and g is concave in
    sigma (Watrous, Theory of Computing 5, 2009): every restart climbs to
    the same maximum, and any density matrix sigma' is met at vec(sqrt(sigma')).

    Tie rule: restarts are taken in index order, and one replaces the
    incumbent (first the baseline: maximally entangled input, uniform POVM)
    only if its value is higher by more than the value's own roundoff,
    M n^2 ulps of the incumbent's value (n = d^2), so a restart that ends a
    few ulps above the baseline in roundoff does not displace it.

    The outputs E_m = Xi_m[gate] act as E_m (x) I (_Lifted) by two identities:
    (E (x) I)(|psi><psi|) = sum_k vec(K_k Psi) vec(K_k Psi)^dag for psi = vec(Psi),
    and the dual sum_k (K_k (x) I)^dag B (K_k (x) I) acts on B's system indices
    alone, through the d^2 x d^2 matrix sum_k conj(K_k) (x) K_k.
    """
    scs = tuple(scs)
    m = len(scs)
    if m < 2:
        raise ValueError("need at least two superchannels")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    rng = Rng(0) if rng is None else rng
    d = gate.dim
    if any(sc.dim != d for sc in scs):
        raise ValueError("all superchannels must match the gate dim")
    n = d * d
    lifted = _Lifted([super_apply(sc, gate) for sc in scs])
    phi = (np.eye(d).reshape(-1) / np.sqrt(d)).astype(complex)
    uniform = np.stack([np.eye(n, dtype=complex) / m] * m)
    best_psi, best_povm = phi, uniform
    best_val = float(_strategy_values(uniform[None], lifted.forward(phi[None]), m)[0])
    psi = np.array([phi] + [haar_vector(rng.derive(rs), n) for rs in range(1, restarts)])[:restarts]
    taus = lifted.forward(psi)
    povm = np.repeat(uniform[None], restarts, axis=0)
    cur = _strategy_values(povm, taus, m)
    objs = np.empty((restarts, SEESAW_ITERS + 1))  # each restart's objective after iteration 0, 1, ...
    objs[:, 0] = cur
    last = np.full(restarts, SEESAW_ITERS)  # each restart's final iteration
    joined = np.full(restarts, -1)  # the leading restart each retired restart joined, else -1
    ids, psi_a, taus_a, povm_a, cur_a, objs_a = np.arange(restarts), psi, taus, povm, cur, objs
    for it in range(1, SEESAW_ITERS + 1):
        if not ids.size:
            break
        cand = _povm_candidate(taus_a, m, n)
        cand_val = _strategy_values(cand, taus_a, m)
        better = cand_val > cur_a
        povm_a[better], cur_a[better] = cand[better], cand_val[better]
        w, v = np.linalg.eigh(lifted.dual(povm_a) / m)
        up = w[:, -1] > cur_a + 1e-15
        if up.any():
            sel = slice(None) if up.all() else up
            psi_a[sel] = v[sel, :, -1]
            taus_a[sel] = lifted.forward(psi_a[sel])
            cur_a[sel] = _strategy_values(povm_a[sel], taus_a[sel], m)
        objs_a[:, it] = cur_a
        done = objs_a[:, it] - objs_a[:, it - 2] < 1e-13 if it > 2 else np.zeros(ids.size, dtype=bool)
        if m == 2 and it == _RACE_ITERS and (live := np.flatnonzero(~done)).size:
            lead = live[cur_a[live].argmax()]  # the first maximum: on a tie, the lowest index
            behind = live[live != lead]
            joined[ids[behind]] = ids[lead]
            done[behind] = True
        if done.any():
            gone = ids[done]
            psi[gone], povm[gone], cur[gone], objs[gone], last[gone] = \
                psi_a[done], povm_a[done], cur_a[done], objs_a[done], it
            keep = ~done
            ids, psi_a, taus_a, povm_a, cur_a, objs_a = \
                ids[keep], psi_a[keep], taus_a[keep], povm_a[keep], cur_a[keep], objs_a[keep]
        if m == 2 and it == _RACE_ITERS and ids.size:  # the leader climbs alone
            psi_a[0], povm_a[0], cur_a[0], last[ids[0]] = _climb(lifted, psi_a[0], povm_a[0], objs_a[0], it)
            break
    psi[ids], povm[ids], cur[ids], objs[ids] = psi_a, povm_a, cur_a, objs_a
    joins = [None if j < 0 else j for j in joined.tolist()]
    for i, val in enumerate(cur.tolist()):
        if joins[i] is None and val > best_val + m * n * n * math.ulp(best_val):
            best_val, best_psi, best_povm = val, psi[i], povm[i]
    p = float(_strategy_values(best_povm[None], lifted.forward(best_psi[None]), m)[0])
    log = tuple({"restart": rs, "iter": it, "objective": obj, "joined": joins[rs] if it == end else None}
                for rs, end in enumerate(last.tolist())
                for it, obj in enumerate(objs[rs, :end + 1].tolist()))
    return DiscriminationInstance(gate, scs, best_psi, tuple(best_povm), p, log)


def _climb(lifted: _Lifted, psi: np.ndarray, povm: np.ndarray, objs: np.ndarray, it: int):
    """The M = 2 leader's climb from the strategy (psi, povm) of value
    objs[it] by safeguarded SQUAREM (Varadhan & Roland, Scand. J. Stat. 35,
    2008) on sigma = Psi Psi^dag. A cycle, logged in objs[it + 1], ..., takes
    two seesaw steps sigma0 -> sigma1 -> sigma2, goes to sigma0 - 2 a r +
    a^2 v (r = sigma1 - sigma0, v = sigma2 - 2 sigma1 + sigma0,
    a = min(-1, -|r|/|v|)) clipped to a density matrix, and scores psi2 and
    vec(sqrt(sigma')) with their Helstrom POVMs in one stack; the higher is
    kept if it beats the strategy. Stops when a cycle gains under 1e-13 or
    at SEESAW_ITERS; returns the strategy, its value and the last index."""
    d = lifted.ks.shape[-1]
    cur = objs[it]
    hel = _povm_candidate(lifted.forward(psi[None]), 2, d * d)  # steers the first step
    for it in range(it + 1, SEESAW_ITERS + 1):
        psi1 = np.linalg.eigh(lifted.dual(hel) / 2)[1][0, :, -1]
        hel = _povm_candidate(lifted.forward(psi1[None]), 2, d * d)
        psi2 = np.linalg.eigh(lifted.dual(hel) / 2)[1][0, :, -1]
        s0, s1, s2 = (x.reshape(d, d) @ x.reshape(d, d).conj().T for x in (psi, psi1, psi2))
        r, v = s1 - s0, s2 - 2.0 * s1 + s0
        a = min(-1.0, -np.linalg.norm(r) / nv) if (nv := np.linalg.norm(v)) > 0 else -1.0
        w, u = np.linalg.eigh(s0 - 2.0 * a * r + a * a * v)
        w = np.maximum(w, 0.0)
        trial = np.stack([psi2, ((u * np.sqrt(w / w.sum())) @ u.conj().T).reshape(-1)])
        taus = lifted.forward(trial)
        cands = _povm_candidate(taus, 2, d * d)
        vals = _strategy_values(cands, taus, 2)
        j = int(vals.argmax())  # on a tie psi2
        gain = vals[j] - cur
        if gain > 0:
            psi, povm, cur, hel = trial[j], cands[j], float(vals[j]), cands[j:j + 1]
        objs[it] = cur
        if gain < 1e-13:
            break
    return psi, povm, cur, it


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


"""End-to-end verification suite.

Twelve numbered acceptance checks covering the shipped fixtures, the
defining invariances, realization round trips, solver cross-checks against
independent oracles, and the discrimination bound chain. Each check returns
(passed, margin, tolerance, detail): the measured margin and the tolerance
it was held to; run_all reports it as a CriterionResult named after the
check's function. Tolerances come from a named table so individual entries can be overridden
(useful as a negative control: absurdly tight values must produce failures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as chn
from . import coherence as coh
from . import superchannels as ssc
from . import fixtures as fx
from .linalg import TOL_PSD, TOL_UNIT, herm_eig, partial_transpose
from .sampling import Rng, random_state

DEFAULT_TOLERANCES = {
    "unit": TOL_UNIT,
    "psd": TOL_PSD,
    "exact": 1e-12,
    "roundtrip": 1e-9,
    "spectrum": 1e-10,
    "mono": 1e-9,
    "feas": coh.FEAS_TOL,
    "gap": coh.GAP_TOL,
    "dh": 1e-8,
    "seesaw": 1e-9,
    "grid": 1e-3,
}


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    margin: float
    tolerance: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    trials: int | None = None  # None = full counts; otherwise cap per loop
    tol: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def count(self, full: int) -> int:
        if self.trials is None:
            return full
        return max(1, min(full, int(self.trials)))

    def rng(self, cid: int) -> Rng:
        return Rng(self.seed).derive(cid * 10_000_019)


def _random_stochastic(rng: Rng, d: int) -> np.ndarray:
    t = rng.uniform(size=(d, d)) + 1e-3
    return t / t.sum(axis=0)


def _trials(cfg: VerifyConfig, cid: int, full: int, offset: int = 0):
    """(d, stream) for cfg.count(full) trials at d = 2, then at d = 3."""
    for d in (2, 3):
        rng = cfg.rng(cid).derive(d)
        for trial in range(cfg.count(full)):
            yield d, rng.derive(1000 * trial + offset)


def _pair(rt: Rng, d: int):
    """A trial's sampled superchannel and random channel of random rank."""
    rank = 1 + int(rt.derive(500).integers(0, d * d))
    return ssc.sample(rt, d), chn.random_channel(rt.derive(501), d, rank)


def _c1_fixture_npt_spectrum(cfg: VerifyConfig):
    tol = cfg.tol["spectrum"]
    sc = fx.three_level_npt_superchannel()
    pt = partial_transpose(sc.c, (3, 3), 2)
    w, _ = herm_eig(pt)
    dev = abs(float(w.min()) - (1.0 - math.sqrt(2.0)))
    psd_ok = bool(herm_eig(sc.c)[0][0] >= -cfg.tol["psd"])
    diag_dev = float(np.abs(np.diag(sc.c) - 1.0).max())
    passed = dev <= tol and psd_ok and diag_dev <= cfg.tol["psd"]
    return passed, dev, tol, {
        "pt_min_eig": float(w.min()),
        "expected": 1.0 - math.sqrt(2.0),
        "fixture_psd": psd_ok,
        "diag_deviation": diag_dev,
    }


def _c2_qubit_ppt(cfg: VerifyConfig):
    rng = cfg.rng(2)
    n = cfg.count(1000)
    floor = -cfg.tol["psd"]
    tol = cfg.tol["spectrum"]
    worst_eig = math.inf
    worst_mismatch = 0.0
    for trial in range(n):
        sc = ssc.sample(rng.derive(1000 * trial), 2)
        mc = ssc.memory_class(sc)
        worst_eig = min(worst_eig, mc.ppt_min_eig)
        spec_c = np.linalg.eigvalsh(sc.c)
        spec_pt = np.linalg.eigvalsh(partial_transpose(sc.c, (2, 2), 2))
        worst_mismatch = max(worst_mismatch, float(np.abs(np.sort(spec_c) - np.sort(spec_pt)).max()))
    passed = worst_eig >= floor and worst_mismatch <= tol
    return passed, worst_mismatch, tol, {
        "trials": n,
        "min_ppt_eig": worst_eig,
        "ppt_floor": floor,
        "spectrum_mismatch": worst_mismatch,
    }


def _c3_hadamard_steering(cfg: VerifyConfig):
    tol = cfg.tol["spectrum"]
    had = fx.hadamard_channel()
    sc = fx.qubit_sign_flip_superchannel()
    out = ssc.apply(sc, had)
    rho = chn.apply(out, np.diag([1.0, 0.0]).astype(complex))
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    fidelity = float(np.real(minus.conj() @ rho @ minus))
    inst = coh.discrimination_seesaw(
        had, [ssc.identity_superchannel(2), sc], restarts=cfg.count(8), rng=cfg.rng(3))
    fid_deficit = 1.0 - fidelity
    p_deficit = 1.0 - inst.p_succ
    passed = fid_deficit <= tol and p_deficit <= cfg.tol["seesaw"]
    return passed, max(fid_deficit, p_deficit), tol, {
        "fidelity": fidelity,
        "p_succ": inst.p_succ,
        "seesaw_tol": cfg.tol["seesaw"],
    }


def _c4_transition_invariance(cfg: VerifyConfig):
    tol = cfg.tol["exact"]
    worst = 0.0
    total = 0
    for d, rt in _trials(cfg, 4, 100):
        sc, ch = _pair(rt, d)
        out = ssc.apply(sc, ch)
        chn.check_channel(out, cfg.tol["psd"])
        dev = float(np.abs(chn.transition_matrix(out) - chn.transition_matrix(ch)).max())
        worst = max(worst, dev)
        total += 1
    return worst <= tol, worst, tol, {
        "pairs": total,
        "cptp_tol": cfg.tol["psd"],
    }


def _c5_realization_roundtrip(cfg: VerifyConfig):
    tol = cfg.tol["roundtrip"]
    worst = 0.0
    worst_unit = 0.0
    cases = [ssc.sample(rt, d) for d, rt in _trials(cfg, 5, 50)]
    cases.append(fx.three_level_npt_superchannel())
    for sc in cases:
        real = ssc.realize(sc)
        rebuilt = ssc.from_unitaries(real.us, real.vs)
        worst = max(worst, float(np.abs(rebuilt.c - sc.c).max()))
        m = sc.dim * sc.dim
        for w in (*real.us, *real.vs):
            worst_unit = max(worst_unit, float(np.abs(w.conj().T @ w - np.eye(m)).max()))
    passed = worst <= tol and worst_unit <= cfg.tol["unit"]
    return passed, worst, tol, {
        "cases": len(cases),
        "unitarity_deviation": worst_unit,
        "unit_tol": cfg.tol["unit"],
    }


def _c6_dephasing_closure(cfg: VerifyConfig):
    tol = cfg.tol["exact"]
    worst = 0.0
    worst_contraction = 0.0
    total = 0
    for d, rt in _trials(cfg, 6, 100):
        sc = ssc.sample(rt, d)
        dc = chn.random_dephasing(rt.derive(600), d)
        lhs = ssc.apply(sc, chn.dephasing_channel(dc)).jam
        res = ssc.act_on_dephasing(sc, dc)
        rhs = chn.dephasing_channel(res).jam
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        growth = float((np.abs(res.c) - np.abs(dc.c)).max())
        worst_contraction = max(worst_contraction, growth)
        total += 1
    passed = worst <= tol and worst_contraction <= tol
    return passed, worst, tol, {
        "pairs": total,
        "max_contraction_excess": worst_contraction,
    }


def _c7_cohering_monotonicity(cfg: VerifyConfig):
    tol = cfg.tol["mono"]
    r2 = coh.monotonicity_suite(cfg.rng(7).derive(2), cfg.count(1000), 2, coh.L1, tol)
    r3 = coh.monotonicity_suite(cfg.rng(7).derive(3), cfg.count(200), 3, coh.L1, tol)
    worst = max(r2["max_violation"], r3["max_violation"])
    passed = r2["ok"] and r3["ok"]
    return passed, worst, tol, {
        "d2": r2,
        "d3": r3,
    }


def _c8_classical_invariance(cfg: VerifyConfig):
    tol = cfg.tol["exact"]
    worst_fix = 0.0
    worst_sandwich = 0.0
    pairs = 0
    for d, rt in _trials(cfg, 8, 100):
        sc = ssc.sample(rt, d)
        et = chn.classical_channel(_random_stochastic(rt.derive(600), d))
        out = ssc.apply(sc, et)
        worst_fix = max(worst_fix, float(np.abs(out.jam - et.jam).max()))
        pairs += 1
    deltas = {d: chn.completely_dephasing(d) for d in (2, 3)}
    for d, rt in _trials(cfg, 8, 50, offset=251):
        sc, ch = _pair(rt, d)
        sandwich = chn.compose(deltas[d], chn.compose(ssc.apply(sc, ch), deltas[d]))
        dev = float(np.abs(sandwich.jam - chn.classical_version(ch).jam).max())
        worst_sandwich = max(worst_sandwich, dev)
    worst = max(worst_fix, worst_sandwich)
    return worst <= tol, worst, tol, {
        "fixed_point_deviation": worst_fix,
        "sandwich_deviation": worst_sandwich,
        "pairs": pairs,
    }


def _c9_robustness_sdp(cfg: VerifyConfig):
    tol = cfg.tol["grid"]
    rng = cfg.rng(9)
    cases = [fx.hadamard_channel()]
    for trial in range(cfg.count(20)):
        rt = rng.derive(1000 * trial)
        rank = 1 + int(rt.derive(1).integers(0, 4))
        cases.append(chn.random_channel(rt, 2, rank))
    worst = 0.0
    worst_feas = 0.0
    for ch in cases:
        cert = coh.robustness(ch, gap_tol=cfg.tol["gap"], feas_tol=cfg.tol["feas"])
        grid = coh.robustness_grid(ch, resolution=tol)
        worst = max(worst, abs(cert.value - grid))
        checks = coh.check_certificate(ch, cert, cfg.tol["feas"], cfg.tol["gap"])
        worst_feas = max(worst_feas, checks["offdiag_residual"], checks["tp_residual"],
                         -checks["psd_min_eig"], checks["target_column_residual"],
                         -checks["dual_min_eig"], checks["dual_diag_residual"])
    t = _random_stochastic(rng.derive(777), 2)
    classical_value = coh.robustness(chn.classical_channel(t)).value
    passed = worst <= tol and worst_feas <= cfg.tol["feas"] and classical_value == 0.0
    return passed, worst, tol, {
        "cases": len(cases),
        "worst_feasibility_residual": worst_feas,
        "classical_value": classical_value,
    }


def _c10_bound_chain(cfg: VerifyConfig):
    rng = cfg.rng(10)
    lo_tol = cfg.tol["seesaw"]
    hi_tol = cfg.tol["feas"]
    n = cfg.count(100)
    worst_lo = -math.inf
    worst_hi = -math.inf
    for trial in range(n):
        rt = rng.derive(1000 * trial)
        m = 2 + int(rt.derive(1).integers(0, 2))
        rank = 1 + int(rt.derive(2).integers(0, 4))
        gate = chn.random_channel(rt.derive(3), 2, rank)
        scs = [ssc.sample(rt.derive(10 + i), 2) for i in range(m)]
        inst = coh.discrimination_seesaw(gate, scs, restarts=6, rng=rt.derive(99))
        cert = coh.robustness(gate, gap_tol=cfg.tol["gap"], feas_tol=cfg.tol["feas"])
        report = coh.robustness_bound_check(inst, cert, hi_tol)
        worst_lo = max(worst_lo, 1.0 / m - inst.p_succ)
        worst_hi = max(worst_hi, report["lhs"] - report["rhs"])
    passed = worst_lo <= lo_tol and worst_hi <= hi_tol
    return passed, worst_hi, hi_tol, {
        "instances": n,
        "worst_lower_deficit": worst_lo,
        "lower_tol": lo_tol,
    }


def _c11_hypothesis_test(cfg: VerifyConfig):
    rng = cfg.rng(11)
    worst_eq = 0.0
    for trial in range(cfg.count(5)):
        rho = random_state(rng.derive(100 + trial), 3)
        for eps in (0.0, 0.1, 0.5):
            got = coh.hypothesis_test_divergence(rho, rho.copy(), eps)
            worst_eq = max(worst_eq, abs(got - (-math.log2(1.0 - eps))))
    worst_lp = 0.0
    for trial in range(cfg.count(60)):
        rt = rng.derive(2000 + 17 * trial)
        n = 2 + int(rt.derive(1).integers(0, 3))
        p = rt.derive(2).uniform(size=n) + 0.01
        p /= p.sum()
        q = rt.derive(3).uniform(size=n) + 0.01
        q /= q.sum()
        eps = float(rt.derive(4).uniform() * 0.9)
        got = coh.hypothesis_test_divergence(np.diag(p).astype(complex),
                                             np.diag(q).astype(complex), eps)
        val = 0.0 if math.isinf(got) else 2.0 ** (-got)
        worst_lp = max(worst_lp, abs(val - _lp_oracle_diag(p, q, eps)))
    worst_dp = -math.inf
    for trial in range(cfg.count(100)):
        rt = rng.derive(90000 + 31 * trial)
        rho = random_state(rt.derive(1), 3)
        sig = random_state(rt.derive(2), 3)
        lam = chn.random_channel(rt.derive(3), 3, 9)
        eps = float(rt.derive(4).uniform() * 0.7)
        d1 = coh.hypothesis_test_divergence(rho, sig, eps)
        d2 = coh.hypothesis_test_divergence(chn.apply(lam, rho), chn.apply(lam, sig), eps)
        worst_dp = max(worst_dp, d2 - d1)
    tol = cfg.tol["dh"]
    passed = worst_eq <= cfg.tol["spectrum"] and worst_lp <= tol and worst_dp <= tol
    return passed, max(worst_lp, worst_dp), tol, {
        "equal_states_deviation": worst_eq,
        "equal_states_tol": cfg.tol["spectrum"],
        "lp_oracle_deviation": worst_lp,
        "data_processing_excess": worst_dp,
    }


def _c12_dual_paths(cfg: VerifyConfig):
    tol = cfg.tol["exact"]
    worst_super = 0.0
    worst_apply = 0.0
    worst_prepost = 0.0
    for d, rt in _trials(cfg, 12, 50):
        sc, ch = _pair(rt, d)
        a = ssc.apply(sc, ch).jam
        b = ssc.apply_via_super_jam(sc, ch).jam
        worst_super = max(worst_super, float(np.abs(a - b).max()))
        rho = random_state(rt.derive(502), d)
        via_k = chn.apply(ch, rho, via="kraus")
        via_j = chn.apply(ch, rho, via="jam")
        worst_apply = max(worst_apply, float(np.abs(via_k - via_j).max()))
        c1 = chn.random_dephasing(rt.derive(503), d)
        c2 = chn.random_dephasing(rt.derive(504), d)
        lhs = ssc.apply(ssc.pre_post(c1, c2), ch).jam
        rhs = chn.compose(chn.dephasing_channel(c2),
                          chn.compose(ch, chn.dephasing_channel(c1))).jam
        worst_prepost = max(worst_prepost, float(np.abs(lhs - rhs).max()))
    worst = max(worst_super, worst_apply, worst_prepost)
    return worst <= tol, worst, tol, {
        "super_jam_deviation": worst_super,
        "apply_deviation": worst_apply,
        "pre_post_deviation": worst_prepost,
    }


def _lp_oracle_diag(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Exact optimum of the hypothesis test for diagonal states: fill Q along
    ascending q_i/p_i until the constraint is met, fractionally at the end."""
    order = sorted(range(len(p)), key=lambda i: (q[i] / p[i] if p[i] > 0 else math.inf))
    need = 1.0 - eps
    cost = 0.0
    for i in order:
        if need <= 1e-18:
            break
        take = min(1.0, need / p[i]) if p[i] > 0 else 0.0
        cost += take * q[i]
        need -= take * p[i]
    return cost


CRITERIA = [
    _c1_fixture_npt_spectrum,
    _c2_qubit_ppt,
    _c3_hadamard_steering,
    _c4_transition_invariance,
    _c5_realization_roundtrip,
    _c6_dephasing_closure,
    _c7_cohering_monotonicity,
    _c8_classical_invariance,
    _c9_robustness_sdp,
    _c10_bound_chain,
    _c11_hypothesis_test,
    _c12_dual_paths,
]


def run_all(seed: int = 0, trials: int | None = None, tolerances: dict | None = None):
    """Run every acceptance criterion; never raises — failures (including
    exceptions from deliberately broken tolerances) become failed results."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tol.update(tolerances)
    cfg = VerifyConfig(seed=seed, trials=trials, tol=tol)
    results = []
    for cid, fn in enumerate(CRITERIA, start=1):
        name = fn.__name__.split("_", 2)[-1].replace("_", "-")
        try:
            res = CriterionResult(cid, name, *fn(cfg))
        except Exception as exc:
            res = CriterionResult(cid, name, False, math.nan, math.nan,
                                  {"error": f"{type(exc).__name__}: {exc}"})
        results.append(res)
    return results

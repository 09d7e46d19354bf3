"""Acceptance gate: the twelve numbered end-to-end checks at full counts.

One test per criterion; each prints a single PASS/FAIL line with the
measured margin next to the tolerance it was held to (visible with -s,
or automatically on failure). The whole battery shares one run_all call
so the suite stays inside the runtime budget. The mutation table at the end
runs verify at --trials 2 once per injected fault, so that each criterion is
shown to fail when the code it guards is wrong.
"""

import dataclasses

import pytest

from dephaser import channels as chn
from dephaser import coherence as coh
from dephaser import superchannels as ssc
from dephaser import verify


@pytest.fixture(scope="module")
def results():
    out = verify.run_all(seed=0, trials=None)
    assert len(out) == 12
    return {r.cid: r for r in out}


def check(results, cid):
    r = results[cid]
    status = "PASS" if r.passed else "FAIL"
    print(f"criterion {r.cid:2d} {r.name}: {status} "
          f"(margin {r.margin:.3e}, tol {r.tolerance:.1e})")
    assert r.passed, r.detail


def test_criterion_01_fixture_npt_spectrum(results):
    check(results, 1)


def test_criterion_02_qubit_ppt(results):
    check(results, 2)


def test_criterion_03_hadamard_steering(results):
    check(results, 3)


def test_criterion_04_transition_invariance(results):
    check(results, 4)


def test_criterion_05_realization_roundtrip(results):
    check(results, 5)


def test_criterion_06_dephasing_closure(results):
    check(results, 6)


def test_criterion_07_cohering_monotonicity(results):
    check(results, 7)


def test_criterion_08_classical_invariance(results):
    check(results, 8)


def test_criterion_09_robustness_sdp(results):
    check(results, 9)


def test_criterion_10_bound_chain(results):
    check(results, 10)


def test_criterion_11_hypothesis_test(results):
    check(results, 11)


def test_criterion_12_dual_paths(results):
    check(results, 12)


def test_raising_criterion_keeps_its_name(monkeypatch):
    # a criterion that raises is reported under its function name, which
    # must match the name the criterion reports when it returns
    names = [r.name for r in verify.run_all(seed=0, trials=1)]

    def raising(fn):
        def stub(cfg):
            raise RuntimeError("forced")
        stub.__name__ = fn.__name__
        return stub

    monkeypatch.setattr(verify, "CRITERIA", [raising(fn) for fn in verify.CRITERIA])
    rows = verify.run_all(seed=0, trials=1)
    assert [r.name for r in rows] == names
    for r in rows:
        assert r.passed is False
        assert r.detail["error"] == "RuntimeError: forced"


def test_too_fine_grid_resolution_fails_only_criterion_9():
    # the grid oracle refuses a resolution below its floor before building
    # any grid, so criterion 9 fails with that error and the others run
    rows = verify.run_all(seed=0, trials=1, tolerances={"grid": 1e-9})
    failed = {r.cid: r.detail for r in rows if not r.passed}
    assert list(failed) == [9]
    assert failed[9]["error"] == ("ValueError: grid resolution must be finite and in "
                                  "[1e-06, 0.5], got 1e-09")


class _HighCertificate(coh.RobustnessCertificate):
    """A robustness certificate whose value is stored 1e-6 high."""

    def __init__(self, value, *rest):
        super().__init__(value + 1e-6, *rest)


def _p_succ_raised(inst):
    return dataclasses.replace(inst, p_succ=inst.p_succ + 0.5)


def _npt_reads_plus_tol(memory_class):
    # the NPT test with `< tol` in place of `< -tol`
    def faulty(sc, tol=ssc.TOL_PSD):
        mc = memory_class(sc, tol)
        return dataclasses.replace(mc, label="NPT") if mc.ppt_min_eig < tol else mc
    return faulty


# (module, attribute, fault applied to the original, criteria that must fail).
# verify reaches the library through its module aliases, so patching the
# module attribute reaches verify (herm_eig, partial_transpose and
# random_state are imported into verify by name and would be patched there).
# Faults that cannot show on full-rank samples, such as the rank floor of
# gram_vectors, belong in the rank-deficient tests, not in this table.
MUTATIONS = {
    "none": (None, None, None, set()),
    "xi-reads-c-transposed": (ssc, "apply", lambda f: lambda sc, ch, tol=None:
                              f(dataclasses.replace(sc, c=sc.c.T), ch), {6, 12}),
    "apply-reads-rho-transposed": (chn, "apply", lambda f: lambda ch, rho: f(ch, rho.T), {12}),
    "robustness-reported-high": (coh, "RobustnessCertificate", lambda f: _HighCertificate, {9, 10}),
    "correlation-conjugated": (ssc, "_correlation", lambda f: lambda us, vs: f(us, vs).conj(), {5}),
    "l1-cohering-power-halved": (coh, "cohering_power", lambda f: lambda ch, measure=coh.L1:
                                 f(ch, measure) / (2.0 if measure == coh.L1 else 1.0), {7}),
    "transition-matrix-transposed": (chn, "transition_matrix", lambda f: lambda ch: f(ch).T, {4}),
    "npt-test-reads-plus-tol": (ssc, "memory_class", _npt_reads_plus_tol, {1}),
    "seesaw-p-succ-raised": (coh, "discrimination_seesaw", lambda f: lambda *a, **k:
                             _p_succ_raised(f(*a, **k)), {10}),
}


@pytest.mark.parametrize("fault", list(MUTATIONS))
def test_mutation_table(monkeypatch, fault):
    # each one-line fault makes its named criteria fail at --trials 2; the
    # unpatched code fails none
    module, name, patch, expected = MUTATIONS[fault]
    if module is not None:
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
    failed = {r.cid for r in verify.run_all(seed=7, trials=2) if not r.passed}
    assert expected <= failed if expected else not failed, failed

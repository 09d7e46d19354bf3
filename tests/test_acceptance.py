"""Acceptance gate: the twelve numbered end-to-end checks at full counts.

One test per criterion; each prints a single PASS/FAIL line with the
measured margin next to the tolerance it was held to (visible with -s,
or automatically on failure). The whole battery shares one run_all call
so the suite stays inside the runtime budget.
"""

import pytest

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

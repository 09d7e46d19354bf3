import re

import numpy as np
import pytest

from dephaser import channels as chn
from dephaser.linalg import partial_trace
from dephaser.sampling import Rng, random_state

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


def test_from_kraus_identity():
    ch = chn.from_kraus([np.eye(2)])
    psi = np.zeros((4, 1), dtype=complex)
    psi[0, 0] = psi[3, 0] = 1.0
    assert np.abs(ch.jam - (psi @ psi.conj().T) / 2).max() < 1e-14


def test_from_kraus_dephasing_projectors():
    ks = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ch = chn.from_kraus(ks)
    assert np.abs(ch.jam - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-14


def test_from_kraus_rejects_non_tp():
    with pytest.raises(ValueError):
        chn.from_kraus([np.diag([1.0, 0.5])])


def _with_entry(m, value):
    m = np.array(m, dtype=complex)
    m[0, 1] = value
    return m


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("build", [
    lambda v: chn.from_kraus([_with_entry(HAD, v)]),
    lambda v: chn.classical_channel(_with_entry([[0.5, 0.5], [0.5, 0.5]], v).real),
    lambda v: chn.unitary_channel(_with_entry(HAD, v)),
], ids=["from_kraus", "classical_channel", "unitary_channel"])
def test_constructors_reject_non_finite_entry(build, value):
    with pytest.raises(ValueError):
        build(value)


def test_hadamard_channel_action():
    ch = chn.unitary_channel(HAD)
    out = chn.apply(ch, KET0)
    assert np.abs(out - PLUS).max() < 1e-12


def test_to_kraus_identity_single_operator():
    ks = chn.to_kraus(chn.identity_channel(3))
    assert len(ks) == 1
    k = ks[0]
    # unitary equal to identity up to global phase
    phase = k[0, 0] / abs(k[0, 0])
    assert np.abs(k / phase - np.eye(3)).max() < 1e-10


def test_to_kraus_roundtrip_random():
    rng = Rng(31)
    for trial in range(20):
        d = 2 + trial % 3
        rank = 1 + int(rng.derive(trial).integers(0, d * d))
        ch = chn.random_channel(rng.derive(100 + trial), d, rank)
        ks = chn.to_kraus(ch)
        assert len(ks) == rank
        rebuilt = chn.from_kraus(ks)
        assert np.abs(rebuilt.jam - ch.jam).max() < 1e-10


def test_apply_dual_paths_agree():
    rng = Rng(32)
    for trial in range(24):
        d = 1 + trial % 4
        ch = chn.random_channel(rng.derive(trial), d, 1 if trial % 8 < 4 else d * d)
        rho = random_state(rng.derive(500 + trial), d)
        via_k = sum(k @ rho @ k.conj().T for k in chn.to_kraus(ch))
        via_j = chn.apply(ch, rho)
        assert np.abs(via_k - via_j).max() < 1e-12
        assert abs(np.trace(via_j) - 1.0) < 1e-12


def test_apply_rejects_bad_state():
    ch = chn.identity_channel(2)
    with pytest.raises(ValueError):
        chn.apply(ch, np.diag([2.0, -1.0]))


def test_superop_matrix_identities():
    assert np.abs(chn.superop_matrix(chn.identity_channel(2)) - np.eye(4)).max() < 1e-14
    assert np.abs(chn.superop_matrix(chn.completely_dephasing(2)) - np.diag([1.0, 0, 0, 1.0])).max() < 1e-14


def test_superop_matrix_vec_action():
    rng = Rng(33)
    for trial in range(10):
        d = 2 + trial % 3
        ch = chn.random_channel(rng.derive(trial), d, d)
        rho = random_state(rng.derive(500 + trial), d)
        phi = chn.superop_matrix(ch)
        out = (phi @ rho.reshape(-1)).reshape(d, d)
        assert np.abs(out - chn.apply(ch, rho)).max() < 1e-12


def test_dephasing_channel_limits():
    ones = chn.dephasing_c(np.ones((3, 3)))
    assert np.abs(chn.dephasing_channel(ones).jam - chn.identity_channel(3).jam).max() < 1e-14
    eye = chn.dephasing_c(np.eye(3))
    assert np.abs(chn.dephasing_channel(eye).jam - chn.completely_dephasing(3).jam).max() < 1e-14


def test_dephasing_channel_scales_offdiagonal():
    c = 0.3 - 0.4j
    dc = chn.dephasing_c(np.array([[1.0, c], [np.conj(c), 1.0]]))
    ch = chn.dephasing_channel(dc)
    rho = random_state(Rng(36), 2)
    out = chn.apply(ch, rho)
    assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-12
    assert abs(out[0, 1] - c * rho[0, 1]) < 1e-12


def test_dephasing_kraus_rebuild():
    rng = Rng(37)
    for trial in range(10):
        d = 2 + trial % 3
        dc = chn.random_dephasing(rng.derive(trial), d)
        ks = chn.dephasing_kraus(dc)
        for k in ks:
            assert np.abs(k - np.diag(np.diag(k))).max() == 0.0
        rebuilt = chn.from_kraus(ks)
        assert np.abs(rebuilt.jam - chn.dephasing_channel(dc).jam).max() < 1e-10


def test_dephasing_kraus_limit_cases():
    ks = chn.dephasing_kraus(chn.dephasing_c(np.ones((2, 2))))
    assert len(ks) == 1
    assert np.abs(np.abs(ks[0]) - np.eye(2)).max() < 1e-10
    ks = chn.dephasing_kraus(chn.dephasing_c(np.eye(2)))
    assert len(ks) == 2


def test_complementary_dephasing():
    # orthonormal case: complementary output is diagonal mixture of projectors
    dc = chn.dephasing_c(np.eye(2))
    comp = chn.complementary_dephasing(dc)
    rho = random_state(Rng(38), 2)
    out = chn.apply(comp, rho)
    vals = np.sort(np.linalg.eigvalsh(out))
    assert np.abs(vals - np.sort(np.real(np.diag(rho)))).max() < 1e-10
    # all-ones case: constant output regardless of input
    dc1 = chn.dephasing_c(np.ones((2, 2)))
    comp1 = chn.complementary_dephasing(dc1)
    o1 = chn.apply(comp1, rho)
    o2 = chn.apply(comp1, KET0)
    assert np.abs(o1 - o2).max() < 1e-12


def test_complementary_depends_on_diagonal_only():
    rng = Rng(39)
    dc = chn.random_dephasing(rng, 3)
    comp = chn.complementary_dephasing(dc)
    rho = random_state(rng.derive(5), 3)
    dephased = np.diag(np.diag(rho))
    assert np.abs(chn.apply(comp, rho) - chn.apply(comp, dephased)).max() < 1e-12


def test_classical_channel_roundtrip():
    rng = Rng(40)
    for trial in range(10):
        d = 2 + trial % 3
        raw = rng.derive(trial).uniform(size=(d, d)) + 1e-3
        t = raw / raw.sum(axis=0, keepdims=True)
        ch = chn.classical_channel(t)
        assert np.abs(chn.transition_matrix(ch) - t).max() < 1e-12


def test_classical_channel_rejects_bad_matrix():
    with pytest.raises(ValueError):
        chn.classical_channel(np.array([[0.5, 0.2], [0.2, 0.2]]))


@pytest.mark.parametrize("build, m, message", [
    (chn.dephasing_c, [[1.0, 0.5], [0.2, 1.0]], "matrix is not Hermitian: max |m - m^dag| = 3.000e-01 > 1.0e-10"),
    (chn.dephasing_c, [[1.0, np.nan], [np.nan, 1.0]], "matrix has non-finite entries"),
    (chn.dephasing_c, [[1.0, 0.5], [0.5, 0.9]], "diagonal entries deviate from 1 by 1.000e-01"),
    (chn.dephasing_c, [[1.0, 2.0], [2.0, 1.0]], "not PSD: min eigenvalue -1.000e+00"),
    (chn.classical_channel, [[0.5, 0.5j], [0.5, 0.5]], "transition matrix must be real"),
    (chn.classical_channel, [[1.2, 0.5], [-0.2, 0.5]], "negative transition probability -2.000e-01"),
    (chn.classical_channel, [[0.5, 0.2], [0.2, 0.2]], "columns do not sum to 1 (deviation 6.000e-01)"),
    (chn.classical_channel, [[0.5, np.inf], [0.5, 0.5]], "transition matrix has non-finite entries"),
], ids=["c-non-hermitian", "c-non-finite", "c-diagonal", "c-not-psd",
        "t-complex", "t-negative", "t-column-sum", "t-non-finite"])
def test_validators_reject_with_message(build, m, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(np.array(m))


def test_classical_channel_identity_is_dephasing():
    assert np.abs(chn.classical_channel(np.eye(2)).jam - chn.completely_dephasing(2).jam).max() < 1e-14


def test_classical_version_hadamard():
    cv = chn.classical_version(chn.unitary_channel(HAD))
    expect = chn.classical_channel(np.full((2, 2), 0.5))
    assert np.abs(cv.jam - expect.jam).max() < 1e-14


def test_classical_version_exactly_idempotent():
    rng = Rng(41)
    for trial in range(10):
        d = 2 + trial % 3
        ch = chn.random_channel(rng.derive(trial), d, d)
        cv = chn.classical_version(ch)
        again = chn.classical_version(cv)
        assert np.array_equal(cv.jam, again.jam)
        # diagonal preserved, off-diagonal zeroed
        assert np.array_equal(np.diag(cv.jam), np.diag(ch.jam))
        assert np.abs(cv.jam - np.diag(np.diag(cv.jam))).max() == 0.0


def test_transition_matrix_columns():
    assert np.abs(chn.transition_matrix(chn.identity_channel(3)) - np.eye(3)).max() < 1e-14
    assert np.abs(chn.transition_matrix(chn.unitary_channel(HAD)) - 0.5).max() < 1e-14
    rng = Rng(42)
    for trial in range(10):
        d = 2 + trial % 3
        ch = chn.random_channel(rng.derive(trial), d, 2)
        t = chn.transition_matrix(ch)
        assert np.abs(t.sum(axis=0) - 1.0).max() < 1e-12


def test_transition_invariant_under_dephasing():
    rng = Rng(43)
    for trial in range(10):
        d = 2 + trial % 2
        dc = chn.random_dephasing(rng.derive(trial), d)
        ch = chn.dephasing_channel(dc)
        assert np.abs(chn.transition_matrix(ch) - np.eye(d)).max() < 1e-12


def test_compose_identity_and_order():
    rng = Rng(44)
    ch = chn.random_channel(rng, 3, 2)
    left = chn.compose(chn.identity_channel(3), ch)
    assert np.abs(left.jam - ch.jam).max() < 1e-12
    delta = chn.completely_dephasing(2)
    assert np.abs(chn.compose(delta, delta).jam - delta.jam).max() < 1e-13


def test_compose_matches_sequential_apply():
    rng = Rng(45)
    for trial in range(10):
        d = 2 + trial % 3
        a = chn.random_channel(rng.derive(trial), d, 2)
        b = chn.random_channel(rng.derive(100 + trial), d, 2)
        rho = random_state(rng.derive(500 + trial), d)
        lhs = chn.apply(chn.compose(a, b), rho)
        rhs = chn.apply(a, chn.apply(b, rho))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_dephasing_channels_compose_by_schur():
    rng = Rng(46)
    for trial in range(10):
        d = 2 + trial % 2
        c1 = chn.random_dephasing(rng.derive(trial), d)
        c2 = chn.random_dephasing(rng.derive(100 + trial), d)
        lhs = chn.compose(chn.dephasing_channel(c2), chn.dephasing_channel(c1))
        rhs = chn.dephasing_channel(chn.dephasing_c(c1.c * c2.c))
        assert np.abs(lhs.jam - rhs.jam).max() < 1e-12


def test_random_channel_rank1_is_unitary():
    ch = chn.random_channel(Rng(47), 3, 1)
    ks = chn.to_kraus(ch)
    assert len(ks) == 1
    assert np.abs(ks[0].conj().T @ ks[0] - np.eye(3)).max() < 1e-10


def test_random_channel_cptp_and_deterministic():
    for seed in range(5):
        ch1 = chn.random_channel(Rng(seed), 3, 4)
        ch2 = chn.random_channel(Rng(seed), 3, 4)
        assert np.array_equal(ch1.jam, ch2.jam)
        assert np.linalg.eigvalsh(ch1.jam).min() > -1e-10
        assert np.abs(partial_trace(ch1.jam, (3, 3), 1) - np.eye(3) / 3).max() < 1e-10


def test_from_jam_rejects_non_cp():
    jam = np.diag([0.6, -0.1, 0.0, 0.5])
    with pytest.raises(ValueError):
        chn.from_jam(jam)

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dephaser import linalg
from dephaser.sampling import Rng, haar_unitary


def rand_complex(rng, n, m=None):
    return rng.complex_normal((n, m if m is not None else n))


def test_partial_trace_product_input():
    rng = Rng(15)
    rho = rand_complex(rng.derive(0), 2)
    sigma = rand_complex(rng.derive(1), 3)
    out = linalg.partial_trace(np.kron(rho, sigma), (2, 3), 1)
    assert np.abs(out - np.trace(rho) * sigma).max() < 1e-12
    out2 = linalg.partial_trace(np.kron(rho, sigma), (2, 3), 2)
    assert np.abs(out2 - np.trace(sigma) * rho).max() < 1e-12


def test_partial_trace_loop_oracle():
    rng = Rng(16)
    da, db = 2, 3
    m = rand_complex(rng.derive(0), da * db)
    m = m + m.conj().T
    out = linalg.partial_trace(m, (da, db), 2)
    ref = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                ref[i, j] += m[i * db + k, j * db + k]
    assert np.abs(out - ref).max() < 1e-12
    assert abs(np.trace(out) - np.trace(m)) < 1e-12


def test_partial_trace_bad_shape():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(5), (2, 3), 1)


def test_partial_transpose_product_case():
    rng = Rng(17)
    a = rand_complex(rng.derive(0), 2)
    b = rand_complex(rng.derive(1), 2)
    out = linalg.partial_transpose(np.kron(a, b), (2, 2), 2)
    assert np.abs(out - np.kron(a, b.T)).max() < 1e-14


def test_partial_transpose_involution():
    rng = Rng(18)
    m = rand_complex(rng.derive(0), 6)
    for which in (1, 2):
        twice = linalg.partial_transpose(
            linalg.partial_transpose(m, (2, 3), which), (2, 3), which)
        assert np.array_equal(twice, m)


def test_partial_ops_commute_with_transpose():
    # tracing the untouched factor of a partial transpose gives the transpose
    rng = Rng(19)
    m = rand_complex(rng.derive(0), 9)
    pt = linalg.partial_transpose(m, (3, 3), 1)
    lhs = linalg.partial_trace(pt, (3, 3), 2)
    rhs = linalg.partial_trace(m, (3, 3), 2).T
    assert np.abs(lhs - rhs).max() < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_reshuffle_involution(seed, d):
    m = Rng(seed).complex_normal((d * d, d * d))
    assert np.array_equal(linalg.reshuffle(linalg.reshuffle(m, d), d), m)


def test_reshuffle_loop_oracle():
    rng = Rng(20)
    d = 3
    m = rand_complex(rng.derive(0), d * d)
    out = linalg.reshuffle(m, d)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    assert out[i * d + j, k * d + l] == m[i * d + k, j * d + l]


def test_reshuffle_identity_superop():
    # d*J(identity) reshuffles to the identity superoperator matrix
    d = 3
    psi = np.zeros((d * d, 1), dtype=complex)
    for k in range(d):
        psi[k * d + k, 0] = 1.0
    jam = (psi @ psi.conj().T) / d
    assert np.abs(linalg.reshuffle(d * jam, d) - np.eye(d * d)).max() < 1e-14


def test_reshuffle_bad_size():
    with pytest.raises(ValueError):
        linalg.reshuffle(np.eye(6), 2)


def test_realign_product_is_rank_one():
    rng = Rng(21)
    a = rand_complex(rng.derive(0), 3)
    b = rand_complex(rng.derive(1), 3)
    r = linalg.reshuffle(np.kron(a, b), 3)
    s = np.linalg.svd(r, compute_uv=False)
    assert s[1] < 1e-12 * s[0]
    assert abs(s[0] - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-10


def test_herm_eig_basics():
    vals, vecs = linalg.herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals, vecs = linalg.herm_eig(x)
    assert np.allclose(vals, [-1.0, 1.0])
    # eigenvectors are |-> and |+> up to phase
    for col, target in ((0, np.array([1, -1]) / np.sqrt(2)), (1, np.array([1, 1]) / np.sqrt(2))):
        overlap = abs(np.vdot(vecs[:, col], target))
        assert abs(overlap - 1.0) < 1e-12


def test_herm_eig_reconstruction():
    rng = Rng(22)
    for trial in range(20):
        m = rand_complex(rng.derive(trial), 4)
        m = m + m.conj().T
        vals, vecs = linalg.herm_eig(m)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.abs(rebuilt - m).max() < 1e-10 * max(1.0, np.abs(m).max())
        assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gram_vectors_identity_and_ones():
    vs = linalg.gram_vectors(np.eye(3))
    assert np.abs(vs @ vs.conj().T - np.eye(3)).max() < 1e-10
    ones = np.ones((3, 3))
    ws = linalg.gram_vectors(ones)
    assert np.abs(ws @ ws.conj().T - ones).max() < 1e-10
    for i in range(3):
        assert abs(np.linalg.norm(ws[i]) - 1.0) < 1e-10
        # zero eigenvalues are clipped, leaving sqrt-scale noise in the vectors
        assert np.abs(ws[i] - ws[0]).max() < 1e-8


def test_gram_vectors_rebuild_oracle():
    rng = Rng(23)
    for trial in range(20):
        g = rand_complex(rng.derive(trial), 4)
        c = g @ g.conj().T
        c = c / np.abs(np.diag(c)).max()
        vs = linalg.gram_vectors(c)
        rebuilt = vs @ vs.conj().T
        assert np.abs(rebuilt - c).max() < 1e-10


def test_gram_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.gram_vectors(np.diag([1.0, -1.0]))


def test_complete_isometry_identity_map():
    e0 = np.array([1.0, 0.0], dtype=complex)
    w = linalg.complete_isometry([(e0, e0)])
    assert np.abs(w @ e0 - e0).max() < 1e-12
    assert np.abs(w.conj().T @ w - np.eye(2)).max() < 1e-10


def test_complete_isometry_swap_pair():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    w = linalg.complete_isometry([(e0, e1)])
    assert np.abs(w @ e0 - e1).max() < 1e-12
    assert np.abs(w.conj().T @ w - np.eye(2)).max() < 1e-10


def test_complete_isometry_recovers_unitary_action():
    rng = Rng(24)
    for trial in range(10):
        d = 4
        v = haar_unitary(rng.derive(trial), d)
        sources = [rng.derive(100 + trial * 10 + k).complex_normal((d,)) for k in range(2)]
        pairs = [(s, v @ s) for s in sources]
        w = linalg.complete_isometry(pairs)
        for s, t in pairs:
            assert np.abs(w @ s - t).max() < 1e-9
        assert np.abs(w.conj().T @ w - np.eye(d)).max() < 1e-10


def test_complete_isometry_gram_mismatch():
    e0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        linalg.complete_isometry([(e0, 2.0 * e0)])


def test_complete_isometry_deterministic_completion():
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    w1 = linalg.complete_isometry([(e0, e0)])
    w2 = linalg.complete_isometry([(e0, e0)])
    assert np.array_equal(w1, w2)

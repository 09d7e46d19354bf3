import numpy as np

from dephaser.sampling import Rng, haar_unitaries, haar_unitary, haar_vector, random_state


def test_rng_determinism():
    a = Rng(42).normal((5,))
    b = Rng(42).normal((5,))
    assert np.array_equal(a, b)
    c = Rng(42).derive(1).normal((5,))
    assert not np.array_equal(a, c)


def test_rng_derive_masks_to_uint64():
    r = Rng(2**64 - 1).derive(5)  # wraps, must not raise
    _ = r.normal((2,))


def test_derived_stream_is_pcg64_at_offset_seed():
    for seed, offset in ((0, 0), (7, 3), (2**64 - 2, 5)):
        g = np.random.Generator(np.random.PCG64((seed + offset) % 2**64))
        want = (g.normal(size=(2, 3)) + 1j * g.normal(size=(2, 3))) / np.sqrt(2.0)
        assert np.array_equal(Rng(seed).derive(offset).complex_normal((2, 3)), want)


def test_haar_unitaries_match_one_stream_each():
    for d in (1, 2, 3, 4):
        rngs = [Rng(100 * d + k) for k in range(5)]
        stack = haar_unitaries(rngs, d)
        assert stack.shape == (5, d, d)
        assert all(np.array_equal(u, haar_unitary(Rng(100 * d + k), d)) for k, u in enumerate(stack))


def test_haar_unitary_is_unitary():
    for seed in range(10):
        for d in (1, 2, 3, 4):
            u = haar_unitary(Rng(seed), d)
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_haar_unitary_d1_unit_modulus():
    u = haar_unitary(Rng(0), 1)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_reproducible():
    u1 = haar_unitary(Rng(7), 3)
    u2 = haar_unitary(Rng(7), 3)
    assert np.array_equal(u1, u2)


def test_haar_moment():
    # E|U_11|^2 = 1/d for Haar; check within 3 standard errors
    d = 3
    n = 10_000
    rng = Rng(100)
    vals = np.empty(n)
    for i in range(n):
        u = haar_unitary(rng.derive(i), d)
        vals[i] = abs(u[0, 0]) ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / d) < 3 * se


def test_haar_vector_normalized():
    for seed in range(5):
        v = haar_vector(Rng(seed), 4)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_state_mixed():
    for seed in range(10):
        rho = random_state(Rng(seed), 3)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() > -1e-12 and vals.max() < 1.0 + 1e-12


def test_random_state_pure():
    for seed in range(10):
        rho = random_state(Rng(seed), 3, pure=True)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho @ rho - rho).max() < 1e-10

"""Seeded random sampling: Haar unitaries and random states.

All randomness in the package flows through an explicit Rng value; nothing
reads global random state, so every sample stream is reproducible from its
64-bit seed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import partial_trace

_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic random stream identified by a 64-bit unsigned seed. Its
    PCG64 generator is built on the first draw, so a stream that is only
    derived from never builds one."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed) & _MASK64

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, offset: int) -> "Rng":
        """Independent stream for sub-task `offset` (seed + offset, wrapping)."""
        return Rng((self.seed + int(offset)) & _MASK64)

    def normal(self, size) -> np.ndarray:
        return self._gen.normal(size=size)

    def complex_normal(self, size) -> np.ndarray:
        return (self._gen.normal(size=size) + 1j * self._gen.normal(size=size)) / np.sqrt(2.0)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def uniform(self, size=None):
        if size is None:
            return float(self._gen.uniform())
        return self._gen.uniform(size=size)


def haar_unitary(rng: Rng, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary via Ginibre + QR with phase-fixed R diagonal."""
    return haar_unitaries([rng], d)[0]


def haar_unitaries(rngs: list[Rng], d: int) -> np.ndarray:
    """One Haar unitary per stream, as a (len(rngs), d, d) stack: each stream
    draws its own d x d Ginibre matrix, and one stacked QR and one phase fix
    of the R diagonals give every slice the bits of haar_unitary alone."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    z = np.array([rng.complex_normal((d, d)) for rng in rngs])
    q, r = np.linalg.qr(z)
    diag = r.diagonal(0, -2, -1)
    mags = np.abs(diag)
    phases = np.where(mags > 1e-300, diag / np.where(mags > 1e-300, mags, 1.0), 1.0)
    return q * phases[:, None, :]


def haar_vector(rng: Rng, d: int) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    z = rng.complex_normal(d)
    return z / np.linalg.norm(z)


def random_state(rng: Rng, d: int, pure: bool = False) -> np.ndarray:
    """Random density matrix: rank 1 if pure, else the reduction of a random
    bipartite pure state on d x d (full rank almost surely)."""
    if pure:
        v = haar_vector(rng, d)
        return np.outer(v, v.conj())
    v = haar_vector(rng, d * d)
    return partial_trace(np.outer(v, v.conj()), (d, d), 2)

"""Quantum channels in the Jamiolkowski representation, dephasing (Schur
product) channels, and classical channels.

A channel on dimension d is stored as its Jamiolkowski matrix

    jam[(i*d + k), (j*d + l)] = (1/d) <i| E(|k><l|) |j>,

i.e. the left bipartite factor indexes the output, the right one the input
copy, and the normalization makes jam a trace-1 state. Complete positivity
is jam >= 0; trace preservation is Tr_1(jam) = 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    TOL_PSD,
    TOL_UNIT,
    assert_hermitian,
    gram_vectors,
    partial_trace,
    reshuffle,
)
from .sampling import Rng, haar_unitary, haar_vector

KRAUS_PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class Channel:
    """A CPTP map: dimension and Jamiolkowski matrix, its only stored form."""

    dim: int
    jam: np.ndarray


@dataclass(frozen=True)
class DephasingChannelC:
    """Correlation matrix C of the channel rho -> rho o C (entrywise product)."""

    dim: int
    c: np.ndarray


def dephasing_c(c: np.ndarray) -> DephasingChannelC:
    """Dephasing channel of a correlation matrix: Hermitian, PSD and unit
    diagonal within TOL_PSD, else ValueError."""
    c = assert_hermitian(c)
    diag_dev = np.abs(np.diag(c) - 1.0).max()
    if diag_dev > TOL_PSD:
        raise ValueError(f"diagonal entries deviate from 1 by {diag_dev:.3e}")
    w = np.linalg.eigvalsh(c)  # checked Hermitian above
    if w.min() < -TOL_PSD:
        raise ValueError(f"not PSD: min eigenvalue {w.min():.3e}")
    return DephasingChannelC(dim=c.shape[0], c=c)


def assert_state(rho: np.ndarray) -> np.ndarray:
    """Check that rho is a density matrix (Hermitian, PSD, unit trace) within
    TOL_PSD."""
    rho = assert_hermitian(rho)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TOL_PSD:
        raise ValueError(f"trace is {tr}, not 1")
    w = np.linalg.eigvalsh(rho)  # checked Hermitian above
    if w.min() < -TOL_PSD:
        raise ValueError(f"state not PSD: min eigenvalue {w.min():.3e}")
    return rho


def check_channel(ch: Channel, tol: float = TOL_PSD) -> None:
    """Raise unless ch satisfies the Channel invariants within tol."""
    d = ch.dim
    jam = assert_hermitian(ch.jam)
    if jam.shape != (d * d, d * d):
        raise ValueError(f"jam shape {jam.shape} does not match dim {d}")
    w = np.linalg.eigvalsh(jam)  # checked Hermitian above
    if w.min() < -tol:
        raise ValueError(f"not completely positive: min eigenvalue {w.min():.3e}")
    tp_dev = np.abs(partial_trace(jam, (d, d), 1) - np.eye(d) / d).max()
    if tp_dev > tol:
        raise ValueError(f"not trace preserving: deviation {tp_dev:.3e}")


def _jam_from_kraus(ks: Sequence[np.ndarray], d: int) -> np.ndarray:
    jam = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        v = np.asarray(k, dtype=complex).reshape(-1)
        jam += np.outer(v, v.conj())
    return jam / d


def from_kraus(ks: Sequence[np.ndarray], tol: float = TOL_PSD) -> Channel:
    """Channel from Kraus operators; raises on completeness violation."""
    ks = [np.asarray(k, dtype=complex) for k in ks]
    if not ks:
        raise ValueError("need at least one Kraus operator")
    d = ks[0].shape[0]
    if any(k.shape != (d, d) for k in ks):
        raise ValueError("Kraus operators must all be d x d")
    a = np.concatenate(ks)  # a^dag a = sum_k K_k^dag K_k
    # checked before the product, which would warn on inf entries
    dev = np.abs(a.conj().T @ a - np.eye(d)).max() if np.isfinite(a).all() else np.nan
    if not dev <= tol:  # also rejects NaN
        raise ValueError(f"Kraus completeness violated by {dev:.3e}")
    return Channel(dim=d, jam=_jam_from_kraus(ks, d))


def from_jam(jam: np.ndarray, tol: float = TOL_PSD) -> Channel:
    """Channel from its Jamiolkowski matrix; validates CPTP."""
    jam = np.asarray(jam, dtype=complex)
    d = int(round(np.sqrt(jam.shape[0])))
    ch = Channel(dim=d, jam=jam)
    check_channel(ch, tol)
    return ch


def to_kraus(ch: Channel) -> list[np.ndarray]:
    """Kraus operators from the eigendecomposition of d * jam.

    Operators with eigenvalue at or below KRAUS_PRUNE_TOL are dropped; the
    list length is the numerical rank. The set is unique only up to the
    usual isometric freedom, so only the rebuilt channel should be compared.
    The jam of a Channel is Hermitian by construction, so it is not
    re-checked before the eigensolve.
    """
    d = ch.dim
    w, v = np.linalg.eigh(d * ch.jam)
    if w.min() < -d * TOL_PSD:
        raise ValueError(f"channel is not CP: eigenvalue {w.min():.3e}")
    ks = []
    for lam, vec in zip(w, v.T):
        if lam > KRAUS_PRUNE_TOL:
            ks.append(np.sqrt(lam) * vec.reshape(d, d))
    return ks


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix: the contraction
    E(rho) = d * Tr_2[jam (1 (x) rho^T)], i.e. d * sum_kl J[(ik),(jl)] rho_kl.
    verify's criterion 12 checks it against the Kraus sum over to_kraus."""
    rho = assert_state(rho)
    d = ch.dim
    if rho.shape != (d, d):
        raise ValueError(f"state dim {rho.shape[0]} does not match channel dim {d}")
    return d * np.einsum("ikjl,kl->ij", ch.jam.reshape(d, d, d, d), rho)


def superop_matrix(ch: Channel) -> np.ndarray:
    """Matrix Phi with Phi @ vec(rho) = vec(E(rho)) for row-major vec."""
    return ch.dim * reshuffle(ch.jam, ch.dim)


def compose(a: Channel, b: Channel) -> Channel:
    """Channel of a o b (apply b first), via the superoperator product."""
    if a.dim != b.dim:
        raise ValueError(f"dim mismatch: {a.dim} vs {b.dim}")
    d = a.dim
    phi = superop_matrix(a) @ superop_matrix(b)
    return Channel(dim=d, jam=reshuffle(phi, d) / d)


def identity_channel(d: int) -> Channel:
    """The identity channel on dimension d."""
    return from_kraus([np.eye(d, dtype=complex)])


def unitary_channel(u: np.ndarray) -> Channel:
    """The channel rho -> U rho U^dag; U must be unitary within TOL_UNIT."""
    u = np.asarray(u, dtype=complex)
    if not (np.isfinite(u).all() and np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= TOL_UNIT):
        raise ValueError("matrix is not unitary")
    return from_kraus([u])


def completely_dephasing(d: int) -> Channel:
    """The channel that zeroes all off-diagonal entries (diagonal projection)."""
    return from_kraus([np.diag(e) for e in np.eye(d, dtype=complex)])


def dephasing_channel(dc: DephasingChannelC) -> Channel:
    """Channel rho -> rho o C with Jamiolkowski entries J[(ii),(jj)] = C_ij / d."""
    d = dc.dim
    jam = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d) * (d + 1)
    jam[np.ix_(idx, idx)] = dc.c / d
    return Channel(dim=d, jam=jam)


def dephasing_kraus(dc: DephasingChannelC) -> list[np.ndarray]:
    """Diagonal Kraus operators K_k = diag over i of the k-th component of the
    Gram vectors of C; operators with no entry above KRAUS_PRUNE_TOL are
    pruned."""
    psi = gram_vectors(dc.c)  # row i is the vector realizing C_ij = <psi_j|psi_i>
    return [np.diag(col) for col in psi.T if np.abs(col).max() > KRAUS_PRUNE_TOL]


def complementary_dephasing(dc: DephasingChannelC) -> Channel:
    """The measure-and-prepare complement rho -> sum_i rho_ii |psi_i><psi_i|."""
    psi = gram_vectors(dc.c)
    return from_kraus([np.outer(p, e) for p, e in zip(psi, np.eye(dc.dim, dtype=complex))])


def classical_channel(t: np.ndarray) -> Channel:
    """Channel sum_ij T_ij <j|.|j> |i><i| with diagonal jam; T must be
    column-stochastic (real entries >= 0, columns summing to 1) within
    TOL_PSD, else ValueError."""
    t = np.asarray(t)
    if not np.isfinite(t).all():
        raise ValueError("transition matrix has non-finite entries")
    if np.abs(np.asarray(t, dtype=complex).imag).max() > TOL_PSD:
        raise ValueError("transition matrix must be real")
    t = np.real(np.asarray(t, dtype=complex))
    if t.min() < -TOL_PSD:
        raise ValueError(f"negative transition probability {t.min():.3e}")
    col_dev = np.abs(t.sum(axis=0) - 1.0).max()
    if col_dev > TOL_PSD:
        raise ValueError(f"columns do not sum to 1 (deviation {col_dev:.3e})")
    d = t.shape[0]
    jam = np.diag(t.reshape(-1).astype(complex) / d)
    return Channel(dim=d, jam=jam)


def transition_matrix(ch: Channel) -> np.ndarray:
    """T_ij = <i| E(|j><j|) |i> = d * jam[(ij),(ij)]; column-stochastic."""
    d = ch.dim
    return (d * np.diag(ch.jam).real).reshape(d, d)


def classical_version(ch: Channel) -> Channel:
    """Diagonal projection of the channel (dephase input and output).

    Equal to classical_channel(transition_matrix(ch)); implemented by zeroing
    the off-diagonal of jam directly so the operation is exactly idempotent.
    """
    return Channel(dim=ch.dim, jam=np.diag(np.diag(ch.jam)))


def random_dephasing(rng: Rng, d: int) -> DephasingChannelC:
    """Random correlation matrix: the Gram matrix of d Haar-random unit
    vectors. It is a correlation matrix by proof, so it is not re-validated:
    a Gram matrix is Hermitian PSD, and its diagonal holds the vectors'
    unit norms."""
    vs = np.stack([haar_vector(rng.derive(i), d) for i in range(d)], axis=1)
    return DephasingChannelC(dim=d, c=vs.conj().T @ vs)


def random_channel(rng: Rng, d: int, rank: int) -> Channel:
    """Haar-random channel of the given Kraus rank (isometry d -> d * rank).
    The Kraus operators are cut from the first d columns V of a Haar
    unitary, so sum_e K_e^dag K_e = V^dag V = 1 by proof and they are not
    re-checked."""
    if not 1 <= rank <= d * d:
        raise ValueError(f"rank must be in [1, {d * d}], got {rank}")
    u = haar_unitary(rng, d * rank)
    v = u[:, :d]
    ks = [v.reshape(d, rank, d)[:, e, :] for e in range(rank)]
    return Channel(dim=d, jam=_jam_from_kraus(ks, d))

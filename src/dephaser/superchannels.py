"""Dephasing superchannels: maps on channels that act as a Schur product on
the Jamiolkowski matrix, J(E) -> J(E) o C.

The correlation matrix C is d^2 x d^2, PSD, Hermitian, with unit diagonal
and all d diagonal d x d blocks equal; these conditions are exactly what is
needed for the output to be a channel for every input channel. Indices into
C are the composite (i, k) -> i*d + k of an output-side index i and an
input-side index k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    TOL_PSD,
    TOL_UNIT,
    assert_hermitian,
    complete_isometry,
    gram_vectors,
    partial_trace,
    partial_transpose,
    reshuffle,
)
from .channels import Channel, DephasingChannelC, dephasing_channel, from_jam, from_kraus
from .sampling import Rng, haar_unitaries

NOT_PSD = "NOT_PSD"
DIAGONAL_NOT_ONE = "DIAGONAL_NOT_ONE"
BLOCKS_UNEQUAL = "BLOCKS_UNEQUAL"

PRODUCT_SV_RATIO = 1e-9


@dataclass(frozen=True)
class DephasingSuperchannel:
    """Validated correlation matrix of a dephasing superchannel."""

    dim: int
    c: np.ndarray


@dataclass(frozen=True)
class Violation:
    """Why a candidate correlation matrix fails, with a witness defect.

    kind is one of NOT_PSD, DIAGONAL_NOT_ONE, BLOCKS_UNEQUAL; indices locates
    the first offending entry (lexicographic); defect quantifies it. witness,
    when present, is a channel whose Schur-product image violates trace
    preservation by exactly defect in max norm (NOT_PSD has no witness).
    """

    kind: str
    indices: tuple[int, ...]
    defect: float
    witness: Channel | None = None


class InvalidCorrelationError(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(f"{violation.kind} at {violation.indices}: defect {violation.defect:.3e}")
        self.violation = violation


@dataclass(frozen=True)
class SuperRealization:
    """Physical realization of Xi with a d^2-level memory (the dimension of
    C's Gram vectors): input label k prepares the memory state s_k (column k
    of the d^2 x d memory_states), output label i applies a unitary V_i
    (V_0 = 1), and C is the Gram matrix of the psi_(ik) = V_i s_k. Only the
    images W_i = V_i S = images[i - 1] are fixed (see from_memory): any
    unitary extending s_k -> W_i[:, k] realizes Xi, as any unitary with first
    column s_k prepares s_k. The first read of vs or us completes one such
    V_i and U_k for every label at once, from the raw Gram rows
    gram_rows[i, k] = xi_(ik).
    """

    memory_states: np.ndarray
    images: tuple[np.ndarray, ...]
    gram_rows: np.ndarray = field(repr=False)

    @functools.cached_property
    def _unitaries(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        return memory_unitaries(self.gram_rows)

    @property
    def us(self) -> tuple[np.ndarray, ...]:
        return self._unitaries[0]

    @property
    def vs(self) -> tuple[np.ndarray, ...]:
        return self._unitaries[1]


@dataclass(frozen=True)
class MemoryClass:
    """Entanglement classification of the memory needed to realize Xi.

    label: "PRODUCT" (no memory correlations), "PPT" (positive partial
    transpose, undetected entanglement), or "NPT" (entangled memory).
    """

    label: str
    ppt_min_eig: float
    product_residual: float


def _tp_defect(ch: Channel, c: np.ndarray, d: int) -> float:
    """Max-norm deviation of Tr_1(J(E) o c) from 1/d for a witness channel."""
    out = ch.jam * c
    return float(np.abs(partial_trace(out, (d, d), 1) - np.eye(d) / d).max())


def validate(c: np.ndarray, d: int, tol: float = TOL_PSD) -> DephasingSuperchannel | Violation:
    """Check the three structural conditions on C; return the superchannel or
    the first Violation found (diagonal, then block equality, then PSD)."""
    c = assert_hermitian(c)
    if c.shape != (d * d, d * d):
        raise ValueError(f"correlation shape {c.shape} does not match dim {d}")
    bad = np.flatnonzero(np.abs(np.diag(c) - 1.0) > tol)
    if bad.size:
        idx = divmod(int(bad[0]), d)
        ch = _diagonal_witness(d, idx)
        return Violation(DIAGONAL_NOT_ONE, idx, _tp_defect(ch, c, d), ch)
    # (i1, k, l) in lexicographic order where block i1 differs from block 0
    blocks = np.einsum("ikil->ikl", c.reshape(d, d, d, d))
    bad = np.argwhere(np.abs(blocks[1:] - blocks[0]) > tol)
    if bad.size:
        idx = (0, int(bad[0, 0]) + 1, int(bad[0, 1]), int(bad[0, 2]))
        ch = _block_witness(d, idx)
        return Violation(BLOCKS_UNEQUAL, idx, _tp_defect(ch, c, d), ch)
    w = np.linalg.eigvalsh(c)  # checked Hermitian above
    if w.min() < -tol:
        return Violation(NOT_PSD, (), float(w.min()), None)
    return DephasingSuperchannel(dim=d, c=c)


def superchannel(c: np.ndarray, d: int, tol: float = TOL_PSD) -> DephasingSuperchannel:
    """Like validate, but raises InvalidCorrelationError on failure."""
    out = validate(c, d, tol)
    if isinstance(out, Violation):
        raise InvalidCorrelationError(out)
    return out


def _diagonal_witness(d: int, idx: tuple[int, int]) -> Channel:
    # constant channel E(rho) = |j><j| with j = idx[0]: Kraus ops |j><m|
    eye = np.eye(d, dtype=complex)
    return from_kraus([np.outer(eye[idx[0]], e) for e in eye])


def _block_witness(d: int, idx: tuple[int, int, int, int]) -> Channel:
    # d^2 * jam = 1 + (|i0><i0| - |i1><i1|) (x) (|k><l| + |l><k|); the
    # perturbation is traceless and bounded by 1, so jam is a valid channel
    i0, i1, k, l = idx
    jam = np.eye(d * d, dtype=complex)
    jam[i0 * d + k, i0 * d + l] += 1.0
    jam[i0 * d + l, i0 * d + k] += 1.0
    jam[i1 * d + k, i1 * d + l] -= 1.0
    jam[i1 * d + l, i1 * d + k] -= 1.0
    return from_jam(jam / (d * d))


def apply(sc: DephasingSuperchannel, ch: Channel, tol: float | None = None) -> Channel:
    """Xi[E]: Schur product on the Jamiolkowski matrix.

    The output is a channel by proof, so it is not re-validated: J(E) o C is
    PSD by the Schur product theorem, and with C_0 the diagonal block that
    all d diagonal blocks equal, Tr_1(J(E) o C)_kl = C_0[k,l] Tr_1(J(E))_kl
    = C_0[k,l] delta_kl / d = delta_kl / d by the unit diagonal. tol is
    ignored; it is accepted for callers that still pass it.
    """
    if sc.dim != ch.dim:
        raise ValueError(f"dim mismatch: superchannel {sc.dim}, channel {ch.dim}")
    return Channel(dim=sc.dim, jam=ch.jam * sc.c)


def super_jamiolkowski(sc: DephasingSuperchannel) -> np.ndarray:
    """Jamiolkowski matrix of Xi as a map on channel states: the d^4 x d^4
    matrix with [(a,a),(b,b)] entry C_ab / d^2 and zeros elsewhere. Xi acts
    on Jamiolkowski states as the Schur multiplier C, so this is the matrix
    of the d^2-dimensional dephasing channel of C."""
    return dephasing_channel(DephasingChannelC(dim=sc.dim * sc.dim, c=sc.c)).jam


def apply_via_super_jam(sc: DephasingSuperchannel, ch: Channel) -> Channel:
    """Xi[E] computed by contracting the superchannel's own Jamiolkowski
    matrix against J(E); agrees with apply up to roundoff. The contraction
    picks out the entries J(E)_ab C_ab, so the output is apply's, and a
    channel by the same proof."""
    if sc.dim != ch.dim:
        raise ValueError(f"dim mismatch: superchannel {sc.dim}, channel {ch.dim}")
    d2 = sc.dim * sc.dim
    big = super_jamiolkowski(sc)
    out = d2 * partial_trace(big @ np.kron(np.eye(d2), ch.jam.T), (d2, d2), 2)
    return Channel(dim=sc.dim, jam=out)


def realize(sc: DephasingSuperchannel) -> SuperRealization:
    """Memory states s_k and images W_i = V_i S on a d^2-level memory
    reproducing Xi; no unitary is completed here (see SuperRealization).

    Gram vectors xi with <xi_(i'k') | xi_(ik)> = C_(ik),(i'k') are split as
    xi_(ik) = V_i s_k: s_k = xi_(0k) / ||xi_(0k)||, V_0 = 1, and V_i rotates
    the first block onto the i-th (well defined because the diagonal blocks
    share one Gram matrix), so W_i[:, k] = xi_(ik) / ||xi_(0k)||.
    """
    d = sc.dim
    rows = gram_vectors(sc.c).reshape(d, d, d * d)  # rows[i, k] = xi_(ik)
    scaled = rows / np.array([np.linalg.norm(x) for x in rows[0]])[:, None]
    return SuperRealization(memory_states=scaled[0].T, images=tuple(w.T for w in scaled[1:]), gram_rows=rows)


def memory_unitaries(gram_rows: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(us, vs) from the Gram rows gram_rows[i, k] = xi_(ik): one pre-unitary
    U_k per k with U_k |0> = xi_(0k) / ||xi_(0k)||, and V_0 = 1 and the
    post-unitaries V_i with V_i xi_(0k) = xi_(ik)."""
    eye = np.eye(gram_rows.shape[2], dtype=complex)
    us = tuple(complete_isometry([(eye[0], x)]) for x in gram_rows[0])
    return us, (eye, *(complete_isometry(list(zip(gram_rows[0], r))) for r in gram_rows[1:]))


def _unitary(w: np.ndarray, m: int) -> bool:
    return w.shape == (m, m) and np.abs(w.conj().T @ w - np.eye(m)).max() <= TOL_UNIT


def from_memory(states, images) -> DephasingSuperchannel:
    """Correlation matrix of the superchannel realized by memory states s_k
    (column k of the m x d states) and post-unitaries V_i known by their
    images W_i = V_i S = images[i - 1] (V_0 = 1):

        C[(i,k), (i',k')] = <psi_(i'k') | psi_(ik)>,  psi_(ik) = W_i[:, k].

    Such unitaries V_i exist iff W_i^dag W_i = S^dag S; that and each
    ||s_k|| = 1 are checked to TOL_UNIT."""
    states = np.asarray(states, dtype=complex)
    m, d = states.shape
    if len(images) != d - 1 or any(np.shape(w) != (m, d) for w in images):
        raise ValueError("need d - 1 images W_i, each shaped like the m x d memory states")
    psi = np.hstack([states, *images])
    gram = psi.conj().T @ psi  # C^T; diagonal block i is W_i^dag W_i
    blocks = np.einsum("ikil->ikl", gram.reshape(d, d, d, d))
    if not np.abs(np.linalg.norm(states, axis=0) - 1.0).max() <= TOL_UNIT:
        raise ValueError("memory states must be unit vectors")
    if not np.abs(blocks - blocks[0]).max() <= TOL_UNIT:
        raise ValueError("no unitary V_i maps the memory states to W_i: W_i^dag W_i != S^dag S")
    return superchannel(gram.T, d)


def from_unitaries(us, vs) -> DephasingSuperchannel:
    """C realized by the memory states U_k |0> = us[k][:, 0] and the V_i = vs[i],
    V_0 included; each U_k and V_i must be unitary, to TOL_UNIT."""
    us = [np.asarray(u, dtype=complex) for u in us]
    vs = [np.asarray(v, dtype=complex) for v in vs]
    m = us[0].shape[0]
    if len(vs) != len(us) or not all(_unitary(w, m) for w in us + vs):
        raise ValueError("need one m x m unitary U_k and V_i per input and output label")
    return superchannel(_correlation(np.array([u[:, 0] for u in us]).T, vs), len(us))


def _correlation(states, vs) -> np.ndarray:
    """C of from_memory with psi_(ik) = V_i s_k, unchecked. For unit states
    and unitary V_i it is a valid superchannel's C: a Gram matrix is
    Hermitian PSD, each psi_(ik) is a unit vector, and the diagonal block
    C[(i,k), (i,k')] = <s_k'| V_i^dag V_i |s_k> = <s_k'|s_k> is the same for
    every i."""
    m, d = states.shape
    psi = np.zeros((m, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            psi[:, i * d + k] = vs[i] @ states[:, k]
    return (psi.conj().T @ psi).T


def identity_superchannel(d: int) -> DephasingSuperchannel:
    """The all-ones correlation matrix: Xi[E] = E for every channel."""
    return DephasingSuperchannel(dim=d, c=np.ones((d * d, d * d), dtype=complex))


def sample(rng: Rng, d: int) -> DephasingSuperchannel:
    """Haar-random dephasing superchannel from random memory unitaries;
    valid by proof (see _correlation), so it is not re-validated. The 2d - 1
    unitaries, U_k from stream k (its state s_k = U_k |0>) and V_i from
    stream d + i (V_0 = I), come from one stacked QR (haar_unitaries)."""
    haar = haar_unitaries([rng.derive(k) for k in range(2 * d) if k != d], d * d)
    vs = [np.eye(d * d, dtype=complex), *haar[d:]]
    return DephasingSuperchannel(dim=d, c=_correlation(haar[:d, :, 0].T, vs))


def _nearest_product(c: np.ndarray, d: int) -> tuple[float, float]:
    """(singular-value ratio, Frobenius residual) of the best C_A (x) C_B fit
    obtained from the leading singular pair of the realigned matrix."""
    r = reshuffle(c, d)
    u, s, vh = np.linalg.svd(r)
    # a 1 x 1 realignment (d = 1) has rank 1, hence ratio 0
    ratio = float(s[1] / s[0]) if s.size > 1 and s[0] > 0 else 0.0
    a = np.sqrt(s[0]) * u[:, 0].reshape(d, d)
    b = np.sqrt(s[0]) * vh[0].reshape(d, d)
    # project the rank-1 factors onto actual correlation matrices: rescale so
    # both have unit diagonal, then Hermitize; for a true product this is exact
    raw = np.kron(a, b)
    tra = np.trace(a)
    trb = np.trace(b)
    if min(abs(tra), abs(trb)) < 1e-6:
        return ratio, float(np.linalg.norm(c - raw))
    a = a * (d / tra)
    b = b * (d / trb)
    a = (a + a.conj().T) / 2
    b = (b + b.conj().T) / 2
    np.fill_diagonal(a, 1.0)
    np.fill_diagonal(b, 1.0)
    return ratio, float(np.linalg.norm(c - np.kron(a, b)))


def memory_class(sc: DephasingSuperchannel, tol: float = TOL_PSD) -> MemoryClass:
    """Classify the memory correlations of C viewed as a bipartite state
    pattern on (output index) (x) (input index).

    NPT when the partial transpose has an eigenvalue below -tol; PRODUCT when
    the realignment is numerically rank 1 (ratio < 1e-9) and the nearest
    product matrix is within tol in Frobenius norm; PPT otherwise.
    """
    d = sc.dim
    # the partial transpose of the validated Hermitian C is Hermitian
    w, _ = np.linalg.eigh(partial_transpose(sc.c, (d, d), 2))
    ppt_min = float(w.min())
    ratio, residual = _nearest_product(sc.c, d)
    if ppt_min < -tol:
        label = "NPT"
    elif ratio < PRODUCT_SV_RATIO and residual <= tol:
        label = "PRODUCT"
    else:
        label = "PPT"
    return MemoryClass(label=label, ppt_min_eig=ppt_min, product_residual=residual)


def tilde_c(sc: DephasingSuperchannel) -> DephasingChannelC:
    """The d x d correlation matrix governing the action on dephasing
    channels: tilde(C)_ij = C[(i,i),(j,j)]. It is a correlation matrix by
    proof: a principal submatrix of a PSD matrix is PSD, and its diagonal is
    part of C's unit diagonal."""
    d = sc.dim
    idx = np.arange(d) * (d + 1)
    return DephasingChannelC(dim=d, c=sc.c[np.ix_(idx, idx)])


def act_on_dephasing(sc: DephasingSuperchannel, dc: DephasingChannelC) -> DephasingChannelC:
    """Xi[D_C'] is the dephasing channel with matrix C' o tilde(C), a
    correlation matrix by proof: PSD by the Schur product theorem, with
    unit diagonal as the product of two unit diagonals."""
    if sc.dim != dc.dim:
        raise ValueError(f"dim mismatch: superchannel {sc.dim}, channel {dc.dim}")
    return DephasingChannelC(dim=dc.dim, c=dc.c * tilde_c(sc).c)


def pre_post(c1: DephasingChannelC, c2: DephasingChannelC) -> DephasingSuperchannel:
    """Superchannel E -> D_C2 o E o D_C1 (memoryless pre/post dephasing);
    its correlation matrix is C2 (x) C1. That is a valid superchannel by
    proof: a Kronecker product of PSD matrices is PSD, its diagonal is the
    product of two unit diagonals, and every diagonal block
    C2[i,i] C1 = C1 is the same."""
    if c1.dim != c2.dim:
        raise ValueError(f"dim mismatch: {c1.dim} vs {c2.dim}")
    return DephasingSuperchannel(dim=c1.dim, c=np.kron(c2.c, c1.c))


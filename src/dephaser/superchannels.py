"""Dephasing superchannels: maps on channels that act as a Schur product on
the Jamiolkowski matrix, J(E) -> J(E) o C.

The correlation matrix C is d^2 x d^2, PSD, Hermitian, with unit diagonal
and all d diagonal d x d blocks equal; these conditions are exactly what is
needed for the output to be a channel for every input channel. Indices into
C are the composite (i, k) -> i*d + k of an output-side index i and an
input-side index k.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Physical realization Xi[E] = average over k of V-side conditioning:

    Xi[E](rho) = sum over env outcomes of V_i E(U_k . U_k^dag) with the
    pre-unitaries U_k entangling a d^2-level memory (the dimension of C's
    Gram vectors) and the post-unitaries V_i conditioned on the output index;
    us has length d (indexed by the input basis label k), vs has length d
    (indexed by the output basis label i), each a d^2 x d^2 unitary.
    """

    us: tuple[np.ndarray, ...]
    vs: tuple[np.ndarray, ...]


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
    """Pre/post unitaries on system (x) d^2-level memory reproducing Xi.

    Gram vectors xi with <xi_(i'k') | xi_(ik)> = C_(ik),(i'k') are split as
    xi_(ik) = V_i U_k |0>: U_k maps the memory ground state to the k-th
    vector of the first block, V_0 = 1, and V_i rotates the first block onto
    the i-th (well defined because the diagonal blocks share one Gram
    matrix). Unitaries act on the memory factor only; the realization
    applies U_k controlled on input index k and V_i controlled on output
    index i.
    """
    d = sc.dim
    m = d * d
    xi = gram_vectors(sc.c)  # row a = xi_a, dimension d^2
    e0 = np.eye(m, dtype=complex)[0]
    us = tuple(complete_isometry([(e0, xi[k])]) for k in range(d))
    vs = [np.eye(m, dtype=complex)]
    for i in range(1, d):
        pairs = [(xi[k], xi[i * d + k]) for k in range(d)]
        vs.append(complete_isometry(pairs))
    return SuperRealization(us=us, vs=tuple(vs))


def from_unitaries(us, vs) -> DephasingSuperchannel:
    """Correlation matrix of the superchannel realized by memory unitaries:

        C[(i,k), (i',k')] = <psi_(i'k') | psi_(ik)>,  psi_(ik) = V_i U_k |0>.

    Always yields a valid superchannel (the construction forces unit norms
    and shared diagonal blocks)."""
    us = [np.asarray(u, dtype=complex) for u in us]
    vs = [np.asarray(v, dtype=complex) for v in vs]
    m = us[0].shape[0]
    d = len(us)
    if len(vs) != d:
        raise ValueError("need as many post- as pre-unitaries")
    for w in (*us, *vs):
        if w.shape != (m, m) or not np.abs(w.conj().T @ w - np.eye(m)).max() <= TOL_UNIT:
            raise ValueError("memory operators must be unitary and equally sized")
    return superchannel(_correlation(us, vs), d)


def _correlation(us, vs) -> np.ndarray:
    """C[(i,k), (i',k')] = <psi_(i'k') | psi_(ik)> of from_unitaries for
    complex unitaries, unchecked. For unitaries it is a valid superchannel's
    C: a Gram matrix is Hermitian PSD, each psi_(ik) is a unit vector, and
    the diagonal block C[(i,k), (i,k')] = <U_k' 0| V_i^dag V_i |U_k 0> =
    <U_k' 0|U_k 0> is the same for every i."""
    m, d = us[0].shape[0], len(us)
    psi = np.zeros((m, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            psi[:, i * d + k] = vs[i] @ us[k][:, 0]
    return (psi.conj().T @ psi).T


def identity_superchannel(d: int) -> DephasingSuperchannel:
    """The all-ones correlation matrix: Xi[E] = E for every channel."""
    return DephasingSuperchannel(dim=d, c=np.ones((d * d, d * d), dtype=complex))


def sample(rng: Rng, d: int) -> DephasingSuperchannel:
    """Haar-random dephasing superchannel from random memory unitaries;
    valid by proof (see _correlation), so it is not re-validated. The 2d - 1
    unitaries, U_k from stream k and V_i from stream d + i (V_0 = I), come
    from one stacked QR (haar_unitaries), each drawn from its own stream."""
    haar = haar_unitaries([rng.derive(k) for k in range(2 * d) if k != d], d * d)
    vs = [np.eye(d * d, dtype=complex), *haar[d:]]
    return DephasingSuperchannel(dim=d, c=_correlation(haar[:d], vs))


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


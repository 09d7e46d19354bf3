"""Dense complex linear algebra primitives and bipartite index operations.

Conventions used across the package:

- Matrices are numpy arrays in row-major (C) order.
- A bipartite index pair (a, b) on dimensions (dimA, dimB) is flattened
  as a * dimB + b.
- Subsystems of a bipartite matrix are numbered 1 (left factor) and 2
  (right factor).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

TOL_HERM = 1e-10
TOL_UNIT = 1e-10
TOL_PSD = 1e-9
PIVOT_TOL = 1e-9
GRAM_TOL = 1e-8


def _as_complex(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return np.asarray(m, dtype=complex)


def assert_hermitian(m: np.ndarray) -> np.ndarray:
    """Return m as a complex array, raising if it has a non-finite entry or is
    not Hermitian within TOL_HERM. Every validator goes through here, so this
    is the package's one finiteness scan."""
    m = _as_complex(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square: {m.shape}")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} > {TOL_HERM:.1e}")
    return m


def _bipartite_view(m: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    da, db = int(shape[0]), int(shape[1])
    m = _as_complex(m)
    if m.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match bipartite shape {da}x{db}")
    return m.reshape(da, db, da, db)


def partial_trace(m: np.ndarray, shape: tuple[int, int], which: int) -> np.ndarray:
    """Trace out subsystem `which` (1 or 2) of a bipartite matrix."""
    m4 = _bipartite_view(m, shape)
    if which == 1:
        return np.trace(m4, axis1=0, axis2=2)
    if which == 2:
        return np.trace(m4, axis1=1, axis2=3)
    raise ValueError(f"which must be 1 or 2, got {which}")


def partial_transpose(m: np.ndarray, shape: tuple[int, int], which: int) -> np.ndarray:
    """Transpose the indices of subsystem `which` (1 or 2) of a bipartite matrix."""
    m4 = _bipartite_view(m, shape)
    da, db = int(shape[0]), int(shape[1])
    if which == 1:
        return m4.transpose(2, 1, 0, 3).reshape(da * db, da * db)
    if which == 2:
        return m4.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    raise ValueError(f"which must be 1 or 2, got {which}")


def reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Reorder entries of a d^2 x d^2 matrix: output (ij),(kl) = input (ik),(jl).

    The permutation is an involution; it converts between the bipartite
    (Jamiolkowski) index grouping and the superoperator grouping. It is also
    the realignment of a bipartite matrix: a product A (x) B reshuffles to
    the rank-1 matrix vec(A) vec(B^T)^T, which is the basis of the product
    test.
    """
    m = _as_complex(m)
    if m.shape != (d * d, d * d):
        raise ValueError(f"reshuffle needs a {d * d}x{d * d} matrix, got {m.shape}")
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, checked Hermitian first.

    Returns (w, v) with eigenvalues w ascending and unitary v such that
    m = v @ diag(w) @ v^dag.
    """
    return np.linalg.eigh(assert_hermitian(m))


def gram_vectors(c: np.ndarray) -> np.ndarray:
    """Vectors realizing a PSD matrix as a Gram matrix.

    Returns an n x n array whose i-th row v_i satisfies <v_j|v_i> = C_ij,
    so each ||v_i||^2 = C_ii. Eigenvalues below -TOL_PSD are an error.
    Eigenvalues at or below the numerical-rank floor n * eps * max(|w|, 1)
    (the threshold of numpy.linalg.matrix_rank) are roundoff of a true zero
    and set to 0, so a rank-deficient C yields exactly zero components
    instead of sqrt(roundoff) noise of order 1e-8.
    """
    w, v = herm_eig(c)
    if w.size and w.min() < -TOL_PSD:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e} < -{TOL_PSD:.1e}")
    floor = w.size * np.finfo(float).eps * max(float(np.abs(w).max(initial=0.0)), 1.0)
    return v * np.sqrt(np.where(w > floor, w, 0.0))


# An orthonormal basis vector is stored with its conjugate, made once when it
# joins the basis, so no projection conjugates it again.
_Basis = list[tuple[np.ndarray, np.ndarray]]


def _residual(vec: np.ndarray, basis: _Basis) -> np.ndarray:
    w = vec.astype(complex)
    for b, bc in basis:
        w = w - b * (bc @ w)
    return w


def _orthonormalize(first: np.ndarray, basis: _Basis) -> tuple[np.ndarray, np.ndarray]:
    # projected twice for numerical stability; first = _residual(vec, basis)
    w = _residual(first, basis)
    w = w / np.linalg.norm(w)
    return w, w.conj()


def complete_isometry(partial_map: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Unitary W with W @ source_k = target_k for every (source, target) pair.

    Such a W exists iff the two collections share a Gram matrix; a mismatch
    beyond GRAM_TOL raises. The construction is deterministic: pivoted
    orthogonalization with the same pivot order on both collections (largest
    residual norm first, stop below PIVOT_TOL; source residuals carry over
    between pivot rounds), then the orthogonal complement is filled by
    orthogonalizing standard basis vectors in index order on each side
    independently. W is n x n for vectors of length n.
    """
    # contiguous, as _residual's copies are: a strided view (a matrix column)
    # takes a different dot-product and norm kernel in the pivot rounds
    sources = [np.ascontiguousarray(s, dtype=complex).reshape(-1) for s, _ in partial_map]
    targets = [np.asarray(t, dtype=complex).reshape(-1) for _, t in partial_map]
    if not sources:
        raise ValueError("partial_map must contain at least one pair")
    n = sources[0].size
    if any(v.size != n for v in sources + targets):
        raise ValueError("all vectors must have the same length")

    s_mat = np.stack(sources, axis=1)
    t_mat = np.stack(targets, axis=1)
    gram_dev = np.abs(s_mat.conj().T @ s_mat - t_mat.conj().T @ t_mat).max()
    if gram_dev > GRAM_TOL:
        raise ValueError(
            f"Gram matrices differ by {gram_dev:.3e} > {GRAM_TOL:.1e}; no unitary maps sources to targets"
        )

    basis_s: _Basis = []
    basis_t: _Basis = []
    remaining = list(range(len(sources)))
    res = dict(enumerate(sources))  # residual of each remaining source
    while remaining:
        norms = [np.linalg.norm(res[j]) for j in remaining]
        best = int(np.argmax(norms))
        if norms[best] <= PIVOT_TOL:
            break
        j = remaining.pop(best)
        basis_s.append(_orthonormalize(res.pop(j), basis_s))
        basis_t.append(_orthonormalize(_residual(targets[j], basis_t), basis_t))
        b, bc = basis_s[-1]
        for i in remaining:
            res[i] = res[i] - b * (bc @ res[i])

    for basis in (basis_s, basis_t):
        for j in range(n):
            if len(basis) == n:
                break
            e = np.zeros(n, dtype=complex)
            e[j] = 1.0
            first = _residual(e, basis)
            if np.linalg.norm(first) > PIVOT_TOL:
                basis.append(_orthonormalize(first, basis))

    b_t = np.stack([b for b, _ in basis_t], axis=1)
    b_s_h = np.stack([bc for _, bc in basis_s], axis=1).T  # b_s^H, the layout of b_s.conj().T
    return b_t @ b_s_h

"""Dense/sparse matrix helpers: norms, SVD, pseudoinverse, vec/Kronecker utilities.

Dense matrices are float64 row-major numpy arrays; sparse matrices are scipy
CSR arrays. Both are validated at the API boundary by :func:`as_dense` and
:func:`as_csr` and treated as immutable afterwards.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Kronecker products are a test/oracle device only; refuse anything that
# would materialize a large system.
KRON_MAX_ENTRIES = 10**6


class KronSizeError(ValueError):
    """Kronecker product would exceed the materialization cap."""


def as_dense(M):
    """Validate and return a matrix as a float64 row-major 2-D array.

    Accepts array-likes and scipy sparse matrices. Raises ValueError on
    non-finite entries or wrong dimensionality.
    """
    if sp.issparse(M):
        M = M.toarray()
    A = np.ascontiguousarray(np.asarray(M, dtype=np.float64))
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN or Inf entries")
    return A


def as_csr(M):
    """Validate and return a matrix in canonical CSR form.

    Canonical form guarantees the row pointer is nondecreasing and column
    indices are strictly increasing within each row.
    """
    A = sp.csr_array(M, dtype=np.float64)
    A.sum_duplicates()
    A.sort_indices()
    if not np.all(np.isfinite(A.data)):
        raise ValueError("sparse matrix contains NaN or Inf entries")
    return A


def is_sparse(M):
    return sp.issparse(M)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of a matrix: ``u @ diag(sigma) @ vt`` reconstructs it.

    ``sigma`` is nonincreasing and nonnegative; ``u`` and ``vt.T`` have
    orthonormal columns.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    def reconstruct(self):
        return (self.u * self.sigma) @ self.vt


def frobenius_norm(M):
    """Frobenius norm sqrt(sum of squared entries) for dense or sparse input."""
    if sp.issparse(M):
        return float(np.sqrt(np.sum(M.data**2)))
    return float(np.linalg.norm(np.asarray(M, dtype=np.float64), "fro"))


def row_norms(M):
    """Euclidean norm of each row, as a 1-D array. Dense or sparse input."""
    if sp.issparse(M):
        sq = np.asarray(M.multiply(M).sum(axis=1)).ravel()
        return np.sqrt(sq)
    A = np.asarray(M, dtype=np.float64)
    return np.sqrt(np.sum(A * A, axis=1))


def col_norms(M):
    """Euclidean norm of each column, as a 1-D array. Dense or sparse input."""
    if sp.issparse(M):
        sq = np.asarray(M.multiply(M).sum(axis=0)).ravel()
        return np.sqrt(sq)
    A = np.asarray(M, dtype=np.float64)
    return np.sqrt(np.sum(A * A, axis=0))


def svd(M):
    """Thin singular value decomposition.

    Parameters
    ----------
    M : (m, n) array-like or sparse
        Matrix to decompose; densified if sparse.

    Returns
    -------
    SvdFactors
        Factors with ``sigma`` sorted nonincreasing.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the iteration fails to converge.
    """
    A = as_dense(M)
    if min(A.shape) < 1:
        raise ValueError("svd requires a nonempty matrix")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    return SvdFactors(u=u, sigma=s, vt=vt)


def default_rank_tol(M):
    """Relative rank cutoff: max(rows, cols) * machine epsilon."""
    m, n = np.shape(M)
    return max(m, n) * np.finfo(np.float64).eps


def pinv(M, rank_tol=None):
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below ``rank_tol * sigma_max`` are treated as zero.
    ``rank_tol`` defaults to ``max(rows, cols) * eps``.
    """
    A = as_dense(M)
    if rank_tol is None:
        rank_tol = default_rank_tol(A)
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    f = svd(A)
    s = f.sigma
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[1], A.shape[0]))
    keep = s > rank_tol * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (f.vt.T * s_inv) @ f.u.T


def sigma_extremes(M, rank_tol=None):
    """Largest singular value and smallest nonzero singular value.

    Values at or below ``rank_tol * sigma_max`` count as zero. Raises
    ValueError for a zero matrix.
    """
    A = as_dense(M)
    if rank_tol is None:
        rank_tol = default_rank_tol(A)
    s = svd(A).sigma
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("sigma_extremes undefined for the zero matrix")
    nonzero = s[s > rank_tol * s[0]]
    return float(s[0]), float(nonzero[-1])


def vec(X):
    """Stack the columns of X into a single column vector (rows*cols, 1)."""
    A = as_dense(X)
    return A.reshape((-1, 1), order="F")


def unvec(x, rows, cols):
    """Inverse of :func:`vec`: reshape a stacked vector back to (rows, cols)."""
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(A, B):
    """Kronecker product, capped at KRON_MAX_ENTRIES result entries.

    The cap keeps this a desk-scale oracle utility; solvers never build the
    product system.
    """
    A = as_dense(A)
    B = as_dense(B)
    entries = A.shape[0] * B.shape[0] * A.shape[1] * B.shape[1]
    if entries > KRON_MAX_ENTRIES:
        raise KronSizeError(
            f"Kronecker product would have {entries} entries "
            f"(cap {KRON_MAX_ENTRIES})"
        )
    return np.kron(A, B)

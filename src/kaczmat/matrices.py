"""Matrix helpers: validation, norms, pseudoinverse, singular values.

Every helper works on float64 row-major numpy arrays: it takes array-likes
and scipy sparse matrices alike, and densifies and validates its input once
at entry through :func:`as_dense`. :func:`as_csr` is the canonical CSR form
the Matrix Market reader gives a coordinate file.
"""

import numpy as np
import scipy.sparse as sp


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
    if not A.has_canonical_format:  # on a copy: A may share the arrays of M
        A = A.copy()
        A.sum_duplicates()  # sorts the indices too
    if not np.all(np.isfinite(A.data)):
        raise ValueError("sparse matrix contains NaN or Inf entries")
    return A


def frobenius_norm(M):
    """Frobenius norm sqrt(sum of squared entries)."""
    return float(np.linalg.norm(as_dense(M), "fro"))


def row_norms(M):
    """Euclidean norm of each row, as a 1-D array."""
    return np.linalg.norm(as_dense(M), axis=1)


def col_norms(M):
    """Euclidean norm of each column, as a 1-D array."""
    return np.linalg.norm(as_dense(M), axis=0)


def _nonzero(s, shape):
    """Which singular values s (descending) of a matrix of ``shape`` count as
    nonzero: those above the cutoff ``max(rows, cols) * eps * sigma_max``."""
    return s > max(shape) * np.finfo(np.float64).eps * s[0]


def pinv(M):
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below ``max(rows, cols) * eps * sigma_max`` are
    treated as zero.
    """
    A = as_dense(M)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[1], A.shape[0]))
    keep = _nonzero(s, A.shape)
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def sigma_extremes(M):
    """Largest singular value and smallest nonzero singular value.

    Values at or below ``max(rows, cols) * eps * sigma_max`` count as zero.
    Raises ValueError for a zero matrix.
    """
    A = as_dense(M)
    s = np.linalg.svd(A, full_matrices=False)[1]
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("sigma_extremes undefined for the zero matrix")
    nonzero = s[_nonzero(s, A.shape)]
    return float(s[0]), float(nonzero[-1])

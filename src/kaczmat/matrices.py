"""Matrix helpers: validation, norms, pseudoinverse, singular values.

Every helper works on float64 row-major numpy arrays: it takes array-likes
and scipy sparse matrices alike, and densifies and validates its input once
at entry through :func:`as_dense`. :func:`as_csr` is the canonical CSR form
the Matrix Market reader gives a coordinate file. :func:`pinv` inverts a
well-conditioned matrix through a Householder QR and falls back to the
truncated SVD on rank-deficient, ill-conditioned, zero and empty input.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

QR_PINV_LIMIT = 1e-3  # the largest ||R||_F ||R^-1||_F max(rows, cols) eps that pinv's QR takes


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


def _qr_pinv(A):
    """The pseudoinverse of a nonempty A whose every singular value lies
    more than 1 / ``QR_PINV_LIMIT`` times above ``pinv``'s cutoff, else None.

    With ``T = Q R`` a Householder QR of the tall orientation T of A (A, or
    A^T for wide A), a full-column-rank T has ``pinv(T) = R^-1 Q^T``. R has
    the singular values of A, so ``kappa_2(A) <= ||R||_F ||R^-1||_F``, and
    where that bound times ``max(rows, cols) eps`` is below
    ``QR_PINV_LIMIT``, sigma_min lies above the cutoff ``max(rows, cols)
    eps sigma_max`` by more than 1 / ``QR_PINV_LIMIT``: the truncated SVD
    would keep every singular value and give the same matrix up to
    rounding. As Q has orthonormal columns, the bound reads ``||R||_F`` as
    ``||A||_F`` and ``||R^-1||_F`` as ``||R^-1 Q^T||_F``. A singular R
    (``dtrtri``'s info > 0) or a bound that is not finite declines too.
    """
    rows, cols = A.shape
    wide = rows < cols
    qr, tau = lapack.dgeqrf(A.T if wide else A)[:2]
    R_inv, info = lapack.dtrtri(qr[:tau.size])  # reads R, the upper triangle
    if info != 0:
        return None
    # pinv(T)^T = Q R^-T, from R^-1's upper triangle
    P_T = blas.dtrmm(1.0, R_inv, lapack.dorgqr(qr, tau)[0], side=1, trans_a=1, overwrite_b=1)
    # Python floats: a bound that overflows is inf, not a warning
    bound = math.sqrt(float(np.vdot(A, A)) * float(np.vdot(P_T.T, P_T.T))) * max(rows, cols)
    if not bound * float(np.finfo(np.float64).eps) < QR_PINV_LIMIT:
        return None
    return P_T if wide else P_T.T


def pinv(M):
    """Moore-Penrose pseudoinverse.

    A matrix whose singular values all lie more than 1000 times above the
    cutoff ``max(rows, cols) * eps * sigma_max`` is inverted through a
    Householder QR of its tall orientation (``_qr_pinv``), within rounding
    of the truncated SVD's result. Any other input (rank-deficient,
    ill-conditioned, zero or empty) goes through the truncated SVD, where
    singular values at or below the cutoff are treated as zero.
    """
    A = as_dense(M)
    P = _qr_pinv(A) if A.size else None
    if P is not None:
        return P
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

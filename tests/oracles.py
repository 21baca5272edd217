"""Desk-scale test oracles: vec/unvec, a size-capped Kronecker product and
classical row-action on the materialized system kron(B^T, A) vec(X) = vec(C).

The solvers never build the product system; these exist only to check them
on small instances.
"""

import numpy as np

from kaczmat.matrices import as_dense

# refuse anything that would materialize a large system
KRON_MAX_ENTRIES = 10**6


class KronSizeError(ValueError):
    """Kronecker product would exceed the materialization cap."""


def vec(X):
    """Stack the columns of X into a single column vector (rows*cols, 1)."""
    return as_dense(X).reshape((-1, 1), order="F")


def unvec(x, rows, cols):
    """Inverse of :func:`vec`: reshape a stacked vector back to (rows, cols)."""
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(A, B):
    """Kronecker product, capped at KRON_MAX_ENTRIES result entries."""
    A = as_dense(A)
    B = as_dense(B)
    entries = A.shape[0] * B.shape[0] * A.shape[1] * B.shape[1]
    if entries > KRON_MAX_ENTRIES:
        raise KronSizeError(
            f"Kronecker product would have {entries} entries (cap {KRON_MAX_ENTRIES})"
        )
    return np.kron(A, B)


def rk_kronecker_step(xvec, M, cvec, row, row_norms_sq=None):
    """One classical row-action step on the vectorized system M x = c, with
    M the materialized product system. Returns the updated vector (modified
    in place when possible)."""
    x = np.asarray(xvec, dtype=np.float64)
    mrow = M[row]
    nr2 = row_norms_sq[row] if row_norms_sq is not None else float(mrow @ mrow)
    if nr2 == 0.0:
        raise ValueError(f"row {row} of the system matrix is zero")
    r = cvec[row] - mrow @ x
    x += (r / nr2) * mrow
    return x

"""Desk-scale test oracles: vec/unvec, a size-capped Kronecker product,
classical row-action on the materialized system kron(B^T, A) vec(X) = vec(C),
GRK run one step at a time, stopped by the error or by the residual, and
the trace CSV as ``csv.writer`` writes it, one row per record.

The solvers never build the product system nor run GRK's rank-1 update one
step at a time; these exist only to check them on small instances.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from kaczmat import solvers
from kaczmat.cli import TRACE_HEADER, _fmt
from kaczmat.matrices import as_dense
from kaczmat.sampling import sample_block

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


@dataclass
class GrkRun:
    X: np.ndarray
    iterations: int
    termination: str
    records: list  # (iteration, relative error, relative residual), both exact
    errors: list  # the exact relative error at X0 and after every step
    exact_at: list  # the steps whose stop value was the exact error, 0 for X0


def grk_oracle(problem, config):
    """``solve`` for GRK with ``X_star``, one step at a time: per step one
    row then one column draw and the scalar update, and the stop rules of
    the tracked error. Where ``_tracks_error`` says so, the error is kept
    by subtracting each step's decrease ``r s``, ``s = r / (||A_i||^2
    ||B_j||^2)``; it is exact at X0, every ``RESYNC_EVERY`` steps, on
    records where ``_keeps_residual`` recomputes the residual, when the
    kept value less ``DROP_RTOL`` of the decrease since the last exact
    value lies below ``re_tolerance + CONFIRM_BAND``, and from the first
    exact value below that on. Where the residual is kept, records do not
    make the error exact, and the decrease takes in ``2 s h``, with ``h =
    A_i X* B_j - C_ij`` the residual of X_star. The records hold the exact
    error and residual. ``max_seconds`` is ignored."""
    state = solvers.prepare_state(problem, config)
    A, B, C, X_star, X = problem.A, problem.B, problem.C, problem.X_star, state.X
    xstar_sq, c_norm = np.linalg.norm(X_star) ** 2, np.linalg.norm(C)
    band = config.re_tolerance + solvers.CONFIRM_BAND
    errors = [float(np.linalg.norm(X - X_star) ** 2 / xstar_sq)]
    value, dropped = errors[0], 0.0
    form = solvers._keeps_residual(problem, config, True)
    tracking = solvers._tracks_error(problem, config, True, form) and value >= band
    records_exact = form is None
    termination = "tolerance" if value < config.re_tolerance else None
    records, exact_at, k = [], [0], 0
    while termination is None and k < config.max_iters:
        i = sample_block(state.dist_rows, state.rng)
        j = sample_block(state.dist_cols, state.rng)
        a, b = A[i], np.ascontiguousarray(B[:, j])
        d = state.row_norms_sq[i] * state.col_norms_sq[j]
        r = C[i, j] - a @ X @ b
        X += (r / d) * (a[:, None] * b)
        k += 1
        errors.append(float(np.linalg.norm(X - X_star) ** 2 / xstar_sq))
        record = k % config.trace_every == 0 or k == config.max_iters
        exact = not (tracking and k % solvers.RESYNC_EVERY and not (record and records_exact))
        if not exact:
            drop = r * r / d
            if not records_exact:
                drop += 2.0 * (r / d) * (a @ X_star @ b - C[i, j])
            value, dropped = value - drop / xstar_sq, dropped + drop / xstar_sq
            exact = not value - solvers.DROP_RTOL * dropped >= band
        if exact:
            value, dropped = errors[-1], 0.0
            exact_at.append(k)
            tracking = tracking and value >= band
            if not math.isfinite(value):
                termination = "diverged"
            elif value < config.re_tolerance:
                termination = "tolerance"
        if termination or record:
            resid = np.linalg.norm(C - (A @ X) @ B) / c_norm
            records.append((k, errors[-1], float(resid)))
    return GrkRun(X, k, termination or "max_iters", records, errors, exact_at)


def grk_residual_oracle(problem, config):
    """``solve`` for GRK without ``X_star``, one step at a time: per step one
    row then one column draw, the scalar update and ``||C - A X B||_F /
    ||C||_F`` computed in full, which stops the run. Returns a ``GrkRun``
    whose records hold (iteration, None, relative residual) and whose
    ``errors`` hold the relative residual at X0 and after every step, all
    exact. ``max_seconds`` is ignored."""
    state = solvers.prepare_state(problem, config)
    A, B, C, X = problem.A, problem.B, problem.C, state.X
    unit = np.linalg.norm(C, "fro") or 1.0
    residuals = [float(np.linalg.norm(C, "fro") / unit)]
    termination = "tolerance" if residuals[0] < config.re_tolerance else None
    records, k = [], 0
    while termination is None and k < config.max_iters:
        i = sample_block(state.dist_rows, state.rng)
        j = sample_block(state.dist_cols, state.rng)
        a, b = A[i], np.ascontiguousarray(B[:, j])
        r = C[i, j] - a @ X @ b
        X += (r / (state.row_norms_sq[i] * state.col_norms_sq[j])) * (a[:, None] * b)
        k += 1
        residuals.append(float(np.linalg.norm(C - (A @ X) @ B, "fro") / unit))
        if not math.isfinite(residuals[-1]):
            termination = "diverged"
        elif residuals[-1] < config.re_tolerance:
            termination = "tolerance"
        if termination or k % config.trace_every == 0 or k == config.max_iters:
            records.append((k, None, residuals[-1]))
    return GrkRun(X, k, termination or "max_iters", records, residuals, list(range(k + 1)))


def grk_chunk_iterates(problem, X, i, j, r):
    """The iterates after each GRK step at rows ``i`` of A and columns
    ``j`` of B with sampled residuals ``r``, from X, one rank-1 update at a
    time: X + sum_{l <= k} r_l A_i_l^T B_j_l^T / (||A_i_l||^2 ||B_j_l||^2)."""
    X = np.array(X, dtype=np.float64)
    for row, col, r_k in zip(i, j, r):
        a, b = problem.A[row], problem.B[:, col]
        X += (r_k / ((a @ a) * (b @ b))) * np.outer(a, b)
        yield X.copy()


def grk_step_oracle(problem, X, i, j):
    """GRK steps at rows ``i`` of A and columns ``j`` of B from X, one
    rank-1 update at a time: the residuals ``C_ij - A_i X B_j`` they sample
    and the iterate after each."""
    r, iterates = [], []
    for row, col in zip(i, j):
        r.append(problem.C[row, col] - problem.A[row] @ X @ problem.B[:, col])
        X, = grk_chunk_iterates(problem, X, [row], [col], r[-1:])
        iterates.append(X)
    return r, iterates


def write_trace_csv_oracle(report, path):
    """The trace CSV of ``report`` as ``csv.writer`` writes it, one row per
    record, zipped from the columns of ``report.trace``: the reference for
    ``cli.write_trace_csv``, which formats the columns in one block."""
    trace = report.trace
    with open(path, "wt", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows([k, _fmt(error), _fmt(resid), _fmt(elapsed)]
                         for k, error, resid, elapsed in zip(trace.iteration,
                                                             trace.relative_error,
                                                             trace.relative_residual,
                                                             trace.elapsed))

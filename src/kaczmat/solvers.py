"""Iterative solvers for consistent linear matrix equations A X B = C.

Four randomized methods share one driver:

* ``grk``            -- rank-1 update from one sampled row of A and column of B.
* ``grbk``           -- projection onto the solution set of the sampled
                        sketched equation, via block pseudoinverses.
* ``grabk_const``    -- pseudoinverse-free weighted average of single-index
                        updates with a constant stepsize.
* ``grabk_adaptive`` -- same averaged update with a per-iteration stepsize
                        computed from the sampled residual.

All methods start from X0 = 0 and converge to the minimal Frobenius norm
solution pinv(A) C pinv(B). Sampling uses contiguous partitions with block
probabilities proportional to squared Frobenius norms.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .matrices import as_dense, col_norms, pinv, row_norms
from .rates import beta_max, gamma_max
from .sampling import (
    SeededRng,
    check_count,
    check_real,
    check_weights,
    frobenius_block_probs,
    make_partition,
    sample_block,
)

GRK = "grk"
GRBK = "grbk"
GRABK_CONST = "grabk_const"
GRABK_ADAPTIVE = "grabk_adaptive"

METHODS = (GRK, GRBK, GRABK_CONST, GRABK_ADAPTIVE)

WEIGHT_FROBENIUS = "frobenius"
WEIGHT_UNIFORM = "uniform"

# Defaults: eta 1.95 for the constant stepsize (near the stability edge at 2),
# 1.0 (alpha = L_k) for the adaptive one.
DEFAULT_ETA = {GRABK_CONST: 1.95, GRABK_ADAPTIVE: 1.0}

# A kept stop metric (see _Metric) drifts from the exact one by rounding,
# for at most RESYNC_EVERY steps. CONFIRM_BAND is about 500 times the largest
# gap seen between a kept and an exact value (2e-15). DROP_RTOL covers the
# rounding of a computed decrease, about eps kappa(A_I) kappa(B_J), for
# blocks conditioned up to about 1e9. DRIFT_LIMIT caps a kept residual's
# bound on that rounding (see _Residual) below the 1e-14 its records keep.
# DECREASE_OVERHEAD is the call cost of a block decrease, counted as the
# entries of X that an exact error reads in the same time (about 6 us at
# 0.75 ns an entry, one thread).
RESYNC_EVERY = 256
CONFIRM_BAND = 1e-12
DROP_RTOL = 1e-6
DRIFT_LIMIT = 5e-15
DECREASE_OVERHEAD = 8192
DRAW_CHUNK = 1024  # the block pairs of as many steps come from one draw
GRK_CHUNK = 64  # the most GRK steps one grk_step call runs while the stop metric is kept
EPS = np.finfo(np.float64).eps


@dataclass
class Problem:
    """A consistent matrix equation A X B = C.

    A is (m, p), B is (q, n) and C is (m, n), each kept as a float64
    row-major array. A scipy sparse A or B (CSR, COO, ...) is densified
    here, adding at most ``mp + qn - nnz`` floats to the peak: the steps
    act on dense blocks, and a run keeps every drawn block with its factor
    dense anyway. ``X_star``, when known, is the minimal-norm solution used for
    relative-error termination; it must satisfy the equation to 1e-8
    relative accuracy. ``X_drawn`` is the matrix C was built from when the
    problem is synthetic; it differs from ``X_star`` when A or B is
    rank-deficient.
    """

    A: object
    B: object
    C: np.ndarray
    X_star: np.ndarray | None = None
    X_drawn: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.A = as_dense(self.A)
        self.B = as_dense(self.B)
        self.C = as_dense(self.C)
        m, p = self.A.shape
        q, n = self.B.shape
        if self.C.shape != (m, n):
            raise ValueError(
                f"C has shape {self.C.shape}, expected {(m, n)} from A {self.A.shape} "
                f"and B {self.B.shape}"
            )
        if self.X_star is not None:
            self.X_star = as_dense(self.X_star)
            if self.X_star.shape != (p, q):
                raise ValueError(
                    f"X_star has shape {self.X_star.shape}, expected {(p, q)}"
                )
            resid = np.linalg.norm(self.A @ self.X_star @ self.B - self.C, "fro")
            if resid > 1e-8 * np.linalg.norm(self.C, "fro") + 1e-300:
                raise ValueError(
                    f"X_star does not solve the equation: residual {resid:.3e}"
                )

    @property
    def shape(self):
        """(m, p, q, n)."""
        return (*self.A.shape, *self.B.shape)


@dataclass
class SolverConfig:
    """Method selection plus sampling, stepsize, and termination settings.

    ``eta`` defaults per method (1.95 constant, 1.0 adaptive). ``tau1`` and
    ``tau2`` are row/column block sizes; the single-index method sets both
    to 1. ``unsafe_stepsize`` lifts the eta < 2 guard (no convergence
    guarantee). ``max_seconds`` is an optional advisory wall-clock cap.
    """

    method: str = GRBK
    tau1: int = 1
    tau2: int = 1
    eta: float | None = None
    weight_scheme: str = WEIGHT_FROBENIUS
    max_iters: int = 50000
    re_tolerance: float = 1e-6
    seed: int = 0
    trace_every: int = 1
    unsafe_stepsize: bool = False
    max_seconds: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.weight_scheme not in (WEIGHT_FROBENIUS, WEIGHT_UNIFORM):
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")
        for name, low in (("tau1", 1), ("tau2", 1), ("max_iters", 0), ("trace_every", 1)):
            setattr(self, name, check_count(name, getattr(self, name), low))
        self.seed = SeededRng.valid_seed(self.seed)
        check_real("re_tolerance", self.re_tolerance)
        if self.max_seconds is not None:
            check_real("max_seconds", self.max_seconds, positive=False)
        if self.method == GRK:
            self.tau1 = self.tau2 = 1
        eta = self.resolved_eta()
        grabk = self.method in (GRABK_CONST, GRABK_ADAPTIVE)
        check_real("eta", eta, positive=grabk)
        if grabk and eta >= 2 and not self.unsafe_stepsize:
            raise ValueError(f"eta={eta} is outside (0, 2); set unsafe_stepsize=True "
                             "(CLI: --unsafe-stepsize) to force it")

    def resolved_eta(self):
        if self.eta is not None:
            return self.eta
        return DEFAULT_ETA.get(self.method, 1.0)


@dataclass
class Trace:
    """A run's records as four equal-length columns, one entry per record:
    its iteration, squared relative error (None without ``X_star``),
    relative residual and the loop's wall time at it."""

    iteration: list = field(default_factory=list)
    relative_error: list = field(default_factory=list)
    relative_residual: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)


@dataclass
class ConvergenceReport:
    """Outcome of one solve: final iterate, trace, and termination reason."""

    trace: Trace
    termination: str  # "tolerance" | "max_iters" | "time_limit" | "diverged"
    X: np.ndarray
    iterations: int
    stepsizes: list | None = None  # adaptive L_k of each step that moved X, else None

    @property
    def final_relative_error(self):
        return self.trace.relative_error[-1] if self.trace.iteration else None

    @property
    def final_relative_residual(self):
        return self.trace.relative_residual[-1] if self.trace.iteration else None


def relative_error(X, X_star):
    """Squared relative error ||X - X_star||_F^2 / ||X_star||_F^2, for X and
    X_star of one shape."""
    X = np.asarray(X, dtype=np.float64)
    X_star = np.asarray(X_star, dtype=np.float64)
    if X.shape != X_star.shape:
        raise ValueError(f"X has shape {X.shape}, X_star {X_star.shape}")
    denom = float(np.linalg.norm(X_star, "fro") ** 2)
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference solution")
    return _error(X, X_star, denom)


@dataclass
class IterationState:
    """Prepared per-run caches: the iterate plus norms, partitions, weights."""

    problem: Problem
    config: SolverConfig
    X: np.ndarray
    rng: SeededRng
    eta: float
    row_norms_sq: np.ndarray
    col_norms_sq: np.ndarray
    partition_rows: object = None
    partition_cols: object = None
    dist_rows: object = None
    dist_cols: object = None
    row_weights_hat: list = field(default_factory=list)  # u_i / ||A_i||^2
    col_weights_hat: list = field(default_factory=list)  # v_j / ||B_j||^2
    row_hat_columns: list = field(default_factory=list)  # row_weights_hat shaped (tau1, 1)
    alpha_const: float | None = None
    row_blocks: list = field(default_factory=list)  # (I, slice, A_I, G_I, S_I) or None
    col_blocks: list = field(default_factory=list)  # (J, slice, B_J, H_J, T_J) or None
    stepsizes: list | None = None  # GRABK-adaptive's L, from _block_steps
    weighted: np.ndarray | None = None  # W = u_hat R v_hat of the last grabk_step
    cols_t: np.ndarray | None = None  # GRK's B^T, C-ordered: B's columns are its rows
    gathered: tuple | None = None  # (B_S, C_S) of the last grk_step chunk


def _hat_weights(u, norms_sq):
    """u_hat = u / norms_sq for the weights u on one block, 0 on a zero
    row/column."""
    return np.where(norms_sq > 0.0, u / np.where(norms_sq > 0.0, norms_sq, 1.0), 0.0)


def _caller_hats(u, norms_sq, label):
    """``_hat_weights`` of caller-given weights u on one block, after checking
    that u is a weight vector with no weight on a zero row/column."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != norms_sq.shape:
        raise ValueError(f"{label} has length {u.size}, expected {norms_sq.size}")
    check_weights(label, u, 1e-10)
    if np.any((norms_sq == 0.0) & (u > 0.0)):
        raise ValueError(f"{label}: positive weight on a zero row/column")
    return _hat_weights(u, norms_sq)


def _block_hats(norms_sq, partition, scheme):
    """u_hat per block for the weights u (sum 1) of ``scheme``; None for a
    zero block under Frobenius weights, which is never sampled."""
    hats = []
    for b in range(partition.n_blocks):
        ns = norms_sq[partition.block_slice(b)]
        if scheme == WEIGHT_FROBENIUS:
            total = ns.sum()
            u = ns / total if total > 0.0 else None
        elif np.any(ns == 0.0):
            raise ValueError("uniform weights require nonzero rows/columns in every block")
        else:
            u = np.full(ns.size, 1.0 / ns.size)
        hats.append(None if u is None else _hat_weights(u, ns))
    return hats


def prepare_state(problem, config):
    """Build the caches one run needs: norms, partitions, weights, stepsize."""
    A, B = problem.A, problem.B
    m, p = A.shape
    q, n = B.shape
    rns = row_norms(A) ** 2
    cns = col_norms(B) ** 2
    state = IterationState(
        problem=problem,
        config=config,
        X=np.zeros((p, q)),
        rng=SeededRng(config.seed, stream=1),
        eta=config.resolved_eta(),
        row_norms_sq=rns,
        col_norms_sq=cns,
        stepsizes=[] if config.method == GRABK_ADAPTIVE else None,
        cols_t=np.ascontiguousarray(B.T) if config.method == GRK else None,
    )
    state.partition_rows = make_partition(m, config.tau1, "tau1")
    state.partition_cols = make_partition(n, config.tau2, "tau2")
    state.dist_rows = frobenius_block_probs(A, state.partition_rows, "rows", rns)
    state.dist_cols = frobenius_block_probs(B, state.partition_cols, "cols", cns)
    state.row_blocks = [None] * state.partition_rows.n_blocks
    state.col_blocks = [None] * state.partition_cols.n_blocks

    if config.method in (GRABK_CONST, GRABK_ADAPTIVE):
        state.row_weights_hat = _block_hats(rns, state.partition_rows,
                                            config.weight_scheme)
        state.col_weights_hat = _block_hats(cns, state.partition_cols,
                                            config.weight_scheme)
        state.row_hat_columns = [None if u is None else u[:, None]
                                 for u in state.row_weights_hat]
    if config.method == GRABK_CONST:
        # ||U||_F^2 <= lam_A lam_B u_hat (R o R) v_hat, with lam_A the largest
        # sigma_max^2(D_u_hat^{1/2} A_I) over blocks, so every step lowers the
        # error while eta < 2
        if config.weight_scheme == WEIGHT_FROBENIUS:
            lam_a = beta_max(A, state.partition_rows, "rows") ** 2
            lam_b = beta_max(B, state.partition_cols, "cols") ** 2
        else:
            lam_a = gamma_max(A, state.partition_rows, "rows", per_index=True)
            lam_b = gamma_max(B, state.partition_cols, "cols", per_index=True)
        state.alpha_const = state.eta / (lam_a * lam_b)
    return state


def _block(state, rows, index, method):
    """Row block ``index`` of A (``rows``) or column block of B, its factor
    in the update ``G_I M H_J`` of ``method`` (``pinv`` for GRBK, the
    transpose for GRABK) and, for GRABK-adaptive, whose stepsize reads it,
    the factor's ``_gram_factor`` (None for the others). Raises ValueError
    on a zero block."""
    block = state.problem.A[index] if rows else state.problem.B[:, index]
    if not block.any():
        raise ValueError("sampled block of A or B is zero")
    factor = pinv(block) if method == GRBK else block.T
    return block, factor, (_gram_factor(rows, factor) if method == GRABK_ADAPTIVE else None)


def _gram_factor(rows, factor):
    """The triangular Gram factor of a block factor: the R of a QR of G_I
    (``rows``) or of H_J^T, so that ``S_I^T S_I = G_I^T G_I`` and ``T_J^T
    T_J = H_J H_J^T``. These give ``||G_I M H_J||_F`` as ``||S_I M
    T_J^T||_F`` (``_gram_sq``), tau-sized and without squaring the
    condition of the block. It is the R of LAPACK's ``dgeqrf``, bitwise
    that of ``np.linalg.qr(mode="r")``, for about 10 instead of 16 us on a
    40x15 block."""
    qr = lapack.dgeqrf(factor if rows else factor.T)[0]
    return np.triu(qr[:min(qr.shape)])


def _sampled_blocks(state, I, J, method):
    """``(A_I, G_I, S_I, B_J, H_J, T_J, C_IJ)`` for the index arrays I and
    J, as ``solve`` hands them to the GRBK and GRABK kernels (S_I and T_J
    None but for GRABK-adaptive)."""
    return (*_block(state, True, I, method), *_block(state, False, J, method),
            state.problem.C[np.ix_(I, J)])


# The block steps and the kept residual multiply by ndarray.dot, not @: the
# same dgemm, for about 0.5 us less a call at tau 15. They sum squares by
# ndarray.dot of raveled arrays, the sum np.vdot takes, without its wrapper.
# Small steps pay for calls, not flops.
def _gram_sq(left, M, right):
    """``||G_I M H_J||_F^2`` from the Gram factors ``left`` = S_I and
    ``right`` = T_J of the blocks: ``||S_I M T_J^T||_F^2``, tau-sized."""
    image = left.dot(M).dot(right.T).ravel()
    return float(image.dot(image))


def _move(X, c, left, M, right):
    """``X += c (left M) right`` in place: one dgemm into the Fortran view
    X.T, handed ``right`` as whichever of it and its transpose is Fortran-
    ordered, so that no operand is copied and no p x q product is formed."""
    XT = X.T
    right, trans = (right, 1) if right.flags.f_contiguous else (right.T, 0)
    # beta 1, c, trans_a, trans_b and overwrite_c passed by position, which
    # saves about 0.6 us a call over keywords: small steps pay for calls
    out = blas.dgemm(c, right, left.dot(M).T, 1.0, XT, trans, 0, 1)
    if out is not XT:  # X is not C-ordered: BLAS updated a copy
        X[...] = out.T


def grk_step(state, i, j, _prefix=None):
    """GRK steps at rows i of A and columns j of B, in order; returns the
    array of sampled residuals r = C_ij - A_i X B_j they applied.

    X <- X + A_i^T (C_ij - A_i X B_j) B_j^T / (||A_i||^2 ||B_j||^2)

    Index arrays of length K run K steps as one chunk; scalar i and j are a
    chunk of one. Sampling does not depend on X, so with ``a_k = A[i_k]``,
    ``b_k = B[:, j_k]``, ``d_k = ||a_k||^2 ||b_k||^2`` and ``s_k = r_k /
    d_k``, step k's residual is ``C[i_k, j_k] - a_k X b_k - sum_{l<k} s_l
    (a_k . a_l)(b_l . b_k)``, X the iterate before the chunk: s solves one
    lower-triangular K x K system, the Hadamard product of the Gram
    matrices of ``A_S = A[i]`` and ``B_S = B[:, j]`` with diagonal d. Then
    ``X += A_S[:c]^T diag(s[:c]) B_S[:, :c]^T`` applies the first c steps,
    and r[:c] = s[:c] d[:c] comes back. c is K, or ``_prefix(i, j, r, s)``,
    which ``_Error.prefix`` and ``_Residual.prefix`` read each step's value
    from; ``state.gathered`` holds B_S and ``C_S = C[i, j]`` for them.
    Rows are gathered by ``take``, B's columns as rows of ``state.cols_t``,
    the C-ordered B^T of a GRK run (the F-ordered view B^T on another
    state), which gives the same F-ordered q x K array as ``B[:, j]``. The
    chunk runs as a few BLAS-3 calls what its steps run as about 2K BLAS-2
    calls, and rounds otherwise: X is within 1e-13 relative of the steps
    run one by one (about 1e-15 on well-conditioned problems).
    """
    i, j = np.atleast_1d(i), np.atleast_1d(j)
    rns, cns = state.row_norms_sq.take(i), state.col_norms_sq.take(j)
    if not (rns.all() and cns.all()):
        raise ValueError("sampled row of A or column of B is zero")
    d = rns * cns
    cols_t = state.problem.B.T if state.cols_t is None else state.cols_t
    A_S, B_S = state.problem.A.take(i, axis=0), cols_t.take(j, axis=0).T
    C_S = state.problem.C[i, j]
    state.gathered = B_S, C_S
    gram = (A_S @ A_S.T) * (B_S.T @ B_S)
    gram.flat[::d.size + 1] = d
    rhs = C_S - np.sum((A_S @ state.X) * B_S.T, axis=1)
    s = blas.dtrsv(gram.T, rhs, lower=1)  # gram is symmetric: gram.T is its Fortran view
    r = s * d
    c = d.size if _prefix is None else _prefix(i, j, r, s)
    state.X += (A_S[:c].T * s[:c]) @ B_S[:, :c].T
    return r[:c]


def grbk_step(state, I, J, _blocks=None):
    """Project the iterate onto the solution set of the sampled sketched
    equation A_I X B_J = C_IJ; returns the sampled residual block R_IJ.

    X <- X + pinv(A_I) (C_IJ - A_I X B_J) pinv(B_J)

    ``_blocks`` is ``(A_I, pinv(A_I), S_I, B_J, pinv(B_J), T_J, C_IJ)`` as
    ``solve`` keeps them per block; without it they are computed here. X
    takes the update in place (``_move``).
    """
    A_I, pa, _, B_J, pb, _, C_IJ = _blocks or _sampled_blocks(state, np.asarray(I),
                                                              np.asarray(J), GRBK)
    R = C_IJ - A_I.dot(state.X).dot(B_J)
    _move(state.X, 1.0, pa, R, pb)
    return R


def _grabk(state, I, J, u, v, blocks, hats, adaptive):
    """The body of every GRABK kernel: ``(R, W, L, G_I, H_J)`` with R the
    sampled residual block, W = u_hat R v_hat, so that the step moves X by c
    U with U = G_I W H_J = A_I^T W B_J^T, and, when ``adaptive``, L = <W, R>
    / ||U||_F^2 (<W, R> = u_hat (R o R) v_hat), None when U is zero (every
    sampled residual is). U is never formed: ``||U||_F^2`` is ``||S_I W
    T_J^T||_F^2`` from the blocks' Gram factors, and the caller adds c U to
    X by ``_move``. ``blocks`` and ``hats`` are as ``solve`` keeps them, u_hat
    shaped (tau1, 1) (a 1-D u_hat is reshaped); without ``hats`` the
    caller's weights u and v are checked and hatted here."""
    if hats is None:
        I, J = np.asarray(I), np.asarray(J)
        hats = (_caller_hats(u, state.row_norms_sq[I], "row weights"),
                _caller_hats(v, state.col_norms_sq[J], "column weights"))
    u_hat, v_hat = hats
    if u_hat.ndim == 1:  # u_hat R would broadcast along R's rows
        u_hat = u_hat[:, None]
    A_I, G_I, S_I, B_J, H_J, T_J, C_IJ = blocks or _sampled_blocks(
        state, np.asarray(I), np.asarray(J), GRABK_ADAPTIVE if adaptive else GRABK_CONST)
    R = C_IJ - A_I.dot(state.X).dot(B_J)
    W = u_hat * R * v_hat
    if not adaptive:
        return R, W, None, G_I, H_J
    denom = _gram_sq(S_I, W, T_J)
    L = float(np.vdot(W, R)) / denom if denom != 0.0 else None
    return R, W, L, G_I, H_J


def grabk_step(state, I, J, u, v, alpha, _blocks=None, _hats=None):
    """Weighted-average update over all pairs (i, j) in the sampled blocks.

    Equivalent to summing the rank-1 single-index updates scaled by
    u_i v_j, but computed in compact matrix form: X += alpha A_I^T W B_J^T
    with W = u_hat R_IJ v_hat, as one in-place product. Weights must each
    sum to 1 over their block. Returns the sampled residual block R_IJ.

    ``_blocks`` is ``(A_I, A_I^T, S_I, B_J, B_J^T, T_J, C_IJ)`` and
    ``_hats`` the prepared ``(u_hat, v_hat)``, as ``solve`` keeps them. W
    is left in ``state.weighted`` for the stop metrics of ``solve``.
    """
    R, W, _, G_I, H_J = _grabk(state, I, J, u, v, _blocks, _hats, False)
    _move(state.X, alpha, G_I, W, H_J)
    state.weighted = W
    return R


def adaptive_stepsize(state, I, J, u, v):
    """Per-iteration stepsize ratio for the averaged update.

    Returns (L, alpha) with alpha = eta * L, where L is the weighted
    residual energy over the squared norm of the update direction. Returns
    None when every residual scalar in the sampled block is zero (the block
    is already solved); the caller should skip the update.
    """
    L = _grabk(state, I, J, u, v, None, None, True)[2]
    return None if L is None else (L, state.eta * L)


def _grabk_adaptive_apply(state, I, J, u_hat, v_hat, _blocks=None):
    """Fused adaptive step; returns (L, R_IJ, W) with W = u_hat R_IJ v_hat,
    and L None when the block is solved and X left unchanged. ``_blocks``
    is as for ``grabk_step``."""
    R, W, L, G_I, H_J = _grabk(state, I, J, None, None, _blocks, (u_hat, v_hat), True)
    if L is not None:
        _move(state.X, state.eta * L, G_I, W, H_J)
    return L, R, W


def _relative_residual(residual, X):
    """The exact value ||C - A X B||_F / unit of the ``_Residual``
    ``residual`` at X, and its K = K_C - T_A X T_B^T: C - (A X) B where both
    bases are the identity, and no m x n array where A and B^T are tall."""
    K = (residual.maps[0] @ X) @ residual.maps[1].T
    np.subtract(residual.base, K, out=K)
    return residual.read(K), K


def _keeps_residual(problem, config, use_re):
    """Whether ``solve`` keeps R = C - A X B up to date by a low-rank
    update per step (``_Residual``) instead of recomputing it in full when
    it needs its norm.

    It keeps R where that costs fewer flops. A full residual costs ``m p q
    + q n m``, needed every step without ``X_star``, else every
    ``trace_every``. The kept residual is ``m' x n'``, with ``m' = min(m,
    p)`` and ``n' = min(q, n)``: each step updates it, ``m' t1 t2 + m' t2
    n'`` flops, and each value read costs ``m' n'``. A tie goes to
    recomputing.
    """
    m, p = problem.A.shape
    q, n = problem.B.shape
    t1, t2 = config.tau1, config.tau2
    rows, cols = min(m, p), min(q, n)
    every = config.trace_every if use_re else 1
    keep = every * (rows * t1 * t2 + rows * t2 * cols) + rows * cols
    return keep < m * p * q + q * n * m


def _tracks_error(problem, config, use_re, keeps):
    """Whether ``solve`` tracks ``||X - X_star||_F^2`` by the decrease of
    each step between exact checks instead of computing it on every step.

    It does only with ``X_star``: GRK unless every step is a record that
    recomputes the residual (``_keeps_residual``'s ``keeps`` is False); a
    block method, whose records read the exact error, with ``trace_every >
    1`` when a decrease costs less than the exact error, which reads the
    ``p q`` entries of X. GRABK-adaptive's reads ``t1 t2`` numbers; GRBK's
    and GRABK-constant's run two small products, about ``t1 t2 (min(t1, p)
    + min(t2, q))`` flops, which BLAS runs about 8 times faster per flop
    than the error reads an entry. Each block decrease also pays
    ``DECREASE_OVERHEAD`` in calls.
    """
    if not use_re or config.trace_every == 1 and (config.method != GRK or not keeps):
        return False
    if config.method == GRK:
        return True
    p, q = problem.X_star.shape
    t1, t2 = config.tau1, config.tau2
    work = t1 * t2
    if config.method != GRABK_ADAPTIVE:
        work = work * (min(t1, p) + min(t2, q)) // 8
    return work + DECREASE_OVERHEAD < p * q


def _cache_block(state, rows, b):
    """Fill and return the entry of row block ``b`` of A (``rows``) or of
    column block ``b`` of B: its index array and slice, then ``_block``'s
    ``(A_I, G_I, S_I)`` or ``(B_J, H_J, T_J)``."""
    partition = state.partition_rows if rows else state.partition_cols
    index = partition.block(b)
    entry = (index, partition.block_slice(b),
             *_block(state, rows, index, state.config.method))
    (state.row_blocks if rows else state.col_blocks)[b] = entry
    return entry


def _error(X, X_star, xstar_sq):
    """||X - X_star||_F^2 / xstar_sq, with xstar_sq = ||X_star||_F^2 a float:
    bitwise ``np.linalg.norm(X - X_star, "fro") ** 2 / xstar_sq``, without
    its wrapper. The sum runs in memory order (``ravel(order="K")``), as
    numpy's norm sums."""
    d = (X - X_star).ravel(order="K")
    return math.sqrt(d.dot(d)) ** 2 / xstar_sq


def _error_drop(method, sampled, weighted, gram_r, gram_c, c, eta):
    """||X - X*||_F^2 before a step minus after it, from what the step
    handed over: the residual ``sampled`` (None for a solved adaptive
    block), for GRABK also ``weighted`` = W = u_hat R v_hat, the stepsize
    ``c`` and the cached Gram factors S_I, T_J of the sampled blocks
    (``_block``), which give ``||G_I M H_J||_F^2`` as ``_gram_sq``.

    GRBK projects X orthogonally onto a set that holds X*, so the error
    falls by ||G_I R H_J||_F^2 = ||S_I R T_J^T||_F^2 (GRK's comes from
    ``_Error.prefix``). GRABK moves X by c U with
    U = A_I^T (u_hat R v_hat) B_J^T and <X - X*, U> = -u_hat (R o R) v_hat,
    so it falls by 2 c num - c^2 ||U||_F^2, which is eta (2 - eta) num L
    for the adaptive c = eta L with L = num / ||U||_F^2.
    """
    if sampled is None:
        return 0.0
    if method == GRBK:
        return _gram_sq(gram_r, sampled, gram_c)
    num = float(np.vdot(weighted, sampled))
    if method == GRABK_ADAPTIVE:
        return c * (2.0 - eta) * num
    return c * (2.0 * num - c * _gram_sq(gram_r, weighted, gram_c))


class _Metric:
    """A stop metric kept from one step to the next between exact values.

    A subclass caches an ``image`` of each block factor G_I or H_J when its
    block is first drawn, from the block's cache entry, moves its value by
    one block step (``advance``, from the residual R the step sampled and
    the M of its update ``c G_I M H_J``, which the step hands over) or by
    GRK steps (``advance_grk``, with the values ``prefix`` proposed for a
    chunk), recomputes it
    (``exact``) and keeps ``slack``, how far it may lie above the exact one.
    ``after_step`` holds the one rule for when a value is exact: every
    ``RESYNC_EVERY`` steps; on the steps ``due`` for a record when
    ``records_exact``; whenever the kept value less ``slack`` is below
    ``band`` or NaN; and from the first exact value below ``band`` on. With
    ``tracking`` False from the start, every value is exact. A metric with
    the band ``-inf`` never stops the run, so only records read it: between
    them it moves without reading its value.
    """

    records_exact = False
    slack = 0.0

    def __init__(self, state, tracking, band):
        self.state, self.tracking, self.band = state, tracking, band
        self.read_every_step = band > -math.inf
        self.value = None
        self.rows = [None] * state.partition_rows.n_blocks
        self.cols = [None] * state.partition_cols.n_blocks

    def confirm(self):
        """The exact value; tracking ends once it is below the band, or NaN."""
        value = self.value = self.exact()
        if not value >= self.band:
            self.tracking = False
        return value

    def after_step(self, k, due, bi, bj, sampled, weighted, c):
        """The value after step ``k``, which sampled ``sampled`` from row
        block ``bi`` and column block ``bj`` and moved X by ``c G_I M H_J``
        with M = ``weighted`` (R for GRBK, u_hat R v_hat for GRABK); or
        after the GRK steps that ended at step ``k``, at the rows ``bi`` and
        columns ``bj`` (lists), with residuals ``sampled``. None when
        nothing reads it: a step not ``due`` for a record, of a metric that
        does not stop the run."""
        if self.tracking and k % RESYNC_EVERY and not (due and self.records_exact):
            if isinstance(bi, list):
                value = self.advance_grk(sampled)
            else:
                left, right = self.rows[bi], self.cols[bj]
                if left is None:  # from the entry the step cached
                    left = self.rows[bi] = self.image(True, self.state.row_blocks[bi])
                if right is None:
                    right = self.cols[bj] = self.image(False, self.state.col_blocks[bj])
                value = self.advance(sampled, weighted, left, right, c)
            if not (due or self.read_every_step):
                return None
            if value is None:  # a kept residual, read from its kept matrix
                value = self.norm()
            if value - self.slack >= self.band:
                self.value = value
                return value
        return self.confirm()


def _range_basis(M):
    """``(Q, T)`` with ``M = Q T`` and Q's orthonormal columns holding
    range(M): the thin QR of a tall M, else ``(None, M)``, None standing for
    the identity."""
    return np.linalg.qr(M) if M.shape[0] > M.shape[1] else (None, M)


def _coordinates(M, Q):
    """``Q^T M`` and ``||M - Q Q^T M||_F^2``, the squared norm of the part
    of M off the columns of Q; M and 0.0 for Q None (the identity)."""
    if Q is None:
        return M, 0.0
    inner = Q.T @ M
    outer = M - Q @ inner
    return inner, float(np.vdot(outer, outer))


class _Residual(_Metric):
    """||C - A X B||_F / ||C||_F (or ||C - A X B||_F when C = 0), kept in
    the coordinates of range(A) x range(B^T).

    Every step moves A X B by ``c A G_I M H_J B``, inside that subspace, so
    the part of R = C - A X B off it is C's own and stays put. On a tall
    side the thin QR ``A = Q_A T_A`` (m > p) or ``B^T = Q_B T_B`` (n > q)
    gives an orthonormal basis holding the range; on a square or wide side
    the basis is the identity, ``T_A = A`` or ``T_B = B^T``. ``base`` is
    K_C = Q_A^T C Q_B, ``min(m, p) x min(q, n)``, and ``perp_sq`` the scalar
    ``||C - Q_A K_C Q_B^T||_F^2``, both taken once. ``kept`` is K = Q_A^T R
    Q_B = K_C - T_A X T_B^T, so that exactly

        ||R||_F^2 = perp_sq + ||K||_F^2,

    a sum of two squares, which does not cancel (``read``). Where neither
    side is tall, K is R itself and perp_sq is 0. Each step updates K in
    place by rank at most tau2: ``K -= c (T_A G_I) M (H_J T_B^T)``. Its
    images are ``T_A G_I`` and ``(H_J T_B^T)^T`` with their squared
    Frobenius norms (those of ``A G_I`` and ``(H_J B)^T``), at most the
    size of A and B; its kept value keeps no slack. Each exact value forms
    K afresh from K_C (``_relative_residual``). A residual that is not kept
    takes no QR, so its exact values are C - (A X) B.

    An update rounds by up to about eps ``|c| ||A G_I||_F ||M||_F ||H_J
    B||_F``, far above the change itself where the product cancels: an
    ill-conditioned block, or a large adaptive stepsize on an inconsistent
    C. ``moved`` sums the squares of those products since the last exact
    value; once eps times its root could move the value by ``DRIFT_LIMIT``,
    the value is NaN, so the next one is exact.

    GRK's chunks (``prefix``) read every step's value from the chunk's Gram
    matrices; GRK's steps move K by one product of images stacked once for
    every row of A and column of B."""

    def __init__(self, state, tracking, band):
        super().__init__(state, tracking, band)
        c_norm = float(np.linalg.norm(state.problem.C, "fro"))
        self.unit = c_norm if c_norm > 0.0 else 1.0  # value = residual / unit
        limit = DRIFT_LIMIT * self.unit / EPS
        self.moved, self.moved_limit = 0.0, limit * limit
        self.stacks = None  # GRK's images of every row and column
        self.pending = None  # per step prefix proposed: images, moved
        basis = _range_basis if tracking else lambda M: (None, M)
        (qa, ta), (qb, tb) = basis(state.problem.A), basis(state.problem.B.T)
        self.maps = ta, tb  # image = T_A G_I, T_B H_J^T
        rows, left_sq = _coordinates(state.problem.C, qa)
        base, right_sq = _coordinates(rows.T, qb)
        self.base, self.perp_sq = base.T, left_sq + right_sq
        # K at X0 = 0, C-ordered: kept.T takes BLAS updates in place
        self.kept = self.base.copy() if tracking else None

    def image(self, rows, entry):
        factor = entry[3]
        image = self.maps[0] @ factor if rows else np.asfortranarray(self.maps[1] @ factor.T)
        return image, float(np.vdot(image, image))

    def advance(self, sampled, weighted, left, right, c):
        (left, left_sq), (right, right_sq) = left, right
        if sampled is not None:  # by position, as _move calls dgemm
            blas.dgemm(-c, right, left.dot(weighted).T, 1.0, self.kept.T, 0, 0, 1)
            w = weighted.ravel()
            self.moved += c * c * float(w.dot(w)) * left_sq * right_sq

    def grk_stacks(self, rows, cols):
        """The images of GRK's steps at the rows ``rows`` of A and columns
        ``cols`` of B, stacked as rows: ``T_A a / ||a||^2`` and ``T_B b /
        ||b||^2`` for a row a of A and a column b of B. The first call makes
        them for every row and column; a zero row or column, never drawn,
        gets zeros."""
        if self.stacks is None:
            state = self.state
            A, B = state.problem.A, state.problem.B
            fa = A / np.where(state.row_norms_sq > 0.0, state.row_norms_sq, 1.0)[:, None]
            fb = B.T / np.where(state.col_norms_sq > 0.0, state.col_norms_sq, 1.0)[:, None]
            self.stacks = fa @ self.maps[0].T, fb @ self.maps[1].T
        left, right = self.stacks
        return left.take(rows, axis=0), right.take(cols, axis=0)

    def prefix(self, rows, cols, r, s):
        """How many of the GRK steps at the rows ``rows`` of A and columns
        ``cols`` of B, with sampled residuals ``r``, to apply at most;
        ``chunk`` gets the value after each, ``advance_grk`` commits them.

        Step k moves K by ``-r_k u_k v_k^T``, with u_k and v_k the images of
        its row and column. So with ``G = (U^T U) o (V^T V)`` and ``t =
        diag(U^T K_0 V) - tril(G, -1) r``,

            ||R_k||_F^2 = ||R_{k-1}||_F^2 - 2 r_k t_k + r_k^2 G_kk,

        from ``||R_0||_F^2 = perp_sq + ||K_0||_F^2``. That squared value
        rounds by eps times ``||R_0||_F^2`` plus about eps times the terms
        it sums: ``2 |r_k| z_k size``, with ``z_k = sqrt(G_kk)``
        and ``size = ||K_0||_F``, which bounds the products in the first
        term of t_k, and ``|r_k|`` times ``2 |tril(G, -1)| |r| + |r_k|
        G_kk``. The kept K is off by at most eps times the root of
        ``moved``, which moves the squared value by that times ``2 size + 2
        sum_l |r_l| z_l``. That sum over the value is the value's bound. The
        chunk ends at the first step whose value, less its bound, lies below
        the band, whose bound could pass ``DRIFT_LIMIT``, or whose value is
        not finite; that step's value is NaN, so it gets the exact one."""
        left, right = self.grk_stacks(rows, cols)
        kept_sq = float(np.vdot(self.kept, self.kept))
        sq0, size = self.perp_sq + kept_sq, math.sqrt(kept_sq)
        t0 = np.einsum("ij,ij->i", left @ self.kept, right)
        gram = (left @ left.T) * (right @ right.T)
        g = gram.diagonal().copy()
        gram.flat[::g.size + 1] = 0.0  # gram is symmetric: gram.T is its Fortran view
        sq = sq0 - np.cumsum(r * (2.0 * (t0 - blas.dtrmv(gram.T, r, lower=1)) - r * g))
        root = np.sqrt(sq)
        moved = self.moved + np.cumsum(r * r * g)
        size_r, z = np.abs(r), np.sqrt(g)
        products = blas.dtrmv(np.abs(gram).T, size_r, lower=1)
        sums = np.cumsum(size_r * (2.0 * (size * z + products) + size_r * g))
        rounding = EPS * sq0 + EPS * (sums + 2.0 * np.sqrt(moved) * (size + np.cumsum(size_r * z)))
        # the bound is rounding / root: check it against the value times root
        fits = ((rounding <= (DRIFT_LIMIT * self.unit) * root)
                & (sq - rounding >= (self.band * self.unit) * root))
        c = fits.size if fits.all() else int(fits.argmin()) + 1
        self.chunk = (root[:c] / self.unit).tolist()
        if not fits[c - 1]:
            self.chunk[-1] = math.nan
        self.pending = left, right, moved
        return c

    def advance_grk(self, r):
        """One update of K by the stacked images of the GRK steps ``prefix``
        read, of rank at most len(r), and the value after the last of
        them."""
        n = r.size
        left, right, moved = self.pending
        self.moved = float(moved[n - 1])
        blas.dgemm(-1.0, right[:n] * r[:, None], left[:n], 1.0, self.kept.T, 1, 0, 1)
        return self.chunk[n - 1]

    def read(self, K):
        """sqrt(perp_sq + ||K||_F^2) / unit, the value at coordinates K."""
        K = K.ravel()
        return math.sqrt(self.perp_sq + float(K.dot(K))) / self.unit

    def norm(self):
        return self.read(self.kept) if self.moved <= self.moved_limit else math.nan

    def exact(self):
        self.moved = 0.0
        value, self.kept = _relative_residual(self, self.state.X)
        return value


class _Error(_Metric):
    """||X - X_star||_F^2 / ||X_star||_F^2, less each step's exact decrease
    (``_error_drop``, or GRK's from ``prefix``) between exact values.
    Its images are the triangular Gram factors S_I and T_J of the block
    factors (``_gram_factor``): read from the block's cache entry where
    GRABK-adaptive's step took them, else taken here once per block. Its
    slack is ``DROP_RTOL`` of the decrease it subtracted since its last
    exact value, and a decrease that is negative or not finite makes the
    next value exact. Records read it exact but where GRK's chunks run
    across them (not ``records_exact``)."""

    def __init__(self, state, tracking, band, records_exact):
        super().__init__(state, tracking, band)
        self.method, self.eta = state.config.method, state.eta
        self.records_exact = records_exact
        self.xstar_sq = float(np.linalg.norm(state.problem.X_star, "fro") ** 2)
        self.dropped = 0.0
        self.ax = None if records_exact else state.problem.A @ state.problem.X_star

    def image(self, rows, entry):
        return _gram_factor(rows, entry[3]) if entry[4] is None else entry[4]

    def prefix(self, rows, cols, r, s):
        """As ``_Residual.prefix``, for the error: up to the first step whose
        kept value less slack lies below the band or is not finite. Step k
        moves X by ``s_k a_k b_k^T``, so ``||E_k||_F^2 = ||E_{k-1}||_F^2 -
        r_k s_k - 2 s_k h_k``, with ``h = diag(A_S X* B_S) - C[i, j]`` the
        residual of X_star, 0 if it solves the equation. Only where records
        read ``chunk`` (not ``records_exact``) is h taken, from A X* and
        the B_S and C_S that ``grk_step`` gathered."""
        drops = r * s
        if not self.records_exact:
            B_S, C_S = self.state.gathered
            drops += 2.0 * s * (np.sum(self.ax.take(rows, axis=0) * B_S.T, axis=1) - C_S)
        drops = np.cumsum(drops) / self.xstar_sq
        values = self.value - drops
        dropped = self.dropped + drops
        fits = values - DROP_RTOL * dropped >= self.band
        c = fits.size if fits.all() else int(fits.argmin()) + 1
        if not self.records_exact:
            self.chunk = values[:c].tolist()
        self.pending = values, dropped
        return c

    def advance_grk(self, r):
        values, dropped = self.pending
        self.dropped = float(dropped[r.size - 1])
        self.slack = DROP_RTOL * self.dropped
        return float(values[r.size - 1])

    def advance(self, sampled, weighted, left, right, c):
        drop = _error_drop(self.method, sampled, weighted, left, right, c,
                           self.eta) / self.xstar_sq
        self.dropped += drop
        self.slack = DROP_RTOL * self.dropped
        return self.value - drop if drop >= 0.0 else math.nan

    def exact(self):
        self.dropped = self.slack = 0.0
        return _error(self.state.X, self.state.problem.X_star, self.xstar_sq)


def _grk_steps(state, metrics, rows, cols, k):
    """GRK from the pair drawn for step k on: ``(steps, bi, bj, sampled,
    None, 1.0)``, the steps taken, their rows of A and columns of B (lists)
    and the residuals they sampled (an array). ``metrics`` holds the stop
    metric and, if kept, the residual beside the error. One ``grk_step`` call runs
    the steps as a chunk: one step unless the stop metric is tracked, else
    up to ``GRK_CHUNK``, ending at the next multiple of ``RESYNC_EVERY``,
    the end of the drawn pairs or ``max_iters``, and at the next record if
    the stop metric is ``records_exact``. Each metric still tracked
    reads its steps' values from the chunk (``prefix``), which ends at the
    earliest cut they propose: after the first step whose kept value less
    its slack or rounding bound enters the band or is not finite, which
    then gets its exact value. The records inside a chunk, and
    ``max_seconds``, see the time at its end."""
    drawn, stop, size = k % DRAW_CHUNK, metrics[0], 1
    if stop.tracking:
        cut = state.config.trace_every if stop.records_exact else RESYNC_EVERY
        size = min(GRK_CHUNK, len(rows) - drawn, RESYNC_EVERY - k % RESYNC_EVERY, cut - k % cut)
    prefixes = [metric.prefix for metric in metrics if metric.tracking]
    sampled = grk_step(state, rows[drawn:drawn + size], cols[drawn:drawn + size],
                       _prefix=lambda *args: min((prefix(*args) for prefix in prefixes),
                                                 default=size))
    end = drawn + sampled.size
    return sampled.size, rows[drawn:end], cols[drawn:end], sampled, None, 1.0


def _block_steps(state, metrics, rows, cols, k):
    """One GRBK or GRABK step at the blocks drawn for step k, as
    ``_grk_steps`` returns it, with the M of the step's update ``c G_I M
    H_J`` in place of None: R for GRBK, W = u_hat R v_hat for GRABK (as
    ``_grabk_adaptive_apply`` hands it over, or as GRABK-constant's
    ``grabk_step`` leaves it in ``state.weighted``); c is GRABK's
    stepsize. An adaptive step's L goes to ``state.stepsizes``; on
    a solved block it samples None. ``_cache_block`` keeps each block, its
    factor and GRABK-adaptive's tau x tau Gram factor from its first draw
    (at most ``2(mp + qn)`` floats, plus ``tau1 m + tau2 n`` for the Gram
    factors) for the later steps and metrics."""
    bi, bj = rows[k % DRAW_CHUNK], cols[k % DRAW_CHUNK]
    I, si, A_I, G_I, S_I = state.row_blocks[bi] or _cache_block(state, True, bi)
    J, sj, B_J, H_J, T_J = state.col_blocks[bj] or _cache_block(state, False, bj)
    blocks = (A_I, G_I, S_I, B_J, H_J, T_J, state.problem.C[si, sj])
    method = state.config.method
    if method == GRBK:
        R = grbk_step(state, I, J, blocks)
        return 1, bi, bj, R, R, 1.0
    u_hat, v_hat = state.row_hat_columns[bi], state.col_weights_hat[bj]
    if method == GRABK_CONST:
        R = grabk_step(state, I, J, None, None, state.alpha_const, blocks, (u_hat, v_hat))
        return 1, bi, bj, R, state.weighted, state.alpha_const
    L, R, W = _grabk_adaptive_apply(state, I, J, u_hat, v_hat, blocks)
    if L is None:
        return 1, bi, bj, None, None, 1.0
    state.stepsizes.append(L)
    return 1, bi, bj, R, W, state.eta * L


def solve(problem, config):
    """Run the configured method from X0 = 0 and trace convergence.

    A record's ``relative_error`` and ``relative_residual`` are each within
    ``1e-14 max(1, exact)`` of the exact value at the run's own iterate
    (relative on a diverging run); the error is exact but where GRK's
    chunks run across records. Tolerance and divergence are declared on
    exact values only.

    Termination uses the squared relative error against ``X_star`` when the
    problem provides a usable (nonzero) reference, otherwise the relative
    residual ||C - A X B||_F / ||C||_F. Records are kept every
    ``trace_every`` iterations plus the final one. Wall-clock covers the
    iteration loop only.

    The step runner, ``_grk_steps`` or ``_block_steps``, is picked once.
    Each pass of the loop draws the block pairs of the next ``DRAW_CHUNK``
    steps once the last are used (``sample_block``; they do not depend on
    X); has the runner add ``c G_I M H_J`` to X for one step or more; moves
    the stop metric by the steps taken (``_Metric.after_step``), ending the
    run on a non-finite value (``diverged``), one below ``re_tolerance`` or
    past ``max_seconds``; moves the residual that records read beside the
    error, if kept; and adds the records of the steps taken to the columns
    of ``report.trace`` (``Trace``): one ``append`` per column for a record
    at the end of the steps, one ``extend`` per column for those inside a
    GRK chunk, from every ``trace_every``-th of the values its metrics
    proposed.

    Where ``_keeps_residual`` says so, ``_Residual`` keeps C - A X B up to
    date in the coordinates of range(A) x range(B^T), taking the QR of a
    tall A or B^T here, not in ``prepare_state``, and forms its exact values
    there too; else each value is C - (A X) B. Where ``_tracks_error``
    says so, ``_Error`` keeps the error by subtracting each step's
    decrease. Each is exact whenever ``_Metric.after_step`` says so, in
    particular near ``re_tolerance``, so iterates, iteration counts and
    termination are those of an exact stop metric on every step (up to the
    rounding of ``_grk_steps``' chunks).
    """
    state = prepare_state(problem, config)
    use_re = problem.X_star is not None and np.linalg.norm(problem.X_star, "fro") > 0.0
    band = config.re_tolerance + CONFIRM_BAND
    # without X_star the residual is the stop metric; with it, only records read it
    keeps = _keeps_residual(problem, config, use_re)
    residual = _Residual(state, keeps, -math.inf if use_re else band)
    kept = use_re and keeps  # GRK's chunks then run across records
    stop = (_Error(state, _tracks_error(problem, config, use_re, keeps), band,
                   config.method != GRK or not kept) if use_re else residual)
    metrics = (stop, residual) if kept else (stop,)
    step = _grk_steps if config.method == GRK else _block_steps
    every, max_iters, max_seconds = config.trace_every, config.max_iters, config.max_seconds
    tolerance = config.re_tolerance
    trace = Trace()
    iterations, errors, residuals, times = (trace.iteration, trace.relative_error,
                                            trace.relative_residual, trace.elapsed)

    # A diverging run ends as "diverged"; the overflow on its way there is
    # not also raised as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = time.perf_counter()
        k = 0
        metric = stop.confirm()
        termination = "tolerance" if metric < tolerance else None
        while termination is None and k < max_iters:
            if k % DRAW_CHUNK == 0:
                rows, cols = sample_block(state.dist_rows, state.rng, state.dist_cols,
                                          min(DRAW_CHUNK, max_iters - k))
            steps, bi, bj, sampled, weighted, c = step(state, metrics, rows, cols, k)
            first, k = k, k + steps
            elapsed = time.perf_counter() - t0
            record = k % every == 0 or k == max_iters
            past = max_seconds is not None and elapsed > max_seconds
            metric = stop.after_step(k, record or past, bi, bj, sampled, weighted, c)
            if not math.isfinite(metric):
                termination = "diverged"
            elif metric < tolerance:
                termination = "tolerance"
            elif past:
                termination = "time_limit"
            if kept:
                residual.after_step(k, bool(termination or record), bi, bj, sampled, weighted,
                                    c)
            if steps > 1 and (k - 1) // every > first // every:  # records inside a chunk
                inside = range(first - first % every + every, k, every)
                # the record at iteration it reads entry it - first - 1 of a chunk
                values = slice(inside[0] - first - 1, steps - 1, every)
                iterations.extend(inside)
                errors.extend(stop.chunk[values] if use_re else [None] * len(inside))
                residuals.extend(residual.chunk[values])
                times.extend([elapsed] * len(inside))
            if termination or record:
                iterations.append(k)
                errors.append(metric if use_re else None)
                residuals.append(residual.exact() if use_re and not kept else residual.value)
                times.append(elapsed)

    return ConvergenceReport(
        trace=trace,
        termination=termination or "max_iters",
        X=state.X.copy(),
        iterations=k,
        stepsizes=state.stepsizes,
    )

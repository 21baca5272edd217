"""Closed-form convergence-rate and spectral-constant calculators.

These are the per-iteration expected decay factors of the solver family
under Frobenius-weighted partition sampling. They serve as oracles in
statistical tests: observed mean squared errors must stay below the
predicted geometric envelopes. Each public function densifies and validates
its matrices once at entry through ``as_dense``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import as_dense, col_norms, frobenius_norm, row_norms, sigma_extremes
from .sampling import frobenius_block_probs


def _dense_blocks(M, partition, axis):
    """Densify and validate M once, then yield (b, block b of M) with the
    partition over the rows (axis="rows") or the columns (axis="cols") of M."""
    M = as_dense(M)
    partition.check_covers(M, axis)
    for b in range(partition.n_blocks):
        sl = partition.block_slice(b)
        yield b, (M[sl, :] if axis == "rows" else M[:, sl])


def _sigma_max_sq(block):
    """The largest squared singular value of a block: the largest eigenvalue
    of its smaller Gram matrix (tau x tau for a block of tau rows or
    columns), which ``eigvalsh`` gets to within a few eps relative. Callers
    scale the block to entries of at most 1 first, so that the Gram matrix
    neither overflows nor underflows."""
    rows, cols = block.shape
    return float(np.linalg.eigvalsh(block @ block.T if rows <= cols else block.T @ block)[-1])


def beta_max(M, partition, axis):
    """Largest ratio sigma_max(block) / ||block||_F over the partition blocks.

    Each ratio is the root of the largest eigenvalue of the smaller Gram
    matrix of the block over its Frobenius norm (``_sigma_max_sq``).
    Always in (0, 1]: a ratio that rounds above 1 counts as 1, which is
    exact for a rank-1 block, so every block of a single row or column
    gives 1. Zero blocks, which Frobenius sampling never draws, are
    skipped, as in ``weighting_sigma_min``. Raises ValueError for a zero
    matrix.
    """
    worst = 0.0
    for _, block in _dense_blocks(M, partition, axis):
        fro = np.linalg.norm(block, "fro")
        if fro > 0.0:
            worst = max(worst, min(math.sqrt(_sigma_max_sq(block / fro)), 1.0))
    if worst == 0.0:
        raise ValueError("beta_max undefined for the zero matrix")
    return worst


def gamma_max(M, partition, axis, per_index=False):
    """Largest top singular value gamma_b over blocks after row/column
    normalization.

    For a row partition each block row is scaled to unit norm; for a column
    partition each block column is. gamma_b^2 is the largest eigenvalue of
    the normalized block's smaller Gram matrix (``_sigma_max_sq``). With
    ``per_index``, the largest ``gamma_b^2 / |b|`` instead: under uniform
    weights, the largest ``sigma_max^2(D^{1/2} M_b)`` with ``D`` the hatted
    weights ``1 / (|b| ||row||^2)``, which bounds GRABK-constant's stepsize.
    Raises ValueError on a zero row/column inside any block.
    """
    across = 1 if axis == "rows" else 0  # a row's norm sums across columns
    worst = 0.0
    for b, block in _dense_blocks(M, partition, axis):
        norms = np.sqrt(np.sum(block * block, axis=across, keepdims=True))
        if np.any(norms == 0.0):
            raise ValueError(f"zero {axis[:-1]} inside block {b}")
        gamma_sq = _sigma_max_sq(block / norms)
        worst = max(worst, gamma_sq / norms.size if per_index else math.sqrt(gamma_sq))
    return float(worst)


def weighting_sigma_min(M, partition, axis):
    """Smallest nonzero singular value of the sampling/normalization operator.

    Under partition sampling with Frobenius-proportional block probabilities
    the operator is diagonal, so this reduces to the minimum over blocks of
    sqrt(P(block)) / (largest row or column norm inside the block).
    Zero-probability blocks are skipped.
    """
    norms = row_norms(M) if axis == "rows" else col_norms(M)
    probs = frobenius_block_probs(M, partition, axis, norms**2).probabilities
    biggest = np.maximum.reduceat(norms, partition.bounds[:-1])
    live = probs > 0.0
    return float(np.min(np.sqrt(probs[live]) / biggest[live]))


def _constants(M, partition=None, axis=None):
    """(sigma_min(M), ||M||_F, beta), with beta the beta_max of the
    partition of M along axis, or 1 without a partition."""
    M = as_dense(M)
    _, smin = sigma_extremes(M)
    beta = 1.0 if partition is None else beta_max(M, partition, axis)
    return smin, frobenius_norm(M), beta


def _factor(smin, frob, beta=1.0):
    """sigma_min^2(M) / (||M||_F^2 beta^2) from the constants of M."""
    return smin**2 / (frob**2 * beta**2)


def _damping(eta):
    """eta (2 - eta) for a stepsize factor eta, which must lie in (0, 2)."""
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must be in (0, 2), got {eta}")
    return eta * (2.0 - eta)


def grk_rate(A, B):
    """Expected decay factor of the single-index method:
    1 - sigma_min^2(A) sigma_min^2(B) / (||A||_F^2 ||B||_F^2)."""
    return 1.0 - _factor(*_constants(A)) * _factor(*_constants(B))


def grbk_rate(A, B, partition_a, partition_b):
    """Expected decay factor of block projection under partition sampling."""
    return grabk_const_rate(A, B, partition_a, partition_b, 1.0)


def grabk_const_rate(A, B, partition_a, partition_b, eta):
    """Decay factor of the averaged method, Frobenius weights, constant step.

    Equals the block-projection factor damped by eta*(2-eta); at eta=1 the
    two coincide.
    """
    damp = _damping(eta)
    fa = _factor(*_constants(A, partition_a, "rows"))
    return 1.0 - damp * fa * _factor(*_constants(B, partition_b, "cols"))


def grabk_adaptive_rate(A, B, partition_a, partition_b, eta):
    """Decay factor of the averaged method with the adaptive stepsize.

    Shares the constant-stepsize closed form under Frobenius weights; the
    adaptive rule only improves the per-iteration constant in practice.
    """
    return grabk_const_rate(A, B, partition_a, partition_b, eta)


def general_grabk_rate(
    A, B, partition_a, partition_b, eta, u_min, u_max, v_min, v_max
):
    """Decay factor of the averaged method for arbitrary bounded weights.

    Combines the weight-spread penalty
    u_min^2 v_min^2 / (u_max^2 v_max^2 gamma_max^2(A) gamma_max^2(B))
    with the spectra of the diagonal sampling operators and of A, B. It
    does not assume that every block has tau1 rows (or tau2 columns): a
    short last block enters through the weight bounds, which the caller
    takes over all blocks (``1 / |b|`` for uniform weights).
    """
    damp = _damping(eta)
    if not (0.0 < u_min <= u_max < 1.0 and 0.0 < v_min <= v_max < 1.0):
        raise ValueError("weights must satisfy 0 < min <= max < 1")
    A, B = as_dense(A), as_dense(B)
    ga = gamma_max(A, partition_a, "rows")
    gb = gamma_max(B, partition_b, "cols")
    phi = (u_min**2 * v_min**2) / (u_max**2 * v_max**2 * ga**2 * gb**2)
    da = weighting_sigma_min(A, partition_a, "rows")
    db = weighting_sigma_min(B, partition_b, "cols")
    _, smin_a = sigma_extremes(A)
    _, smin_b = sigma_extremes(B)
    return 1.0 - damp * phi * da**2 * db**2 * smin_a**2 * smin_b**2


@dataclass(frozen=True)
class RateBundle:
    """Spectral constants of a problem instance plus per-method decay factors."""

    sigma_min_a: float
    sigma_min_b: float
    frob_a: float
    frob_b: float
    beta_max_a: float
    beta_max_b: float
    gamma_max_a: float
    gamma_max_b: float
    grk: float
    grbk: float
    grabk_const: float
    grabk_adaptive: float


def rate_bundle(A, B, partition_a, partition_b, eta_const=1.95, eta_adaptive=1.0):
    """Evaluate every spectral constant and decay factor for one instance,
    with one SVD and one ``beta_max`` per factor."""
    A, B = as_dense(A), as_dense(B)
    smin_a, frob_a, beta_a = _constants(A, partition_a, "rows")
    smin_b, frob_b, beta_b = _constants(B, partition_b, "cols")
    fa, fb = _factor(smin_a, frob_a, beta_a), _factor(smin_b, frob_b, beta_b)
    return RateBundle(
        sigma_min_a=smin_a,
        sigma_min_b=smin_b,
        frob_a=frob_a,
        frob_b=frob_b,
        beta_max_a=beta_a,
        beta_max_b=beta_b,
        gamma_max_a=gamma_max(A, partition_a, "rows"),
        gamma_max_b=gamma_max(B, partition_b, "cols"),
        grk=1.0 - _factor(smin_a, frob_a) * _factor(smin_b, frob_b),
        grbk=1.0 - fa * fb,
        grabk_const=1.0 - _damping(eta_const) * fa * fb,
        grabk_adaptive=1.0 - _damping(eta_adaptive) * fa * fb,
    )

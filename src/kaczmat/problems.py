"""Problem construction: synthetic instances, real sparse data, and
image-deblurring systems, plus restoration scoring.

Two synthetic families: rank-controlled products of orthonormalized Gaussian
factors with singular values in (1, 2), and plain standard-normal matrices.
Deblurring pairs a uniform Toeplitz row blur with a Gaussian Toeplitz
column blur and scores restorations by peak signal-to-noise ratio.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .images import GrayImage
from .matrices import pinv
from .sampling import SeededRng, check_count, check_real
from .solvers import Problem

__all__ = [
    "TypeISpec",
    "BlurSpec",
    "gen_type1",
    "gen_type2",
    "make_problem",
    "min_norm_solution",
    "uniform_toeplitz",
    "gaussian_toeplitz",
    "psnr",
    "blur_problem",
    "InconsistentSystemWarning",
]


class InconsistentSystemWarning(UserWarning):
    """The right-hand side is not (numerically) in the solvable set."""


@dataclass(frozen=True)
class TypeISpec:
    """Dimensions, ranks, and seed for a rank-controlled instance pair."""

    m: int
    p: int
    r1: int
    q: int
    n: int
    r2: int
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "p", "q", "n"):
            check_count(name, getattr(self, name), 1)
        check_count("r1", self.r1, 1, min(self.m, self.p))
        check_count("r2", self.r2, 1, min(self.q, self.n))


@dataclass(frozen=True)
class BlurSpec:
    """Side length, blur bandwidth, and Gaussian width for a deblur instance."""

    n: int
    r: int = 3
    sigma: float = 7.0

    def __post_init__(self):
        check_count("image side", self.n, 1)
        check_count("bandwidth", self.r, 1)
        check_real("sigma", self.sigma)


def _orthonormal_columns(G):
    # sign-normalize each column (first nonzero entry positive) so the
    # factorization is reproducible across LAPACK builds
    Q = np.linalg.qr(G)[0]
    for j in range(Q.shape[1]):
        nz = np.nonzero(Q[:, j])[0]
        if nz.size and Q[nz[0], j] < 0:
            Q[:, j] = -Q[:, j]
    return Q


def _rank_controlled(rng, rows, cols, rank):
    U = _orthonormal_columns(rng.standard_normal((rows, rank)))
    V = _orthonormal_columns(rng.standard_normal((cols, rank)))
    d = 1.0 + rng.uniform_array(rank)
    return (U * d) @ V.T


def gen_type1(spec):
    """Factor pair A (m x p, rank r1) and B (q x n, rank r2).

    Each is U diag(d) V^T with orthonormalized standard-normal U, V and d
    uniform in (1, 2), so every nonzero singular value lies in (1, 2).
    """
    rng = SeededRng(spec.seed)
    A = _rank_controlled(rng, spec.m, spec.p, spec.r1)
    B = _rank_controlled(rng, spec.q, spec.n, spec.r2)
    return A, B


def gen_type2(m, p, q, n, seed=0):
    """Full standard-normal pair A (m x p) and B (q x n)."""
    for name, size in zip("mpqn", (m, p, q, n)):
        check_count(name, size, 1)
    rng = SeededRng(seed)
    return rng.standard_normal((m, p)), rng.standard_normal((q, n))


def make_problem(A, B, seed=0, name=""):
    """Consistent instance: draw X standard normal, set C = A X B.

    The stored reference solution is the minimal-norm one, pinv(A) C pinv(B),
    which differs from the drawn X when A or B is rank-deficient; the drawn
    X is kept on the problem for norm comparisons.
    """
    p = A.shape[1]
    q = B.shape[0]
    rng = SeededRng(seed)
    X = rng.standard_normal((p, q))
    C = (A @ X) @ B
    C = np.asarray(C)
    X_star = min_norm_solution(A, B, C)
    return Problem(A=A, B=B, C=C, X_star=X_star, X_drawn=X, name=name)


def min_norm_solution(A, B, C):
    """Minimal Frobenius norm solution pinv(A) C pinv(B).

    Warns when the system is not consistent to 1e-6 relative accuracy; the
    returned matrix is then only the projection's best effort.
    """
    X_star = pinv(A) @ C @ pinv(B)
    resid = np.linalg.norm((A @ X_star) @ B - C, "fro")
    c_norm = np.linalg.norm(C, "fro")
    if resid > 1e-6 * c_norm + 1e-300:
        warnings.warn(
            f"system is inconsistent: residual {resid:.3e} exceeds "
            f"1e-6 * ||C|| = {1e-6 * c_norm:.3e}",
            InconsistentSystemWarning,
            stacklevel=2,
        )
    return X_star


def uniform_toeplitz(n, r):
    """Banded matrix with value 1/(2r - 1) where |i - j| <= r, else 0."""
    check_count("n", n, 1)
    check_count("r", r, 1)
    idx = np.arange(n)
    band = np.abs(idx[:, None] - idx[None, :]) <= r
    return band / (2 * r - 1)


def gaussian_toeplitz(n, r, sigma):
    """Banded matrix with entries exp(-(i-j)^2 / (2 sigma^2)) / (sigma sqrt(2 pi))
    where |i - j| <= r, else 0. Symmetric."""
    check_count("n", n, 1)
    check_count("r", r, 1)
    check_real("sigma", sigma)
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    band = np.abs(diff) <= r
    vals = np.exp(-(diff.astype(np.float64) ** 2) / (2.0 * sigma**2))
    return np.where(band, vals / (sigma * math.sqrt(2.0 * math.pi)), 0.0)


def _pixels(image):
    return image.pixels if isinstance(image, GrayImage) else np.asarray(
        image, dtype=np.float64
    )


def psnr(reference, restored):
    """Peak signal-to-noise ratio in decibels.

    10 log10(peak^2 / MSE) with peak the maximum reference pixel. Identical
    inputs give math.inf, the distinct no-noise signal. Raises on shape
    mismatch or an all-zero reference.
    """
    ref = _pixels(reference)
    out = _pixels(restored)
    if ref.shape != out.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {out.shape}")
    peak = float(ref.max())
    if peak <= 0.0:
        raise ValueError("reference image has no positive pixel")
    mse = float(np.mean((ref - out) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak**2 / mse)


def blur_problem(image, spec):
    """Deblurring instance: C = A X B with a uniform Toeplitz row blur A and
    a Gaussian Toeplitz column blur B, X the image.

    The reference solution is the minimal-norm one, so restorations are
    scored against what the equation determines, not the original pixels
    when the blur is singular.
    """
    if image.height != image.width:
        raise ValueError(
            f"image must be square, got {image.height}x{image.width}"
        )
    if image.height != spec.n:
        raise ValueError(
            f"image side {image.height} does not match spec side {spec.n}"
        )
    A = uniform_toeplitz(spec.n, spec.r)
    B = gaussian_toeplitz(spec.n, spec.r, spec.sigma)
    X = image.pixels
    C = A @ X @ B
    X_star = min_norm_solution(A, B, C)
    return Problem(A=A, B=B, C=C, X_star=X_star, X_drawn=X.copy(),
                   name=f"blur-n{spec.n}-r{spec.r}")

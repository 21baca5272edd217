"""Contiguous block partitions, reproducible Frobenius-weighted block sampling,
and the checks of scalar and weight inputs that every public boundary runs."""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .matrices import col_norms, row_norms

RNG_ALGORITHM = "philox4x64"


def check_count(name, value, low=0, high=None):
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer (Python or numpy, not a float or string) in [low, high]."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or high is not None and value > high:
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def check_real(name, value, positive=True):
    """ValueError naming ``name`` unless ``value`` is a finite real number,
    above 0 when ``positive``."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_weights(name, w, tol):
    """ValueError naming ``name`` unless the array ``w`` is finite and
    nonnegative and sums to 1 within ``tol``."""
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(float(w.sum()) - 1.0) > tol:
        raise ValueError(f"{name} must sum to 1, got {w.sum()!r}")


class SeededRng:
    """Deterministic random stream backed by the counter-based Philox generator.

    Identical seeds give identical draws on every platform, and an array draw
    gives bitwise the values of as many scalar draws, which makes solver
    traces and generated problems byte-reproducible. Each instance is
    single-owner: do not share one between concurrent samplers.

    ``stream`` selects a disjoint substream for the same seed (the seed
    occupies the low 64 bits of the Philox key, the stream the next 64), so
    problem generation and solver sampling can share one user-facing seed
    without replaying each other's draws. Each is an integer, the seed in
    [0, 2**64) and the stream nonnegative; any other value raises
    ValueError, as it would replay the draws of one of these.
    """

    algorithm = RNG_ALGORITHM

    def __init__(self, seed, stream=0):
        self.seed, self.stream = self.valid_seed(seed), check_count("stream", stream)
        key = self.seed | (self.stream << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.position = 0  # scalars drawn so far

    @staticmethod
    def valid_seed(seed):
        """``seed`` as a Python int, by ``check_count``'s rule in [0, 2**64)."""
        return check_count("seed", seed, 0, 2**64 - 1)

    def uniform(self):
        """One uniform draw in [0, 1)."""
        self.position += 1
        return self._gen.random()

    def standard_normal(self, shape):
        out = self._gen.standard_normal(size=shape)
        self.position += int(np.prod(shape))
        return out

    def uniform_array(self, n):
        out = self._gen.random(size=n)
        self.position += int(n)
        return out


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint cover of range(dim) by contiguous blocks.

    All blocks have length ``block_size`` except possibly the last, which
    holds the remainder. ``bounds[b]:bounds[b+1]`` are the 0-based indices of
    block ``b``.
    """

    dim: int
    block_size: int
    bounds: np.ndarray = field(repr=False)

    @property
    def n_blocks(self):
        return len(self.bounds) - 1

    def block(self, b):
        """Index array of block b."""
        return np.arange(self.bounds[b], self.bounds[b + 1])

    def block_slice(self, b):
        return slice(int(self.bounds[b]), int(self.bounds[b + 1]))

    def blocks(self):
        return [self.block(b) for b in range(self.n_blocks)]

    def check_covers(self, M, axis):
        """Raise ValueError unless axis is "rows" or "cols" and this
        partition covers that axis of the matrix M."""
        if axis not in ("rows", "cols"):
            raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
        length = M.shape[0 if axis == "rows" else 1]
        if self.dim != length:
            raise ValueError(
                f"partition covers {self.dim} indices but matrix has "
                f"{length} along axis {axis!r}"
            )


def make_partition(dim, tau, name="tau"):
    """Partition range(dim) into ceil(dim/tau) contiguous blocks of size tau.

    The final block covers the remainder and may be shorter. Raises
    ValueError unless 1 <= tau <= dim, naming tau as ``name`` (the setting
    it came from, such as ``tau1``).
    """
    dim = check_count("dim", dim, 1)
    tau = check_count(name, tau, 1, dim)
    bounds = np.arange(0, dim, tau)
    bounds = np.append(bounds, dim)
    return BlockPartition(dim=dim, block_size=tau, bounds=bounds)


@dataclass(frozen=True)
class CategoricalDistribution:
    """Finite distribution over block indices with precomputed CDF."""

    probabilities: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        check_weights("probabilities", self.probabilities, 1e-12)


def categorical(probabilities):
    """Distribution over ``probabilities`` whose CDF reads exactly 1.0 from
    the last block with positive mass on, so rounding in the sum cannot
    leave a tail of uniforms that falls past it onto a zero-mass block."""
    p = np.asarray(probabilities, dtype=np.float64)
    cumulative = np.cumsum(p)
    positive = np.flatnonzero(p > 0)
    if positive.size:
        cumulative[positive[-1]:] = 1.0
    return CategoricalDistribution(probabilities=p, cumulative=cumulative)


def frobenius_block_probs(M, partition, axis, norms_sq=None):
    """Block sampling distribution proportional to squared Frobenius norms.

    Parameters
    ----------
    M : array-like or scipy sparse matrix
        Its norms are computed only when ``norms_sq`` is not given.
    partition : BlockPartition
        Over the rows (axis="rows") or columns (axis="cols") of M.
    axis : {"rows", "cols"}
    norms_sq : array, optional
        The squared row (or column) norms of M when the caller has them;
        computed here otherwise.

    Block b gets probability ||M_block||_F^2 / ||M||_F^2; zero-norm blocks
    get probability zero and are never sampled. Raises ValueError for a zero
    matrix, a NaN or infinite norm, or an axis-length mismatch.
    """
    partition.check_covers(M, axis)
    per_index_sq = norms_sq
    if per_index_sq is None:
        per_index_sq = (row_norms(M) if axis == "rows" else col_norms(M)) ** 2
    if not np.isfinite(per_index_sq).all():
        raise ValueError("block probabilities must be finite: a squared norm is NaN or infinite")
    total = float(per_index_sq.sum())
    if total == 0.0:
        raise ValueError("cannot build block probabilities for a zero matrix")
    block_sq = np.add.reduceat(per_index_sq, partition.bounds[:-1])
    return categorical(block_sq / total)


# The tie rule of every draw: a uniform u picks the first block whose
# cumulative reaches max(u, U_FLOOR), so ties break toward the lower index
# and u = 0.0 takes the first block with positive mass. As the CDF reads 1.0
# from the last positive-mass block on, no zero-mass block is ever drawn.
U_FLOOR = math.ulp(0.0)


def sample_block(dist, rng, cols=None, pairs=1):
    """Draw one block index from ``dist`` by inverse CDF, from one uniform.

    Given the column distribution ``cols``, draw ``pairs`` (row block, column
    block) pairs instead, as a list of row blocks and a list of column blocks,
    from one ``uniform_array``: its even entries go to ``dist`` and odd ones
    to ``cols``, bitwise as ``pairs`` rounds of a scalar row then column draw.
    Both forms keep the tie rule of ``U_FLOOR``.
    """
    if cols is None:  # u or U_FLOOR is max(u, U_FLOOR) for u >= 0, and cheaper
        return int(dist.cumulative.searchsorted(rng.uniform() or U_FLOOR))
    u = np.maximum(rng.uniform_array(2 * pairs), U_FLOOR)
    return (dist.cumulative.searchsorted(u[0::2]).tolist(),
            cols.cumulative.searchsorted(u[1::2]).tolist())

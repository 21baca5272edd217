"""Seeded RNG streams, block partitions, and block sampling distributions."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from kaczmat.sampling import (
    RNG_ALGORITHM,
    BlockPartition,
    CategoricalDistribution,
    SeededRng,
    categorical,
    check_count,
    check_real,
    check_weights,
    frobenius_block_probs,
    make_partition,
    sample_block,
)


def test_rng_algorithm_is_counter_based():
    assert RNG_ALGORITHM == "philox4x64"
    assert SeededRng(0).algorithm == RNG_ALGORITHM


def test_rng_reproducible():
    a = SeededRng(123).uniform_array(10_000)
    b = SeededRng(123).uniform_array(10_000)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, SeededRng(124).uniform_array(10_000))


def test_rng_frozen_reference_values():
    # platform-stability anchor: Philox draws must never drift
    assert SeededRng(0).uniform() == pytest.approx(0.011546754286331562, abs=0)
    assert SeededRng(0, stream=1).uniform() == pytest.approx(0.8133540609793564, abs=0)


def test_rng_streams_are_disjoint():
    base = SeededRng(7).uniform_array(100)
    other = SeededRng(7, stream=1).uniform_array(100)
    assert not np.array_equal(base, other)
    # same (seed, stream) pair replays exactly
    np.testing.assert_array_equal(other, SeededRng(7, stream=1).uniform_array(100))


def test_rng_negative_stream_rejected():
    with pytest.raises(ValueError):
        SeededRng(0, stream=-1)


@pytest.mark.parametrize("seed, stream", [(1.5, 0), ("3", 0), (-1, 0), (2**64, 0),
                                          (np.float64(2.0), 0), (0, 0.5), (0, "1")])
def test_rng_rejects_a_seed_or_stream_that_would_replay_another(seed, stream):
    # each of these once replayed other draws: seed 1.5 those of 1, "3" of
    # 3, -1 of 2**64 - 1, 2**64 of 0, and stream 0.5 those of stream 0
    with pytest.raises(ValueError, match="seed" if stream == 0 else "stream"):
        SeededRng(seed, stream)


def test_rng_takes_every_integer_seed_in_range():
    for seed in (0, 2**64 - 1, np.int64(7), np.uint64(2**63)):
        assert SeededRng(seed).seed == int(seed)
    np.testing.assert_array_equal(SeededRng(np.int64(7)).uniform_array(8),
                                  SeededRng(7).uniform_array(8))


def test_rng_position_counts_scalars():
    r = SeededRng(1)
    r.uniform()
    r.standard_normal((2, 3))
    r.uniform_array(4)
    assert r.position == 1 + 6 + 4


def _philox(seed, stream):
    """Raw generator on the Philox key that SeededRng(seed, stream) uses."""
    return np.random.Generator(np.random.Philox(key=seed | (stream << 64)))


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 1), (2**40 + 3, 2)])
def test_rng_read_ahead_matches_scalar_stream(seed, stream):
    # scalar draws give the values of one array draw, as plain Python floats
    n = 2 * 1024 + 3
    rng = SeededRng(seed, stream)
    draws = [rng.uniform() for _ in range(n)]
    assert all(type(u) is float for u in draws)
    np.testing.assert_array_equal(draws, _philox(seed, stream).random(size=n))
    assert rng.position == n


@pytest.mark.parametrize("k", [0, 5, 1024, 1024 + 5])
def test_rng_read_ahead_interleaves_with_array_draws(k):
    # array draws start where k scalar draws would have left the generator
    rng, oracle = SeededRng(11, 1), _philox(11, 1)
    assert [rng.uniform() for _ in range(k)] == [oracle.random() for _ in range(k)]
    np.testing.assert_array_equal(rng.standard_normal((3, 4)),
                                  oracle.standard_normal(size=(3, 4)))
    np.testing.assert_array_equal(rng.uniform_array(7), oracle.random(size=7))
    np.testing.assert_array_equal(rng.uniform_array(2), oracle.random(size=2))
    assert rng.uniform() == oracle.random()
    assert rng.uniform() == oracle.random()
    assert rng.position == k + 12 + 7 + 2 + 2


def test_rng_normal_draws_have_unit_scale():
    x = SeededRng(42).standard_normal((200, 50))
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


def test_make_partition_exact_division():
    p = make_partition(10, 5)
    assert p.n_blocks == 2
    np.testing.assert_array_equal(p.block(0), np.arange(5))
    np.testing.assert_array_equal(p.block(1), np.arange(5, 10))


def test_make_partition_remainder_block():
    p = make_partition(10, 3)
    assert p.n_blocks == 4
    sizes = [len(p.block(b)) for b in range(p.n_blocks)]
    assert sizes == [3, 3, 3, 1]
    assert p.block_slice(3) == slice(9, 10)


def test_make_partition_single_block_and_singletons():
    assert make_partition(6, 6).n_blocks == 1
    p = make_partition(4, 1)
    assert p.n_blocks == 4
    assert all(len(blk) == 1 for blk in p.blocks())


def test_partition_reconstructs_index_range():
    for dim, tau in [(1, 1), (7, 2), (12, 5), (9, 4), (100, 33)]:
        p = make_partition(dim, tau)
        np.testing.assert_array_equal(np.concatenate(p.blocks()), np.arange(dim))


def test_make_partition_invalid():
    with pytest.raises(ValueError):
        make_partition(5, 0)
    with pytest.raises(ValueError):
        make_partition(5, 6)
    with pytest.raises(ValueError):
        make_partition(0, 1)


@pytest.mark.parametrize("dim, tau, name", [("3", 1, "dim"), (10, 2.5, "tau"),
                                            (10.0, 2, "dim"), (10, "2", "tau")])
def test_make_partition_rejects_a_non_integral_count(dim, tau, name):
    # int() once took "3" as 3 and ran tau = 2.5 as 2
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make_partition(dim, tau)
    p = make_partition(np.int64(10), np.int64(4))
    assert type(p.dim) is int and type(p.block_size) is int
    np.testing.assert_array_equal(p.bounds, make_partition(10, 4).bounds)


def test_check_count_takes_integers_in_range():
    value = check_count("k", np.int64(3), 1)
    assert type(value) is int and value == 3
    assert check_count("k", 5, 1, 5) == 5
    for bad, high, message in [(2.5, None, "k must be an integer, got 2.5"),
                               ("3", None, "k must be an integer"),
                               (0, None, "k must be at least 1, got 0"),
                               (6, 5, r"k must be in \[1, 5\], got 6")]:
        with pytest.raises(ValueError, match=message):
            check_count("k", bad, 1, high)


def test_check_real_takes_finite_reals():
    for ok in (1, 0.5, np.float64(2.0), np.float32(1e-3), np.array(1.5)):
        check_real("x", ok)
    check_real("x", 0.0, positive=False)
    check_real("x", -1.5, positive=False)
    for bad, positive, message in [(0.0, True, "x must be positive, got 0.0"),
                                   (-1, True, "x must be positive"),
                                   (math.inf, False, "x must be finite, got inf"),
                                   (math.nan, True, "x must be finite"),
                                   ("1.0", True, "x must be a real number"),
                                   (1j, True, "x must be a real number"),
                                   (None, False, "x must be a real number")]:
        with pytest.raises(ValueError, match=message):
            check_real("x", bad, positive)


def test_check_weights_tolerance_is_the_callers():
    w = np.array([0.5, 0.5 + 1e-11])
    check_weights("w", w, 1e-10)
    with pytest.raises(ValueError, match="w must sum to 1"):
        check_weights("w", w, 1e-12)
    for bad in ([np.nan, 1.0], [-0.5, 1.5], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="w must be finite and nonnegative"):
            check_weights("w", np.array(bad), 1e-10)


def test_categorical_validation():
    with pytest.raises(ValueError):
        categorical([0.5, 0.6])
    with pytest.raises(ValueError):
        categorical([-0.1, 1.1])
    # abs(nan - 1) > 1e-12 is False: the sum check alone lets NaN through
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            categorical([bad, 0.5])
    d = categorical([0.25, 0.75])
    assert isinstance(d, CategoricalDistribution)
    np.testing.assert_allclose(d.cumulative, [0.25, 1.0])


def test_frobenius_block_probs_rejects_nan_norms():
    # a NaN norm would otherwise give an all-NaN distribution, from which
    # sample_block draws block 0 without an error
    with pytest.raises(ValueError, match="probabilities must be finite"):
        frobenius_block_probs(np.eye(4), make_partition(4, 2), "rows",
                              np.array([np.nan, 1.0, 1.0, 1.0]))
    M = np.eye(4)
    M[1, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        frobenius_block_probs(M, make_partition(4, 2), "rows")


def test_frobenius_block_probs_rejects_infinite_norms_without_a_warning():
    # inf / inf would warn before any check saw the norms; under -W error
    # the warning, not the ValueError, would reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="probabilities must be finite"):
            frobenius_block_probs(np.eye(4), make_partition(4, 2), "rows",
                                  np.array([np.inf, 1.0, 1.0, 1.0]))


def test_frobenius_block_probs_row_example():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    d = frobenius_block_probs(M, make_partition(2, 1), axis="rows")
    np.testing.assert_allclose(d.probabilities, [0.2, 0.8])


def test_frobenius_block_probs_identity_halves():
    d = frobenius_block_probs(np.eye(4), make_partition(4, 2), axis="rows")
    np.testing.assert_allclose(d.probabilities, [0.5, 0.5])


def test_frobenius_block_probs_matches_brute_force():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((10, 6))
    part = make_partition(10, 4)
    d = frobenius_block_probs(M, part, axis="rows")
    total = np.linalg.norm(M) ** 2
    expect = [np.linalg.norm(M[blk]) ** 2 / total for blk in part.blocks()]
    np.testing.assert_allclose(d.probabilities, expect, rtol=1e-12)

    part_c = make_partition(6, 4)  # blocks of 4 and 2 columns
    d_c = frobenius_block_probs(M, part_c, axis="cols")
    expect_c = [np.linalg.norm(M[:, blk]) ** 2 / total for blk in part_c.blocks()]
    np.testing.assert_allclose(d_c.probabilities, expect_c, rtol=1e-12)


def test_frobenius_block_probs_sparse_matches_dense():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((8, 8))
    M[M < 0.5] = 0.0
    part = make_partition(8, 3)
    dd = frobenius_block_probs(M, part, axis="rows")
    ds = frobenius_block_probs(sp.csr_array(M), part, axis="rows")
    np.testing.assert_allclose(ds.probabilities, dd.probabilities, rtol=1e-12)


def test_frobenius_block_probs_row_normalized_is_uniform_in_size():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((9, 5))
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    part = make_partition(9, 4)  # sizes 4, 4, 1
    d = frobenius_block_probs(M, part, axis="rows")
    np.testing.assert_allclose(d.probabilities, [4 / 9, 4 / 9, 1 / 9], atol=1e-12)


def test_frobenius_block_probs_zero_matrix_and_zero_block():
    with pytest.raises(ValueError):
        frobenius_block_probs(np.zeros((4, 4)), make_partition(4, 2), axis="rows")
    M = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    d = frobenius_block_probs(M, make_partition(4, 2), axis="rows")
    np.testing.assert_allclose(d.probabilities, [0.5, 0.5])
    M2 = np.array([[1.0], [1.0], [0.0], [0.0]])
    d2 = frobenius_block_probs(M2, make_partition(4, 2), axis="rows")
    np.testing.assert_allclose(d2.probabilities, [1.0, 0.0])


def test_frobenius_block_probs_dim_mismatch_and_bad_axis():
    M = np.eye(4)
    with pytest.raises(ValueError):
        frobenius_block_probs(M, make_partition(3, 1), axis="rows")
    with pytest.raises(ValueError):
        frobenius_block_probs(M, make_partition(4, 2), axis="diag")


def test_sample_block_degenerate_masses():
    rng = SeededRng(0)
    assert sample_block(categorical([1.0]), rng) == 0
    # zero-mass first block is skipped for any u > 0
    for _ in range(50):
        assert sample_block(categorical([0.0, 1.0]), rng) == 1


class _FixedUniform:
    """Stub rng whose every draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def test_sample_block_never_returns_zero_mass_tail():
    # the largest uniform Philox gives is 1 - 2**-53; a CDF that rounds to
    # less than that must not hand it to the zero-mass block past its end
    top = _FixedUniform(1.0 - 2.0**-53)
    d = categorical([0.5, 0.4999999999999, 0.0])
    assert sample_block(d, top) == 1
    # a 12x3 Gaussian A with a zero last row: its row CDF sums to 1 - 2**-52
    A = np.random.default_rng(5).standard_normal((12, 3))
    A[-1] = 0.0
    rows = frobenius_block_probs(A, make_partition(12, 1), axis="rows")
    assert np.cumsum(rows.probabilities)[-1] < top.u
    assert sample_block(rows, top) == 10
    # draws at or below the old tail still land where they did
    assert sample_block(d, _FixedUniform(0.9999999999999)) == 1
    assert sample_block(d, _FixedUniform(0.5)) == 0


def test_sample_block_zero_draw_skips_leading_zero_mass():
    # Philox can return u = 0.0 exactly; it takes the first positive-mass
    # block, not the zero-mass blocks whose cumulative is also 0.0
    zero = _FixedUniform(0.0)
    assert sample_block(categorical([0.0, 1.0]), zero) == 1
    assert sample_block(categorical([0.0, 0.0, 0.5, 0.5]), zero) == 2
    assert sample_block(categorical([0.5, 0.5]), zero) == 0


def test_sample_block_matches_searchsorted():
    # the draw picks the block of searchsorted on the CDF (side "left", or
    # "right" for u = 0.0), for ties, zero-mass blocks anywhere and u on a
    # cumulative value, at 0.0 and at the largest Philox uniform
    gen = np.random.default_rng(21)
    for trial in range(300):
        n = int(gen.integers(4, 14))
        p = gen.integers(0, 3, size=n).astype(float)  # zeros and repeats
        for at, every in ((0, 2), (n // 2, 3), (n - 1, 5)):
            if trial % every == 0:
                p[at] = 0.0
        if not p.any():
            p[1] = 1.0
        d = categorical(p / p.sum())
        us = {0.0, 1.0 - 2.0**-53, *d.cumulative.tolist(), *gen.random(4).tolist()}
        for u in us:
            side = "left" if u else "right"
            expect = int(np.searchsorted(d.cumulative, u, side=side))
            assert sample_block(d, _FixedUniform(u)) == expect


def test_sample_block_frequencies():
    d = categorical([0.2, 0.8])
    rng = SeededRng(77)
    draws = np.array([sample_block(d, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.8) < 0.01


def test_sample_block_consumes_one_draw():
    d = categorical([0.5, 0.5])
    rng = SeededRng(3)
    sample_block(d, rng)
    assert rng.position == 1
    # mirrored stream: the block sequence is a pure function of the uniforms
    rng_a, rng_b = SeededRng(8), SeededRng(8)
    seq = [sample_block(d, rng_a) for _ in range(32)]
    us = rng_b.uniform_array(32)
    expect = [int(np.searchsorted(d.cumulative, u, side="left")) for u in us]
    assert seq == [min(e, 1) for e in expect]


class _Planted:
    """Stub rng over a Philox stream with u = 0.0 and the largest Philox
    uniform planted at given draws; scalar and array draws read one stream."""

    def __init__(self, n, zeros, tops):
        self.us = SeededRng(4).uniform_array(n)
        self.us[zeros] = 0.0
        self.us[tops] = 1.0 - 2.0**-53
        self.position = 0

    def uniform(self):
        self.position += 1
        return float(self.us[self.position - 1])

    def uniform_array(self, n):
        self.position += n
        return self.us[self.position - n : self.position].copy()


def test_sample_block_chunks_match_scalar_rounds():
    # one chunked call per chunk gives the pairs of as many rounds of a
    # scalar row draw then a scalar column draw: even uniforms to rows, odd
    # to columns, with the tie rules of the scalar draw
    rows = categorical([0.0, 0.3, 0.0, 0.7, 0.0])
    cols = categorical([0.0, 0.5, 0.5, 0.0])
    pairs, chunks = 50, 3
    # u = 0.0 on the first row and column draw, on the first column draw of
    # the third chunk and inside the third chunk; the top uniform elsewhere
    planted = ([0, 1, 4 * pairs + 1, 4 * pairs + 6], [2, 2 * pairs + 3, 4 * pairs + 9])
    scalar, chunked = _Planted(600, *planted), _Planted(600, *planted)
    expect = [(sample_block(rows, scalar), sample_block(cols, scalar))
              for _ in range(chunks * pairs)]
    got = []
    for _ in range(chunks):
        r, c = sample_block(rows, chunked, cols, pairs)
        got += zip(r, c)
    assert got == expect
    assert chunked.position == scalar.position == 2 * chunks * pairs
    # u = 0.0 took the first positive-mass block, the top uniform the last
    assert [expect[0], expect[2 * pairs][1], expect[2 * pairs + 3][0]] == [(1, 1), 1, 1]
    assert [expect[1][0], expect[pairs + 1][1], expect[2 * pairs + 4][1]] == [3, 2, 2]
    assert {r for r, _ in expect} == {1, 3} and {c for _, c in expect} == {1, 2}

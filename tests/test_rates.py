"""Spectral constants and closed-form decay factors."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczmat import rates
from kaczmat.matrices import frobenius_norm, sigma_extremes
from kaczmat.rates import (
    RateBundle,
    beta_max,
    gamma_max,
    general_grabk_rate,
    grabk_adaptive_rate,
    grabk_const_rate,
    grbk_rate,
    grk_rate,
    rate_bundle,
    weighting_sigma_min,
)
from kaczmat.sampling import frobenius_block_probs, make_partition


EPS = np.finfo(np.float64).eps


def row_normalized(rng, m, n):
    M = rng.standard_normal((m, n))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def test_beta_max_singletons_are_one():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 4))
    assert beta_max(M, make_partition(6, 1), "rows") == pytest.approx(1.0)
    assert beta_max(M, make_partition(4, 1), "cols") == pytest.approx(1.0)


def test_beta_max_never_rounds_above_one():
    # a block of a single row, or of rank 1, has sigma_max = ||block||_F,
    # so its ratio is exactly 1; computed, it may round a few ulp either
    # way, and beta_max keeps it in (0, 1]
    rng = np.random.default_rng(18)
    for _ in range(40):
        m, n = rng.integers(2, 30, size=2)
        M = rng.standard_normal((m, n))
        assert 1.0 - 4 * EPS <= beta_max(M, make_partition(m, 1), "rows") <= 1.0
        assert 1.0 - 4 * EPS <= beta_max(M, make_partition(n, 1), "cols") <= 1.0
        tau = int(rng.integers(1, m + 1))
        rank_one = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        assert 1.0 - 4 * EPS <= beta_max(rank_one, make_partition(m, tau), "rows") <= 1.0


@st.composite
def scaled_matrices(draw):
    """A random or rank-1 matrix with rows scaled by up to 1e-8, and a row
    partition of it."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        M = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    else:
        M = rng.standard_normal((m, n))
    M *= 10.0 ** rng.uniform(-8.0, 0.0, size=(m, 1))
    return M, make_partition(m, draw(st.integers(1, m)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=scaled_matrices())
def test_block_constants_match_the_svd(case):
    # beta_max and gamma_max read each block's sigma_max from the largest
    # eigenvalue of its smaller Gram matrix: within 8 eps of the SVD's
    # (16 eps for the squared gamma_b^2 / |b|); a 3000-case sweep of such
    # matrices saw 4.1 eps and 6.9 eps
    M, partition = case
    beta = gamma = gamma_per_index = 0.0
    for b in range(partition.n_blocks):
        block = M[partition.block_slice(b)]
        beta = max(beta, np.linalg.svd(block, compute_uv=False)[0] / np.linalg.norm(block))
        normalized = block / np.linalg.norm(block, axis=1, keepdims=True)
        g = np.linalg.svd(normalized, compute_uv=False)[0]
        gamma, gamma_per_index = max(gamma, g), max(gamma_per_index, g * g / block.shape[0])
    assert beta_max(M, partition, "rows") == pytest.approx(min(beta, 1.0), rel=8 * EPS, abs=0)
    assert gamma_max(M, partition, "rows") == pytest.approx(gamma, rel=8 * EPS, abs=0)
    assert gamma_max(M, partition, "rows", per_index=True) == pytest.approx(
        gamma_per_index, rel=16 * EPS, abs=0)


def test_beta_max_identity_blocks():
    # an orthonormal tau-row block has sigma_max 1 and ||.||_F = sqrt(tau)
    assert beta_max(np.eye(4), make_partition(4, 2), "rows") == pytest.approx(1 / np.sqrt(2))
    assert beta_max(np.eye(6), make_partition(6, 3), "rows") == pytest.approx(1 / np.sqrt(3))


def test_beta_max_skips_zero_blocks_and_raises_on_zero_matrix():
    # Frobenius sampling never draws a zero block, so it does not count
    M = np.vstack([np.zeros((2, 2)), np.eye(2)])
    assert beta_max(M, make_partition(4, 2), "rows") == pytest.approx(1 / np.sqrt(2))
    assert beta_max(M.T, make_partition(4, 2), "cols") == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        beta_max(np.zeros((4, 2)), make_partition(4, 2), "rows")


def test_gamma_max_singletons_are_one():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 3))
    assert gamma_max(M, make_partition(5, 1), "rows") == pytest.approx(1.0)


def test_gamma_max_equals_sqrt_tau_times_beta_when_normalized():
    # with unit rows the normalized block IS the block, so
    # gamma_max^2 = tau * beta_max^2 whenever all blocks have tau rows
    rng = np.random.default_rng(2)
    M = row_normalized(rng, 8, 4)
    part = make_partition(8, 2)
    g = gamma_max(M, part, "rows")
    b = beta_max(M, part, "rows")
    assert g**2 == pytest.approx(2 * b**2, rel=1e-12)


def test_gamma_max_identity():
    assert gamma_max(np.eye(4), make_partition(4, 2), "rows") == pytest.approx(1.0)


def test_gamma_max_per_index_divides_each_block_by_its_size():
    # a short last block counts with its own size: max over b of gamma_b^2 / |b|
    rng = np.random.default_rng(3)
    for rows, cols, tau in ((7, 4, 3), (5, 6, 2)):
        M = rng.standard_normal((rows, cols))
        part = make_partition(rows, tau)
        lam = max(
            np.linalg.svd(block / np.linalg.norm(block, axis=1, keepdims=True),
                          compute_uv=False)[0] ** 2 / block.shape[0]
            for block in (M[part.block_slice(b)] for b in range(part.n_blocks)))
        assert gamma_max(M, part, "rows", per_index=True) == pytest.approx(lam, rel=1e-12)
        assert gamma_max(M.T, part, "cols", per_index=True) == pytest.approx(lam, rel=1e-12)


def test_gamma_max_zero_row_raises():
    M = np.vstack([np.eye(2), np.zeros((1, 2)), [[1.0, 1.0]]])
    with pytest.raises(ValueError):
        gamma_max(M, make_partition(4, 2), "rows")


def test_weighting_sigma_min_closed_form():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4))
    part = make_partition(6, 2)
    total = frobenius_norm(M) ** 2
    norms = np.linalg.norm(M, axis=1)
    expect = min(
        np.sqrt(np.sum(norms[blk] ** 2) / total) / norms[blk].max()
        for blk in part.blocks()
    )
    assert weighting_sigma_min(M, part, "rows") == pytest.approx(expect, rel=1e-12)


def test_weighting_sigma_min_skips_zero_blocks():
    M = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    v = weighting_sigma_min(M, make_partition(4, 2), "rows")
    assert v == pytest.approx(np.sqrt(1.0) / 1.0)


def test_grk_rate_identity_cases():
    assert grk_rate(np.eye(2), np.eye(2)) == pytest.approx(0.75)
    assert grk_rate(np.eye(1), np.eye(1)) == pytest.approx(0.0)


def test_grk_rate_matches_spectral_ingredients():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((8, 5))
    B = rng.standard_normal((5, 8))
    _, sa = sigma_extremes(A)
    _, sb = sigma_extremes(B)
    expect = 1 - (sa**2 / frobenius_norm(A) ** 2) * (sb**2 / frobenius_norm(B) ** 2)
    assert grk_rate(A, B) == pytest.approx(expect, rel=1e-12)
    assert 0.0 < grk_rate(A, B) < 1.0


def test_grbk_rate_singletons_reduce_to_grk():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((4, 6))
    r = grbk_rate(A, B, make_partition(6, 1), make_partition(6, 1))
    assert r == pytest.approx(grk_rate(A, B), abs=1e-14)


def test_grbk_rate_full_blocks():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((4, 6))
    r = grbk_rate(A, B, make_partition(6, 6), make_partition(6, 6))
    smax_a, smin_a = sigma_extremes(A)
    smax_b, smin_b = sigma_extremes(B)
    expect = 1 - (smin_a**2 / smax_a**2) * (smin_b**2 / smax_b**2)
    assert r == pytest.approx(expect, rel=1e-12)


def test_grbk_never_slower_than_grk():
    # partitioning can only shrink the decay factor
    rng = np.random.default_rng(7)
    for trial in range(20):
        m = int(rng.integers(4, 12))
        p = int(rng.integers(2, m + 1))
        n = int(rng.integers(4, 12))
        A = rng.standard_normal((m, p))
        B = rng.standard_normal((p, n))
        tau1 = int(rng.integers(1, m + 1))
        tau2 = int(rng.integers(1, n + 1))
        r_blk = grbk_rate(A, B, make_partition(m, tau1), make_partition(n, tau2))
        assert r_blk <= grk_rate(A, B) + 1e-12


def test_grabk_const_rate_eta_one_equals_grbk():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((3, 6))
    pa, pb = make_partition(6, 2), make_partition(6, 3)
    assert grabk_const_rate(A, B, pa, pb, eta=1.0) == pytest.approx(
        grbk_rate(A, B, pa, pb), abs=1e-14
    )


def test_grabk_const_rate_eta_endpoints_degenerate():
    A = B = np.eye(2)
    pa = pb = make_partition(2, 1)
    r_small = grabk_const_rate(A, B, pa, pb, eta=1e-9)
    r_big = grabk_const_rate(A, B, pa, pb, eta=2 - 1e-9)
    assert r_small == pytest.approx(1.0, abs=1e-8)
    assert r_big == pytest.approx(1.0, abs=1e-8)
    # symmetric damping: eta and 2 - eta give the same factor
    assert grabk_const_rate(A, B, pa, pb, 0.5) == pytest.approx(
        grabk_const_rate(A, B, pa, pb, 1.5), abs=1e-14
    )


def test_grabk_const_rate_identity_value():
    # I2, singletons, eta=1.95: 1 - 1.95*0.05*(1/2)*(1/2)
    r = grabk_const_rate(np.eye(2), np.eye(2), make_partition(2, 1), make_partition(2, 1), 1.95)
    assert r == pytest.approx(0.975625, abs=1e-12)


def test_grabk_const_rate_rejects_bad_eta():
    A = B = np.eye(2)
    pa = pb = make_partition(2, 1)
    for eta in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            grabk_const_rate(A, B, pa, pb, eta)


def test_grabk_adaptive_rate_shares_form():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((3, 6))
    pa, pb = make_partition(6, 3), make_partition(6, 2)
    assert grabk_adaptive_rate(A, B, pa, pb, 1.0) == pytest.approx(
        grabk_const_rate(A, B, pa, pb, 1.0), abs=0
    )


def test_general_rate_identity_blocks():
    # I4 with tau=2 blocks and equal weights u=v=0.3: phi = 1 (gamma=1),
    # D factors are sqrt(1/2), so the factor is 1 - 0.25 eta (2 - eta)
    A = B = np.eye(4)
    pa = pb = make_partition(4, 2)
    for eta in (0.5, 1.0, 1.5):
        r = general_grabk_rate(A, B, pa, pb, eta, 0.3, 0.3, 0.3, 0.3)
        assert r == pytest.approx(1 - 0.25 * eta * (2 - eta), rel=1e-12)


def test_general_rate_weight_bounds_enforced():
    A = B = np.eye(2)
    pa = pb = make_partition(2, 1)
    for bad in [(0.0, 0.5, 0.5, 0.5), (0.5, 1.0, 0.5, 0.5), (0.6, 0.5, 0.5, 0.5)]:
        with pytest.raises(ValueError):
            general_grabk_rate(A, B, pa, pb, 1.0, *bad)
    with pytest.raises(ValueError):
        general_grabk_rate(A, B, pa, pb, 2.0, 0.5, 0.5, 0.5, 0.5)


def test_general_rate_never_beats_frobenius_form():
    # the bounded-weight factor is a looser guarantee than the Frobenius one
    rng = np.random.default_rng(13)
    for trial in range(10):
        A = rng.standard_normal((8, 4))
        B = rng.standard_normal((4, 8))
        pa, pb = make_partition(8, 2), make_partition(8, 4)
        general = general_grabk_rate(A, B, pa, pb, 1.0, 0.2, 0.4, 0.2, 0.4)
        frob = grabk_const_rate(A, B, pa, pb, 1.0)
        assert general >= frob - 1e-12


def test_rate_bundle_fields_consistent(monkeypatch):
    rng = np.random.default_rng(14)
    A = rng.standard_normal((10, 5))
    B = rng.standard_normal((5, 10))
    pa, pb = make_partition(10, 5), make_partition(10, 5)
    # one SVD and one beta_max per factor, shared by every field
    calls = {"sigma_extremes": 0, "beta_max": 0}

    def counted(name):
        fn = getattr(rates, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rates, name, counted(name))
    b = rate_bundle(A, B, pa, pb)
    assert calls == {"sigma_extremes": 2, "beta_max": 2}
    monkeypatch.undo()
    other = rate_bundle(A, B, pa, pb, eta_const=0.7, eta_adaptive=1.3)
    assert isinstance(b, RateBundle)
    assert (b.sigma_min_a, b.sigma_min_b) == (sigma_extremes(A)[1], sigma_extremes(B)[1])
    assert (b.frob_a, b.frob_b) == (frobenius_norm(A), frobenius_norm(B))
    assert (b.beta_max_a, b.beta_max_b) == (beta_max(A, pa, "rows"), beta_max(B, pb, "cols"))
    assert b.grk == grk_rate(A, B)
    assert b.grbk == grbk_rate(A, B, pa, pb)
    assert b.grabk_const == grabk_const_rate(A, B, pa, pb, 1.95)
    assert b.grabk_adaptive == grabk_adaptive_rate(A, B, pa, pb, 1.0) == b.grbk
    assert other.grabk_const == grabk_const_rate(A, B, pa, pb, 0.7)
    assert other.grabk_adaptive == grabk_adaptive_rate(A, B, pa, pb, 1.3)
    for r in (b.grk, b.grbk, b.grabk_const, b.grabk_adaptive):
        assert 0.0 < r < 1.0
    assert b.grbk <= b.grk
    assert b.beta_max_a <= 1.0 and b.beta_max_b <= 1.0
    assert b.gamma_max_a >= 1.0 and b.gamma_max_b >= 1.0


def test_normalized_uniform_identity():
    # on a row-normalized A and column-normalized B with equal block sizes,
    # the uniform-weight guarantee with the largest safe constant stepsize
    # collapses onto the Frobenius eta=1 factor
    rng = np.random.default_rng(15)
    A = row_normalized(rng, 8, 4)
    B = row_normalized(rng, 8, 4).T
    pa = make_partition(8, 2)
    pb = make_partition(8, 2)
    tau1 = tau2 = 2
    ga = gamma_max(A, pa, "rows")
    gb = gamma_max(B, pb, "cols")
    _, sa = sigma_extremes(A)
    _, sb = sigma_extremes(B)
    lhs = 1 - (tau1 * tau2 / (ga**2 * gb**2)) * (sa**2 / 8) * (sb**2 / 8)
    rhs = grabk_const_rate(A, B, pa, pb, eta=1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)

def rate_bundle_of_a(M, partition, axis):
    """``rate_bundle`` with M as A, called as the block constants are."""
    return rate_bundle(M, np.eye(4), partition, make_partition(4, 2))


@pytest.mark.parametrize("fmt", ["dense", "csr"])
@pytest.mark.parametrize("constant", [beta_max, gamma_max, weighting_sigma_min,
                                      rate_bundle_of_a])
def test_rates_reject_nonfinite_matrices(constant, fmt):
    # each densifies and validates its matrix at entry; unchecked, beta_max
    # skips a NaN block as if it were zero and gamma_max fails inside LAPACK
    M = np.random.default_rng(18).standard_normal((6, 4))
    M[2, 1] = np.nan
    M = sp.csr_array(M) if fmt == "csr" else M
    with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
        constant(M, make_partition(6, 2), "rows")


@pytest.mark.parametrize("fmt", ["dense", "csr"])
@pytest.mark.parametrize(
    "constant", [beta_max, gamma_max, weighting_sigma_min, frobenius_block_probs])
def test_block_constants_check_partition_coverage(constant, fmt):
    # every per-block constant checks the partition against its axis of M
    M = np.random.default_rng(16).standard_normal((6, 4))
    M = sp.csr_array(M) if fmt == "csr" else M
    constant(M, make_partition(6, 2), "rows")
    constant(M, make_partition(4, 3), "cols")
    with pytest.raises(ValueError, match="axis"):
        constant(M, make_partition(6, 2), "diag")
    for partition, axis in ((make_partition(4, 2), "rows"), (make_partition(6, 2), "cols")):
        with pytest.raises(ValueError, match="partition covers"):
            constant(M, partition, axis)


def test_gamma_max_columns_match_rows_of_transpose():
    rng = np.random.default_rng(17)
    for m, n, tau in ((9, 4, 2), (5, 11, 3), (7, 7, 7)):
        M = rng.standard_normal((m, n))
        part = make_partition(n, tau)
        assert gamma_max(M, part, "cols") == pytest.approx(
            gamma_max(M.T, part, "rows"), rel=0, abs=1e-12)
    M[:, 1] = 0.0
    with pytest.raises(ValueError, match="zero col"):
        gamma_max(M, make_partition(7, 3), "cols")

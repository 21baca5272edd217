"""Matrix helpers on dense and sparse input, pseudoinverse and singular values, and the vec and
Kronecker test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczmat.matrices import (
    _qr_pinv,
    as_csr,
    as_dense,
    col_norms,
    frobenius_norm,
    pinv,
    row_norms,
    sigma_extremes,
)
from kaczmat.problems import TypeISpec, gen_type1
from oracles import KRON_MAX_ENTRIES, KronSizeError, kron, unvec, vec

EPS = np.finfo(np.float64).eps


def test_frobenius_norm_matches_numpy():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 5))
    assert frobenius_norm(M) == pytest.approx(np.linalg.norm(M))
    assert frobenius_norm(sp.csr_array(M)) == pytest.approx(np.linalg.norm(M))
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_row_and_col_norms():
    M = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(row_norms(M), [5.0, 0.0, 1.0])
    np.testing.assert_allclose(col_norms(M), [np.sqrt(10.0), 4.0])
    # sparse input is densified, and every input validated, at entry
    np.testing.assert_allclose(row_norms(sp.csr_array(M)), [5.0, 0.0, 1.0])
    np.testing.assert_allclose(col_norms(sp.csr_array(M)), [np.sqrt(10.0), 4.0])
    M[1, 1] = np.nan
    for norms in (row_norms, col_norms, frobenius_norm):
        with pytest.raises(ValueError, match="NaN or Inf"):
            norms(sp.csr_array(M))


def test_sigma_extremes_identity():
    smax, smin = sigma_extremes(np.eye(4))
    assert smax == pytest.approx(1.0)
    assert smin == pytest.approx(1.0)


def test_sigma_extremes_rank_deficient():
    # rank 1, sigma_min must be the smallest NONZERO singular value
    M = np.outer([1.0, 2.0], [3.0, 4.0])
    smax, smin = sigma_extremes(M)
    assert smax == pytest.approx(np.sqrt(5.0 * 25.0))
    assert smin == pytest.approx(smax)


def test_sigma_extremes_zero_matrix_raises():
    with pytest.raises(ValueError):
        sigma_extremes(np.zeros((3, 2)))


@pytest.mark.parametrize("shape,rank", [((5, 3), 3), ((3, 5), 2), ((6, 6), 4), ((4, 4), 1), ((8, 2), 2)])
def test_pinv_moore_penrose(shape, rank):
    rng = np.random.default_rng(hash(shape) % 2**32)
    m, n = shape
    M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    P = pinv(M)
    tol = 1e-8 * max(1.0, frobenius_norm(M))
    np.testing.assert_allclose(M @ P @ M, M, atol=tol)
    np.testing.assert_allclose(P @ M @ P, P, atol=tol)
    np.testing.assert_allclose((M @ P).T, M @ P, atol=tol)
    np.testing.assert_allclose((P @ M).T, P @ M, atol=tol)


def test_pinv_truncates_below_rank_tol():
    # the cutoff is max(rows, cols) * eps * sigma_max, for either orientation:
    # a singular value of 5 eps on a 6x5 or 5x6 matrix with sigma_max 1 is
    # truncated, one of 7 eps is inverted
    eps = np.finfo(np.float64).eps
    for shape in ((6, 5), (5, 6)):
        for small, inverted in ((5 * eps, 0.0), (7 * eps, 1.0 / (7 * eps))):
            M = np.zeros(shape)
            M[0, 0], M[1, 1], M[2, 2] = 1.0, 1e-3, small
            P = pinv(M)
            assert P.shape == shape[::-1]
            assert (P[0, 0], P[1, 1], P[2, 2]) == (1.0, 1e3, inverted)
            assert sigma_extremes(M)[1] == (small if inverted else 1e-3)


def test_pinv_zero_matrix():
    np.testing.assert_array_equal(pinv(np.zeros((3, 5))), np.zeros((5, 3)))


def _truncated_svd_pinv(M):
    """The truncated-SVD pseudoinverse: singular values at or below
    ``max(rows, cols) eps sigma_max`` count as zero."""
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = s > max(M.shape) * EPS * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def _matrix(rows, cols, rank, seed, scale):
    """A rows x cols matrix of the given rank (0: the zero matrix), its rows
    scaled by factors down to ``scale``."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return M * scale ** rng.uniform(0.0, 1.0, size=(rows, 1))


@st.composite
def pinv_inputs(draw):
    """Wide, tall and square matrices, 1xN and Nx1 among them, of full or
    lower rank, with rows scaled by up to 1e-8."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    full = draw(st.booleans())
    rank = min(rows, cols) if full else draw(st.integers(1, min(rows, cols)))
    scale = draw(st.sampled_from([1.0, 1e-4, 1e-8]))
    return _matrix(rows, cols, rank, draw(st.integers(0, 2**16)), scale)


@example(M=_matrix(1, 12, 1, 1, 1.0))
@example(M=_matrix(12, 1, 1, 2, 1e-8))
@example(M=_matrix(9, 14, 5, 3, 1.0))
@example(M=np.zeros((4, 7)))
@example(M=np.zeros((0, 5)))
@example(M=np.zeros((5, 0)))
@settings(max_examples=120, derandomize=True, deadline=None)
@given(M=pinv_inputs())
def test_pinv_satisfies_penrose_and_matches_the_truncated_svd(M):
    # where the QR test declines, pinv is the truncated SVD's bitwise; where
    # it takes the input, every singular value is kept and both are within
    # about eps kappa_2 of the exact pseudoinverse (a 4000-case sweep saw
    # their gap reach 10.3 eps kappa_2); either way the Penrose conditions
    # hold to rounding amplified by kappa_2 (the largest over the smallest
    # singular value kept)
    P, expected = pinv(M), _truncated_svd_pinv(M)
    assert P.shape == M.shape[::-1]
    if M.size == 0 or _qr_pinv(M) is None:
        np.testing.assert_array_equal(P, expected)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        np.testing.assert_array_equal(P, np.zeros(M.shape[::-1]))
        return
    kept = s[s > max(M.shape) * EPS * s[0]]
    kappa = s[0] / kept[-1]
    assert np.linalg.norm(P - expected) <= 64 * EPS * kappa * np.linalg.norm(expected)
    rounding = 16 * max(M.shape) * EPS * kappa
    MP, PM = M @ P, P @ M
    assert np.linalg.norm(MP @ M - M) <= rounding * np.linalg.norm(M)
    assert np.linalg.norm(PM @ P - P) <= rounding * np.linalg.norm(P)
    assert np.linalg.norm(MP - MP.T) <= rounding
    assert np.linalg.norm(PM - PM.T) <= rounding


@pytest.mark.parametrize("shape,tau", [((500, 200, 200, 200, 500, 200), 50),
                                       ((150, 40, 40, 40, 150, 40), 15),
                                       ((100, 40, 20, 40, 100, 40), 10)])
def test_pinv_takes_qr_on_the_benchmark_blocks(shape, tau):
    # the blocks GRBK inverts on the benchmark's instances are well
    # conditioned: each goes through the QR, within 1.2e-14 relative of the
    # truncated SVD (4.4e-15 at most over seeds 1-3)
    A, B = gen_type1(TypeISpec(*shape, seed=1010))
    for M, rows in ((A, True), (B, False)):
        for start in range(0, M.shape[0 if rows else 1], tau):
            block = np.ascontiguousarray(M[start:start + tau] if rows else M[:, start:start + tau])
            assert _qr_pinv(block) is not None
            expected = _truncated_svd_pinv(block)
            assert np.linalg.norm(pinv(block) - expected) <= 1.2e-14 * np.linalg.norm(expected)


def test_vec_is_column_stacking():
    M = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert vec(M).shape == (4, 1)
    np.testing.assert_array_equal(vec(M).ravel(), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(M), 2, 2), M)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 7))
    np.testing.assert_array_equal(unvec(vec(M), 5, 7), M)


def test_unvec_size_mismatch():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 3)


def test_kron_vec_identity():
    # vec(A X B) == kron(B.T, A) vec(X)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 3))
    X = rng.standard_normal((3, 5))
    B = rng.standard_normal((5, 2))
    lhs = vec(A @ X @ B)
    rhs = kron(B.T, A) @ vec(X)
    assert lhs.shape == rhs.shape == (8, 1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_norm_and_extremes_multiply():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 4))
    K = kron(A, B)
    assert frobenius_norm(K) == pytest.approx(frobenius_norm(A) * frobenius_norm(B), rel=1e-10)
    ka, kb = sigma_extremes(A), sigma_extremes(B)
    kmax, kmin = sigma_extremes(K)
    assert kmax == pytest.approx(ka[0] * kb[0], rel=1e-10)
    assert kmin == pytest.approx(ka[1] * kb[1], rel=1e-10)


def test_kron_size_cap():
    n = int(np.sqrt(KRON_MAX_ENTRIES)) + 1
    A = np.ones((n, 1))
    B = np.ones((n, 1))
    with pytest.raises(KronSizeError):
        kron(A, B)


def test_as_dense_and_as_csr():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    S = as_csr(M)
    np.testing.assert_array_equal(as_dense(S), M)
    # canonical form: duplicates summed, indices sorted
    coo = sp.coo_array((np.array([1.0, 1.0]), (np.array([0, 0]), np.array([0, 0]))), shape=(2, 2))
    S2 = as_csr(coo)
    assert S2[0, 0] == 2.0
    assert S2.has_canonical_format


def test_as_csr_canonicalizes_a_copy():
    # row 0 holds columns 2, 0, 0: as_csr sorts and sums them in a copy,
    # not in the arrays it shares with the caller's matrix
    parts = (np.array([1.0, 2.0, 3.0]), np.array([2, 0, 0]), np.array([0, 3, 3]))
    M = sp.csr_array(parts, shape=(2, 3))
    S = as_csr(M)
    np.testing.assert_array_equal(S.toarray(), [[5.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    for array, before in zip((M.data, M.indices, M.indptr), ([1, 2, 3], [2, 0, 0], [0, 3, 3])):
        np.testing.assert_array_equal(array, before)


def test_as_dense_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_dense(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_dense(np.array([[np.inf, 1.0]]))


def test_as_dense_rejects_wrong_ndim():
    with pytest.raises(ValueError):
        as_dense(np.zeros(3))
    with pytest.raises(ValueError):
        as_dense(np.zeros((2, 2, 2)))

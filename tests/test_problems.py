"""Instance generators, minimal-norm solutions, blur operators, PSNR."""

import math

import numpy as np
import pytest

from kaczmat.images import GrayImage
from kaczmat.problems import (
    BlurSpec,
    InconsistentSystemWarning,
    TypeISpec,
    blur_problem,
    gaussian_toeplitz,
    gen_type1,
    gen_type2,
    make_problem,
    min_norm_solution,
    psnr,
    uniform_toeplitz,
)
from kaczmat.problems import _orthonormal_columns

from oracles import kron, vec


def test_type1_spec_validation():
    with pytest.raises(ValueError):
        TypeISpec(m=4, p=3, r1=4, q=3, n=4, r2=3)  # r1 > min(m, p)
    with pytest.raises(ValueError):
        TypeISpec(m=4, p=3, r1=3, q=3, n=4, r2=4)
    with pytest.raises(ValueError):
        TypeISpec(m=0, p=3, r1=1, q=3, n=4, r2=1)


def test_orthonormal_columns():
    rng = np.random.default_rng(0)
    Q = _orthonormal_columns(rng.standard_normal((7, 4)))
    np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-10)
    # deterministic sign convention: first nonzero of each column positive
    for j in range(4):
        nz = np.nonzero(Q[:, j])[0]
        assert Q[nz[0], j] > 0


def test_gen_type1_ranks_and_spectrum():
    A, B = gen_type1(TypeISpec(m=10, p=6, r1=4, q=6, n=10, r2=5, seed=1))
    assert A.shape == (10, 6) and B.shape == (6, 10)
    sa = np.linalg.svd(A, compute_uv=False)
    sb = np.linalg.svd(B, compute_uv=False)
    assert np.sum(sa > 1e-8) == 4
    assert np.sum(sb > 1e-8) == 5
    # nonzero singular values sit strictly inside (1, 2)
    assert np.all(sa[:4] > 1.0 - 1e-8) and np.all(sa[:4] < 2.0 + 1e-8)
    assert np.all(sb[:5] > 1.0 - 1e-8) and np.all(sb[:5] < 2.0 + 1e-8)


def test_gen_type1_deterministic_in_seed():
    spec = TypeISpec(m=6, p=4, r1=3, q=4, n=6, r2=3, seed=7)
    A1, B1 = gen_type1(spec)
    A2, B2 = gen_type1(spec)
    np.testing.assert_array_equal(A1, A2)
    np.testing.assert_array_equal(B1, B2)
    A3, _ = gen_type1(TypeISpec(m=6, p=4, r1=3, q=4, n=6, r2=3, seed=8))
    assert not np.array_equal(A1, A3)


@pytest.mark.parametrize("seed", [1.5, -1, 2**64])
def test_generators_reject_a_seed_that_would_replay_another(seed):
    with pytest.raises(ValueError, match="seed"):
        gen_type1(TypeISpec(m=6, p=4, r1=3, q=4, n=6, r2=3, seed=seed))
    A, B = gen_type1(TypeISpec(m=6, p=4, r1=3, q=4, n=6, r2=3, seed=7))
    with pytest.raises(ValueError, match="seed"):
        make_problem(A, B, seed=seed)


def test_gen_type1_degenerate_square():
    A, B = gen_type1(TypeISpec(m=1, p=1, r1=1, q=1, n=1, r2=1, seed=0))
    assert A.shape == (1, 1) and B.shape == (1, 1)
    assert 1.0 < abs(A[0, 0]) < 2.0


def test_gen_type2_statistics():
    A, B = gen_type2(60, 40, 40, 60, seed=2)
    assert A.shape == (60, 40) and B.shape == (40, 60)
    assert abs(A.mean()) < 0.05 and abs(A.std() - 1.0) < 0.05
    A2, _ = gen_type2(60, 40, 40, 60, seed=2)
    np.testing.assert_array_equal(A, A2)
    with pytest.raises(ValueError):
        gen_type2(0, 1, 1, 1)


def test_make_problem_full_rank_recovers_drawn_matrix():
    A, B = gen_type1(TypeISpec(m=8, p=4, r1=4, q=4, n=8, r2=4, seed=3))
    prob = make_problem(A, B, seed=4, name="t")
    assert prob.name == "t"
    # full column/row rank: the minimal-norm solution is the drawn one
    np.testing.assert_allclose(prob.X_star, prob.X_drawn, atol=1e-8)
    resid = np.linalg.norm(A @ prob.X_star @ B - prob.C)
    assert resid <= 1e-8 * np.linalg.norm(prob.C)


def test_make_problem_rank_deficient_shrinks_solution():
    A, B = gen_type1(TypeISpec(m=10, p=6, r1=3, q=6, n=10, r2=3, seed=5))
    prob = make_problem(A, B, seed=6)
    assert np.linalg.norm(prob.X_star) < np.linalg.norm(prob.X_drawn)
    resid = np.linalg.norm(A @ prob.X_star @ B - prob.C)
    assert resid <= 1e-8 * np.linalg.norm(prob.C)


def test_make_problem_consistency_sweep():
    rng = np.random.default_rng(7)
    for trial in range(5):
        A = rng.standard_normal((7, 4))
        B = rng.standard_normal((4, 7))
        prob = make_problem(A, B, seed=trial)
        resid = np.linalg.norm(A @ prob.X_star @ B - prob.C)
        assert resid <= 1e-8 * np.linalg.norm(prob.C)


def test_min_norm_solution_identity_and_zero():
    C = np.arange(6.0).reshape(2, 3)
    np.testing.assert_allclose(min_norm_solution(np.eye(2), np.eye(3), C), C)
    np.testing.assert_array_equal(
        min_norm_solution(np.eye(2), np.eye(3), np.zeros((2, 3))), np.zeros((2, 3))
    )


def test_min_norm_solution_matches_kronecker_oracle():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 5))  # rank <= 4
    B = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
    X = rng.standard_normal((5, 5))
    C = A @ X @ B
    X_star = min_norm_solution(A, B, C)
    x_oracle = np.linalg.pinv(kron(B.T, A)) @ vec(C)
    np.testing.assert_allclose(vec(X_star), x_oracle, atol=1e-8)


def test_min_norm_solution_warns_on_inconsistent_system():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])  # rank 1
    B = np.eye(2)
    C = np.array([[1.0, 0.0], [1.0, 0.0]])  # second row unreachable
    with pytest.warns(InconsistentSystemWarning):
        min_norm_solution(A, B, C)


def test_uniform_toeplitz_small_cases():
    T = uniform_toeplitz(3, 1)
    np.testing.assert_allclose(T, np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) / 1.0)
    T2 = uniform_toeplitz(3, 2)
    np.testing.assert_allclose(T2, np.full((3, 3), 1 / 3))
    assert uniform_toeplitz(1, 1).shape == (1, 1)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        uniform_toeplitz(0, 1)
    with pytest.raises(ValueError, match="r must be at least 1, got 0"):
        uniform_toeplitz(3, 0)


def test_uniform_toeplitz_band_and_row_sums():
    n, r = 12, 3
    T = uniform_toeplitz(n, r)
    idx = np.arange(n)
    outside = np.abs(idx[:, None] - idx[None, :]) > r
    assert np.all(T[outside] == 0.0)
    inside = ~outside
    assert np.all(T[inside] == 1 / (2 * r - 1))
    # interior rows hold 2r + 1 band entries
    interior_sum = T[n // 2].sum()
    assert interior_sum == pytest.approx((2 * r + 1) / (2 * r - 1))
    # Toeplitz: constant along diagonals
    for k in range(n - 1):
        assert T[k, k] == T[k + 1, k + 1]
        assert T[k, k + 1] == T[k + 1, k]


def test_gaussian_toeplitz_values():
    n, r, sigma = 9, 3, 7.0
    B = gaussian_toeplitz(n, r, sigma)
    # frozen oracle for the diagonal value 1 / (sigma sqrt(2 pi))
    assert B[4, 4] == pytest.approx(0.05699175434306182, abs=1e-15)
    off = B[4, 5]
    assert off == pytest.approx(B[4, 4] * math.exp(-1.0 / (2 * sigma**2)), rel=1e-12)
    np.testing.assert_allclose(B, B.T, atol=0)
    idx = np.arange(n)
    assert np.all(B[np.abs(idx[:, None] - idx[None, :]) > r] == 0.0)
    with pytest.raises(ValueError, match="sigma must be positive, got 0.0"):
        gaussian_toeplitz(3, 1, 0.0)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        gaussian_toeplitz(0, 1, sigma)
    with pytest.raises(ValueError, match="r must be at least 1, got -1"):
        gaussian_toeplitz(3, -1, sigma)


def test_psnr_reference_cases():
    ref = np.full((4, 4), 100.0)
    assert psnr(ref, ref) == math.inf
    # MSE equal to peak^2 gives 0 dB
    assert psnr(ref, np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-12)
    # halving the error from peak adds 10 log10(4) dB
    assert psnr(ref, np.full((4, 4), 50.0)) == pytest.approx(10 * math.log10(4), abs=1e-12)
    with pytest.raises(ValueError):
        psnr(ref, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), ref)


def test_psnr_accepts_images_and_arrays():
    ref = GrayImage(np.full((3, 3), 200.0))
    out = np.full((3, 3), 190.0)
    assert psnr(ref, out) == pytest.approx(10 * math.log10(200**2 / 100), abs=1e-12)
    assert psnr(ref.pixels, GrayImage(out)) == pytest.approx(psnr(ref, out), abs=0)


def test_blur_problem_structure():
    rng = np.random.default_rng(9)
    img = GrayImage(rng.uniform(0, 255, size=(16, 16)))
    prob = blur_problem(img, BlurSpec(n=16, r=3, sigma=7.0))
    assert prob.shape == (16, 16, 16, 16)
    assert prob.name == "blur-n16-r3"
    np.testing.assert_allclose(prob.C, prob.A @ img.pixels @ prob.B, atol=1e-10)
    np.testing.assert_array_equal(prob.X_drawn, img.pixels)


def test_blur_problem_constant_image_interior():
    # constant interior: the row blur keeps level (full rows sum to
    # (2r+1)/(2r-1)) and the column blur scales by its row sums; just check
    # the center pixel against a direct convolution
    img = GrayImage(np.full((9, 9), 60.0))
    prob = blur_problem(img, BlurSpec(n=9, r=2, sigma=3.0))
    A = uniform_toeplitz(9, 2)
    B = gaussian_toeplitz(9, 2, 3.0)
    assert prob.C[4, 4] == pytest.approx(60.0 * A[4].sum() * B[:, 4].sum(), rel=1e-12)


def test_blur_problem_shape_errors():
    img = GrayImage(np.ones((4, 6)))
    with pytest.raises(ValueError):
        blur_problem(img, BlurSpec(n=4))
    square = GrayImage(np.ones((4, 4)))
    with pytest.raises(ValueError):
        blur_problem(square, BlurSpec(n=5))


def test_blur_bandwidth_must_be_an_integer():
    # a bandwidth of 2.5 once built a band |i - j| <= 2.5 scaled by 1/(2r - 1) = 1/4
    with pytest.raises(ValueError, match="^bandwidth must be an integer, got 2.5"):
        BlurSpec(n=8, r=2.5)
    with pytest.raises(ValueError, match="^r must be an integer, got 2.5"):
        uniform_toeplitz(8, 2.5)
    with pytest.raises(ValueError, match="^r must be an integer, got 2.5"):
        gaussian_toeplitz(8, 2.5, 7.0)
    np.testing.assert_array_equal(uniform_toeplitz(8, np.int64(2)), uniform_toeplitz(8, 2))


def test_generator_sizes_must_be_integers():
    # m = 2.5 once failed inside numpy with a TypeError that named no input
    with pytest.raises(ValueError, match="^m must be an integer, got 2.5"):
        TypeISpec(m=2.5, p=4, r1=2, q=4, n=6, r2=2)
    with pytest.raises(ValueError, match="^m must be an integer, got 2.5"):
        gen_type2(2.5, 4, 4, 6)
    with pytest.raises(ValueError, match="^n must be an integer"):
        gen_type2(6, 4, 4, "6")


def test_blur_sigma_must_be_finite():
    # sigma = inf was accepted, and gaussian_toeplitz then was all zeros
    with pytest.raises(ValueError, match="^sigma must be finite, got inf"):
        BlurSpec(n=8, sigma=math.inf)
    with pytest.raises(ValueError, match="^sigma must be finite, got inf"):
        gaussian_toeplitz(8, 3, math.inf)
    with pytest.raises(ValueError, match="^sigma must be finite, got nan"):
        gaussian_toeplitz(8, 3, math.nan)


def test_blur_spec_validation():
    with pytest.raises(ValueError):
        BlurSpec(n=0)
    with pytest.raises(ValueError):
        BlurSpec(n=4, r=0)
    with pytest.raises(ValueError):
        BlurSpec(n=4, sigma=-1.0)

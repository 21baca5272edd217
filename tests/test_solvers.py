"""Solver steps, stepsizes, and the solve() driver."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from kaczmat import sampling, solvers
from kaczmat.matrices import pinv
from kaczmat.problems import TypeISpec, gen_type1, gen_type2, make_problem
from kaczmat.rates import beta_max, gamma_max
from kaczmat.sampling import BlockPartition, SeededRng, categorical, sample_block
from kaczmat.solvers import (
    DRAW_CHUNK,
    GRABK_ADAPTIVE,
    GRABK_CONST,
    GRBK,
    GRK,
    METHODS,
    ConvergenceReport,
    Problem,
    SolverConfig,
    _grabk_adaptive_apply,
    adaptive_stepsize,
    grabk_step,
    grbk_step,
    grk_step,
    prepare_state,
    relative_error,
    solve,
)

from oracles import (
    grk_chunk_iterates,
    grk_oracle,
    grk_residual_oracle,
    grk_step_oracle,
    kron,
    rk_kronecker_step,
    unvec,
    vec,
)


# the forms of the residual: recompute C - A X B in full, keep it in the
# coordinates of range(A) x range(B^T) (a QR basis on a tall side, the
# identity on a square or wide one), or keep it in QR coordinates on every
# side, so that each case runs the projected arithmetic tall factors get
RESIDUAL_FORMS = {"recomputed": False, "kept": True, "kept-qr": True}
KEPT_FORMS = [form for form, keeps in RESIDUAL_FORMS.items() if keeps]


def use_residual_form(monkeypatch, form):
    monkeypatch.setattr(solvers, "_keeps_residual", lambda *args: RESIDUAL_FORMS[form])
    if form == "kept-qr":
        monkeypatch.setattr(solvers, "_range_basis", np.linalg.qr)


def small_problem(seed=0, m=8, p=5, q=5, n=8):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, p))
    B = rng.standard_normal((q, n))
    return make_problem(A, B, seed=seed + 1)


# ---------------------------------------------------------------- containers


def test_problem_validates_shapes():
    A = np.ones((3, 2))
    B = np.ones((2, 4))
    with pytest.raises(ValueError):
        Problem(A=A, B=B, C=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Problem(A=A, B=B, C=np.zeros((3, 4)), X_star=np.zeros((3, 2)))
    prob = Problem(A=A, B=B, C=np.zeros((3, 4)))
    assert prob.shape == (3, 2, 2, 4)


def test_problem_rejects_wrong_reference_solution():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 4))
    X = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        Problem(A=A, B=B, C=A @ X @ B, X_star=X + 1.0)


@pytest.mark.parametrize("scale", [1e-170, 1e-158, 1e155])
@pytest.mark.parametrize("x_star", [False, True], ids=["residual", "x_star"])
def test_problem_rejects_a_squared_norm_outside_the_normal_range(scale, x_star):
    # with C (and X_star) scaled so, ||C||_F^2 underflows to 0 (every run
    # stopped "tolerance" at X = 0), is subnormal (runs stopped early) or
    # overflows (runs ended "diverged" after one step, or raised numpy's
    # overflow warning under -W error)
    A, B = gen_type1(TypeISpec(20, 10, 10, 10, 20, 10, seed=1))
    base = make_problem(A, B, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"C is nonzero .* rescale the problem"):
            Problem(A=A, B=B, C=base.C * scale, X_star=base.X_star * scale if x_star else None)
        Problem(A=A, B=B, C=base.C * 1e-150, X_star=base.X_star * 1e-150)
        Problem(A=A, B=B, C=np.zeros((20, 20)), X_star=np.zeros((10, 10)))


@pytest.mark.parametrize("name, matrices", [
    ("A", {"A": [[1e-160]], "B": [[1.0]], "C": [[0.0]]}),
    ("B", {"A": [[1.0]], "B": [[1e160]], "C": [[0.0]]}),
    # a CSR X_star is checked once densified
    ("X_star", {"A": [[1e154]], "B": [[1.0]], "C": [[1.0]], "X_star": sp.csr_array([[1e-154]])}),
])
def test_problem_names_the_matrix_outside_the_normal_range(name, matrices):
    with pytest.raises(ValueError, match=rf"^{name} is nonzero but"):
        Problem(**matrices)


def _assert_dense_c_float64(M):
    assert type(M) is np.ndarray and M.dtype == np.float64 and M.flags.c_contiguous


def test_problem_accepts_sparse_factors():
    A = sp.csr_array(np.eye(3))
    B = sp.csr_array(np.eye(3))
    X = np.arange(9.0).reshape(3, 3)
    prob = Problem(A=A, B=B, C=X.copy(), X_star=X)
    for M in (prob.A, prob.B):
        _assert_dense_c_float64(M)
        np.testing.assert_array_equal(M, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("factor", ["A", "B"])
@pytest.mark.parametrize("form", [np.asarray, sp.csr_array, sp.csr_matrix, sp.coo_array])
def test_problem_rejects_nonfinite_factors(bad, factor, form):
    # a sparse factor is checked at the boundary as a dense one is, not left
    # for the first pinv, sampling weights or a diverged step to find
    M = np.eye(3)
    M[1, 2] = bad
    factors = {"A": np.eye(3), "B": np.eye(3), factor: form(M)}
    with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
        Problem(**factors, C=np.zeros((3, 3)))


def test_problem_stores_sparse_factors_as_dense_arrays():
    # COO duplicates sum, and a csr_matrix comes out as a plain array
    A = sp.coo_array((np.array([1.0, 2.0, 3.0]), (np.array([0, 1, 1]), np.array([0, 1, 1]))),
                     shape=(2, 2))
    B = sp.csr_matrix(np.eye(2))
    prob = Problem(A=A, B=B, C=np.zeros((2, 2)))
    for M in (prob.A, prob.B):
        _assert_dense_c_float64(M)
    np.testing.assert_array_equal(prob.A, [[1.0, 0.0], [0.0, 5.0]])


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="nope")
    with pytest.raises(ValueError):
        SolverConfig(weight_scheme="square")
    with pytest.raises(ValueError):
        SolverConfig(re_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(trace_every=0)
    with pytest.raises(ValueError):
        SolverConfig(tau1=0)
    with pytest.raises(ValueError):
        SolverConfig(method=GRK, tau2=0)
    # the single-index method owns its 1x1 blocks
    config = SolverConfig(method=GRK, tau1=5, tau2=6)
    assert (config.tau1, config.tau2) == (1, 1)
    # non-finite settings would give a NaN iterate or never stop on tolerance
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(method=GRABK_CONST, eta=bad)
        with pytest.raises(ValueError):
            SolverConfig(re_tolerance=bad)
        with pytest.raises(ValueError):
            SolverConfig(max_seconds=bad)


@pytest.mark.parametrize("name", ["tau1", "tau2", "max_iters", "trace_every"])
def test_config_rejects_a_non_integral_count(name):
    # a float count used to get through: tau1=2.5 ran 1677 steps,
    # trace_every=2.5 recorded every 5th step and max_iters=2.5 failed
    # inside sample_block with numpy's TypeError
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SolverConfig(method=GRBK, **{name: bad})
    # numpy integers are counts too, kept as Python ints
    config = SolverConfig(method=GRBK, **{name: np.int64(3)})
    assert type(getattr(config, name)) is int and getattr(config, name) == 3
    prob = small_problem(5)
    numpy_run, int_run = (solve(prob, SolverConfig(**{"method": GRBK, "seed": 2,
                                                      "max_iters": 20, name: count}))
                          for count in (np.int32(2), 2))
    np.testing.assert_array_equal(numpy_run.X, int_run.X)
    assert numpy_run.trace.iteration == int_run.trace.iteration


def test_config_eta_defaults_and_guard():
    assert SolverConfig(method=GRABK_CONST).resolved_eta() == 1.95
    assert SolverConfig(method=GRABK_ADAPTIVE).resolved_eta() == 1.0
    assert SolverConfig(method=GRBK).resolved_eta() == 1.0
    with pytest.raises(ValueError, match="set unsafe_stepsize=True"):
        SolverConfig(method=GRABK_CONST, eta=2.0)
    with pytest.raises(ValueError):
        SolverConfig(method=GRABK_ADAPTIVE, eta=-0.5)
    cfg = SolverConfig(method=GRABK_CONST, eta=2.5, unsafe_stepsize=True)
    assert cfg.resolved_eta() == 2.5
    # the guard only applies to the averaged methods
    SolverConfig(method=GRBK, eta=5.0)


def test_relative_error_examples():
    X = np.eye(2)
    assert relative_error(X, X) == 0.0
    assert relative_error(np.zeros((2, 2)), X) == pytest.approx(1.0)
    assert relative_error(2 * X, X) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(X, np.zeros((2, 2)))
    # a column against a matrix once broadcast to 1.0
    with pytest.raises(ValueError, match="shape"):
        relative_error(np.zeros((2, 1)), X)
    with pytest.raises(ValueError, match="shape"):
        relative_error(np.zeros(4), X)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (40, 40), (17, 2)])
@pytest.mark.parametrize("orders", ["CC", "FF", "CF", "FC"])
@pytest.mark.parametrize("zero", [False, True])
def test_error_is_bitwise_the_norm_expression(shape, orders, zero):
    # the exact error sums in memory order, as np.linalg.norm does, so a
    # Fortran-ordered pair sums in the same order as before
    rng = np.random.default_rng(sum(shape) + 7 * zero)
    X_star = np.asarray(rng.standard_normal(shape), order=orders[1])
    X = np.zeros(shape, order=orders[0])
    if not zero:
        X[...] = X_star + 1e-3 * rng.standard_normal(shape)
    xstar_sq = float(np.linalg.norm(X_star, "fro") ** 2)
    expect = float(np.linalg.norm(X - X_star, "fro") ** 2 / xstar_sq)
    value = solvers._error(X, X_star, xstar_sq)
    assert type(value) is float and value == expect
    assert relative_error(X, X_star) == expect


# ---------------------------------------------------------------- single steps


def test_grk_step_identity_factors():
    # with A = B = I the step writes the sampled entry of C into X
    C = np.array([[1.0, 2.0], [3.0, 4.0]])
    prob = Problem(A=np.eye(2), B=np.eye(2), C=C, X_star=C)
    state = prepare_state(prob, SolverConfig(method=GRK))
    grk_step(state, 0, 1)
    np.testing.assert_allclose(state.X, [[0.0, 2.0], [0.0, 0.0]])
    grk_step(state, 1, 0)
    np.testing.assert_allclose(state.X, [[0.0, 2.0], [3.0, 0.0]])


def test_grk_step_is_idempotent_on_solved_entry():
    prob = small_problem(2)
    state = prepare_state(prob, SolverConfig(method=GRK))
    grk_step(state, 3, 4)
    before = state.X.copy()
    grk_step(state, 3, 4)  # sampled residual is now zero
    np.testing.assert_allclose(state.X, before, atol=1e-14)


def test_grk_step_zero_row_raises():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    prob = Problem(A=A, B=np.eye(2), C=np.zeros((2, 2)))
    state = prepare_state(prob, SolverConfig(method=GRK))
    with pytest.raises(ValueError):
        grk_step(state, 1, 0)
    with pytest.raises(ValueError):
        grk_step(state, [0, 1], [0, 0])


@pytest.mark.parametrize("i,j", [([0, 1], [0]), ([], []), ([[0, 1]], [[0, 1]])])
def test_grk_step_rejects_index_arrays_of_no_one_length(i, j):
    state = prepare_state(small_problem(2), SolverConfig(method=GRK))
    shapes = f"{np.shape(i)} and {np.shape(j)}"
    with pytest.raises(ValueError, match=re.escape(f"got shapes {shapes}")):
        grk_step(state, i, j)
    assert not state.X.any()


def test_grk_step_over_index_arrays_runs_the_steps_in_order():
    # K steps as one chunk give the X and residuals of K rank-1 steps run
    # one at a time to 1e-13 relative, hand _prefix the steps' rows,
    # columns, residuals r and r / (||A_i||^2 ||B_j||^2), whose product is
    # each step's decrease, and the gathered B[:, j] and C[i, j], and apply
    # the prefix it returns; a scalar pair is a chunk of one
    prob = small_problem(8)
    i, j = [3, 0, 3, 7, 1, 5, 3, 2], [4, 4, 1, 0, 4, 6, 1, 2]  # with repeats
    state = prepare_state(prob, SolverConfig(method=GRK))
    r, iterates = grk_step_oracle(prob, state.X, i, j)
    d = state.row_norms_sq[i] * state.col_norms_sq[j]
    for applied in (8, 3):
        chunk = prepare_state(prob, SolverConfig(method=GRK))
        drops = []
        out = grk_step(chunk, i, j, _prefix=lambda *args, c=applied: drops.append(args) or c)
        rows, cols, rs, s, B_S, C_S = drops[0]
        assert (rows.tolist(), cols.tolist()) == (i, j)
        np.testing.assert_array_equal(B_S, prob.B[:, j])
        np.testing.assert_array_equal(C_S, prob.C[i, j])
        np.testing.assert_allclose(rs, r, rtol=1e-13)
        np.testing.assert_allclose(rs * s, np.square(r) / d, rtol=1e-13)
        np.testing.assert_allclose(out, r[:applied], rtol=1e-13)
        X = iterates[applied - 1]
        assert np.linalg.norm(chunk.X - X) <= 1e-13 * np.linalg.norm(X)
    np.testing.assert_allclose(grk_step(prepare_state(prob, SolverConfig(method=GRK)),
                                        i, j), r, rtol=1e-13)
    out = grk_step(state, i[0], j[0])
    assert out.shape == (1,)
    np.testing.assert_allclose(out, r[:1], rtol=1e-13)
    assert np.linalg.norm(state.X - iterates[0]) <= 1e-13 * np.linalg.norm(iterates[0])


def test_grk_step_leaves_the_state_but_x_as_it_was():
    # a chunk hands its operands to _prefix by argument, not on the state
    state = prepare_state(small_problem(8), SolverConfig(method=GRK))
    before = dict(vars(state))
    X = state.X.copy()
    grk_step(state, [3, 0, 7], [4, 4, 1], _prefix=lambda *args: 2)
    assert vars(state).keys() == before.keys()
    assert all(vars(state)[name] is value for name, value in before.items())
    assert not np.array_equal(state.X, X)


def test_grbk_full_block_is_direct_solve():
    prob = small_problem(3)
    state = prepare_state(prob, SolverConfig(method=GRBK, tau1=8, tau2=8))
    grbk_step(state, np.arange(8), np.arange(8))
    np.testing.assert_allclose(state.X, prob.X_star, atol=1e-8)


def test_grbk_step_matches_pinv_oracle():
    prob = small_problem(4)
    state = prepare_state(prob, SolverConfig(method=GRBK, tau1=2, tau2=2))
    I, J = np.array([1, 5]), np.array([0, 3])
    X_prev = state.X.copy()
    grbk_step(state, I, J)
    A_I = np.asarray(prob.A)[I, :]
    B_J = np.asarray(prob.B)[:, J]
    R = prob.C[np.ix_(I, J)] - A_I @ X_prev @ B_J
    expect = X_prev + np.linalg.pinv(A_I) @ R @ np.linalg.pinv(B_J)
    np.testing.assert_allclose(state.X, expect, atol=1e-10)


def test_grbk_step_solves_sketched_equation():
    prob = small_problem(5)
    state = prepare_state(prob, SolverConfig(method=GRBK, tau1=3, tau2=3))
    I, J = np.arange(3), np.arange(3, 6)
    grbk_step(state, I, J)
    A_I = np.asarray(prob.A)[I, :]
    B_J = np.asarray(prob.B)[:, J]
    resid = prob.C[np.ix_(I, J)] - A_I @ state.X @ B_J
    assert np.linalg.norm(resid) <= 1e-8 * (1 + np.linalg.norm(prob.C[np.ix_(I, J)]))


def test_grbk_step_zero_block_raises():
    A = np.vstack([np.eye(2), np.zeros((2, 2))])
    prob = Problem(A=A, B=np.eye(2), C=np.zeros((4, 2)))
    state = prepare_state(prob, SolverConfig(method=GRBK, tau1=2, tau2=1))
    with pytest.raises(ValueError):
        grbk_step(state, np.array([2, 3]), np.array([0]))


def test_grabk_singleton_equals_grk():
    prob = small_problem(6)
    sa = prepare_state(prob, SolverConfig(method=GRK))
    sb = prepare_state(prob, SolverConfig(method=GRABK_CONST))
    grk_step(sa, 2, 3)
    grabk_step(sb, np.array([2]), np.array([3]), [1.0], [1.0], alpha=1.0)
    np.testing.assert_allclose(sb.X, sa.X, atol=1e-12)


def test_grabk_step_matches_weighted_sum_of_rank_one_updates():
    prob = small_problem(7)
    state = prepare_state(prob, SolverConfig(method=GRABK_CONST, tau1=3, tau2=2))
    I, J = np.array([0, 2, 6]), np.array([1, 4])
    u = np.array([0.5, 0.2, 0.3])
    v = np.array([0.6, 0.4])
    A = np.asarray(prob.A)
    B = np.asarray(prob.B)
    X0 = state.X.copy()
    alpha = 1.3
    expect = X0.copy()
    for ui, i in zip(u, I):
        for vj, j in zip(v, J):
            a, b = A[i], B[:, j]
            r = prob.C[i, j] - a @ X0 @ b
            expect += alpha * ui * vj * r * np.outer(a, b) / (a @ a) / (b @ b)
    grabk_step(state, I, J, u, v, alpha)
    np.testing.assert_allclose(state.X, expect, atol=1e-12)


def test_grabk_step_weight_validation():
    prob = small_problem(8)
    state = prepare_state(prob, SolverConfig(method=GRABK_CONST, tau1=2, tau2=2))
    I, J = np.array([0, 1]), np.array([0, 1])
    with pytest.raises(ValueError):
        grabk_step(state, I, J, [1.0], [0.5, 0.5], 1.0)  # wrong length
    with pytest.raises(ValueError):
        grabk_step(state, I, J, [-0.2, 1.2], [0.5, 0.5], 1.0)  # negative
    with pytest.raises(ValueError):
        grabk_step(state, I, J, [0.5, 0.6], [0.5, 0.5], 1.0)  # sum != 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grabk_caller_weights_must_be_finite(bad):
    # a NaN weight once passed both the sign and the sum check: grabk_step
    # made X non-finite and adaptive_stepsize returned (nan, nan)
    state = prepare_state(small_problem(8), SolverConfig(method=GRABK_ADAPTIVE, tau1=2, tau2=2))
    I, J = np.array([0, 1]), np.array([0, 1])
    with pytest.raises(ValueError, match="row weights must be finite"):
        grabk_step(state, I, J, [bad, 1.0], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="column weights must be finite"):
        adaptive_stepsize(state, I, J, [0.5, 0.5], [1.0, bad])
    assert not state.X.any()


@pytest.mark.parametrize("alpha,message", [(math.nan, "alpha must be finite"),
                                           (math.inf, "alpha must be finite"),
                                           ("1", "alpha must be a real number")])
def test_grabk_step_rejects_a_bad_alpha(alpha, message):
    # a NaN alpha once made X non-finite, and a string reached BLAS
    state = prepare_state(small_problem(8), SolverConfig(method=GRABK_CONST, tau1=2, tau2=2))
    with pytest.raises(ValueError, match=message):
        grabk_step(state, [0, 1], [0], [0.5, 0.5], [1.0], alpha)
    assert not state.X.any()


def test_grabk_weights_reject_weight_on_a_zero_row():
    A = np.eye(4)
    A[1] = 0.0  # row block {0, 1} holds a zero row
    prob = make_problem(A, np.eye(4), seed=3)
    state = prepare_state(prob, SolverConfig(method=GRABK_CONST, tau1=2, tau2=2))
    I, J = np.array([0, 1]), np.array([0, 1])
    with pytest.raises(ValueError, match="row weights: positive weight on a zero row"):
        grabk_step(state, I, J, [0.5, 0.5], [0.5, 0.5], 1.0)
    grabk_step(state, I, J, [1.0, 0.0], [0.5, 0.5], 1.0)  # no weight on it: fine
    uniform = SolverConfig(method=GRABK_CONST, tau1=2, tau2=2, weight_scheme="uniform")
    with pytest.raises(ValueError, match="uniform weights require nonzero rows"):
        prepare_state(prob, uniform)


def test_constant_stepsize_is_eta_over_block_lams():
    # alpha = eta / (lam_A lam_B): beta_max^2 per factor for Frobenius
    # weights, and max over blocks of gamma_b^2 / |b| for uniform ones, so a
    # short last block (10 = 4 + 4 + 2 rows, 9 = 3 + 3 + 3 columns) counts
    # with its own size
    prob = small_problem(5, m=10, n=9)
    config = SolverConfig(method=GRABK_CONST, tau1=4, tau2=3)
    state = prepare_state(prob, config)
    pa, pb = state.partition_rows, state.partition_cols
    assert state.alpha_const == 1.95 / (beta_max(prob.A, pa, "rows") ** 2
                                        * beta_max(prob.B, pb, "cols") ** 2)
    config = SolverConfig(method=GRABK_CONST, tau1=4, tau2=3, eta=1.5,
                          weight_scheme="uniform")
    lam_a = gamma_max(prob.A, pa, "rows", per_index=True)
    lam_b = gamma_max(prob.B, pb, "cols", per_index=True)
    assert prepare_state(prob, config).alpha_const == 1.5 / (lam_a * lam_b)
    assert lam_a > gamma_max(prob.A, pa, "rows") ** 2 / 4  # the short block binds


def test_adaptive_stepsize_singleton_is_one():
    prob = small_problem(9)
    state = prepare_state(prob, SolverConfig(method=GRABK_ADAPTIVE))
    out = adaptive_stepsize(state, np.array([1]), np.array([2]), [1.0], [1.0])
    assert out is not None
    L, alpha = out
    assert L == pytest.approx(1.0, abs=1e-12)
    assert alpha == pytest.approx(state.eta, abs=1e-12)


def test_adaptive_stepsize_zero_residual_returns_none():
    X = np.arange(4.0).reshape(2, 2) + 1
    prob = Problem(A=np.eye(2), B=np.eye(2), C=X.copy(), X_star=X)
    state = prepare_state(prob, SolverConfig(method=GRABK_ADAPTIVE))
    state.X = X.copy()  # already solved
    out = adaptive_stepsize(state, np.array([0, 1]), np.array([0, 1]), [0.5, 0.5], [0.5, 0.5])
    assert out is None


def test_adaptive_stepsize_matches_brute_force():
    prob = small_problem(10)
    state = prepare_state(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=3, tau2=3))
    I, J = np.array([1, 3, 5]), np.array([2, 4, 7])
    u = np.array([0.2, 0.3, 0.5])
    v = np.array([0.4, 0.4, 0.2])
    A, B = np.asarray(prob.A), np.asarray(prob.B)
    na2 = np.sum(A[I] ** 2, axis=1)
    nb2 = np.sum(B[:, J] ** 2, axis=0)
    R = prob.C[np.ix_(I, J)] - A[I] @ state.X @ B[:, J]
    U = sum(
        u[ii] * v[jj] * R[ii, jj] * np.outer(A[I[ii]], B[:, J[jj]]) / na2[ii] / nb2[jj]
        for ii in range(3)
        for jj in range(3)
    )
    num = sum(
        u[ii] * v[jj] * R[ii, jj] ** 2 / na2[ii] / nb2[jj]
        for ii in range(3)
        for jj in range(3)
    )
    L, _ = adaptive_stepsize(state, I, J, u, v)
    assert L == pytest.approx(num / np.sum(U * U), rel=1e-12)


def test_adaptive_stepsize_respects_lower_bound():
    # L >= 1 / (u_max v_max gamma^2(A_I) gamma^2(B_J)) for the sampled block
    prob = small_problem(11)
    A, B = np.asarray(prob.A), np.asarray(prob.B)
    state = prepare_state(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=4, tau2=4))
    state.X = np.random.default_rng(0).standard_normal(state.X.shape)
    I, J = np.arange(4), np.arange(4, 8)
    na = np.linalg.norm(A[I], axis=1)
    nb = np.linalg.norm(B[:, J], axis=0)
    u = na**2 / np.sum(na**2)
    v = nb**2 / np.sum(nb**2)
    gA = np.linalg.norm(A[I] / na[:, None], 2)
    gB = np.linalg.norm(B[:, J] / nb[None, :], 2)
    L, _ = adaptive_stepsize(state, I, J, u, v)
    bound = 1.0 / (u.max() * v.max() * gA**2 * gB**2)
    assert L >= bound * (1 - 1e-12)


def test_rk_kronecker_step_zeroes_sampled_row_residual():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((6, 4))
    x_true = rng.standard_normal(4)
    c = M @ x_true
    x = np.zeros(4)
    rk_kronecker_step(x, M, c, 2)
    assert M[2] @ x == pytest.approx(c[2], abs=1e-12)
    # solved row: step is a no-op
    before = x.copy()
    rk_kronecker_step(x, M, c, 2)
    np.testing.assert_allclose(x, before, atol=1e-14)


def test_rk_kronecker_step_zero_row_raises():
    M = np.zeros((2, 2))
    with pytest.raises(ValueError):
        rk_kronecker_step(np.zeros(2), M, np.zeros(2), 0)


# ---------------------------------------------------------------- solve()


def test_solve_zero_rhs_terminates_immediately():
    prob = Problem(A=np.eye(3), B=np.eye(3), C=np.zeros((3, 3)))
    report = solve(prob, SolverConfig(method=GRK, max_iters=100))
    assert report.iterations == 0
    assert report.termination == "tolerance"
    assert report.trace.iteration == []
    np.testing.assert_array_equal(report.X, np.zeros((3, 3)))


def test_solve_full_block_converges_in_one_iteration():
    prob = small_problem(13)
    report = solve(prob, SolverConfig(method=GRBK, tau1=8, tau2=8))
    assert report.iterations == 1
    assert report.termination == "tolerance"
    assert report.trace.iteration == [1]
    assert report.final_relative_error < 1e-6


def test_solve_all_methods_converge_small():
    prob = small_problem(14)
    for method in METHODS:
        cfg = SolverConfig(method=method, tau1=4, tau2=4, max_iters=20000, seed=3)
        report = solve(prob, cfg)
        assert report.termination == "tolerance", method
        assert relative_error(report.X, prob.X_star) < 1e-6, method


def test_solve_trace_schema_and_monotone_iterations():
    prob = small_problem(15)
    report = solve(prob, SolverConfig(method=GRBK, tau1=2, tau2=2, seed=1))
    its = report.trace.iteration
    assert its == sorted(its) and len(set(its)) == len(its)
    assert its[-1] == report.iterations
    elapsed = report.trace.elapsed
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    assert None not in report.trace.relative_error
    assert None not in report.trace.relative_residual


def test_solve_trace_every_thins_records():
    A, B = gen_type1(TypeISpec(m=8, p=5, r1=5, q=5, n=8, r2=5, seed=16))
    prob = make_problem(A, B, seed=17)
    report = solve(prob, SolverConfig(method=GRK, seed=2, trace_every=25, max_iters=20000))
    assert report.termination == "tolerance"
    body, last = report.trace.iteration[:-1], report.trace.iteration[-1]
    assert all(k % 25 == 0 for k in body)
    assert last == report.iterations


@pytest.mark.parametrize("trace_every", [1, 7, 10**6])
@pytest.mark.parametrize("x_star", [True, False], ids=["x_star", "residual"])
@pytest.mark.parametrize("method", METHODS)
def test_solve_fills_equal_trace_columns(method, x_star, trace_every):
    # solve fills the trace's four columns to one length, also for the
    # records inside GRK's chunks (trace_every 7 with a kept residual); the
    # last record is the last iteration, and the final values are the
    # columns' last entries
    A, B = gen_type1(TypeISpec(m=30, p=10, r1=10, q=10, n=30, r2=10, seed=21))
    prob = make_problem(A, B, seed=22)
    if not x_star:
        prob = Problem(A=prob.A, B=prob.B, C=prob.C)
    config = SolverConfig(method=method, tau1=5, tau2=5, seed=3, trace_every=trace_every,
                          max_iters=20000)
    report = solve(prob, config)
    trace = report.trace
    columns = (trace.iteration, trace.relative_error, trace.relative_residual, trace.elapsed)
    assert len({len(column) for column in columns}) == 1
    assert trace.iteration[-1] == report.iterations
    assert (report.final_relative_error, report.final_relative_residual) == (
        trace.relative_error[-1], trace.relative_residual[-1])


def test_solve_max_iters_termination():
    prob = small_problem(17)
    report = solve(prob, SolverConfig(method=GRK, max_iters=3, seed=0))
    assert report.termination == "max_iters"
    assert report.iterations == 3


def test_solve_time_limit_termination(monkeypatch):
    prob = small_problem(18)
    report = solve(prob, SolverConfig(method=GRBK, tau1=2, tau2=2, max_seconds=0.0,
                                      max_iters=1000))
    assert (report.termination, report.iterations) == ("time_limit", 1)
    # GRK with X_star tracks its error and runs its steps in chunks,
    # checking the clock after each, so it stops at the end of its first
    # chunk. With a quiet trace records recompute the residual and the
    # time-limit record's error is exact; with a record on every step the
    # residual is kept, and the record reads the error kept beside it
    chunks, step = [], solvers.grk_step

    def counted_step(*args, **kwargs):
        out = step(*args, **kwargs)
        chunks.append(np.size(out))
        return out

    monkeypatch.setattr(solvers, "grk_step", counted_step)
    for trace_every in (10**6, 1):
        chunks.clear()
        report = solve(prob, SolverConfig(method=GRK, max_seconds=0.0, max_iters=1000,
                                          trace_every=trace_every))
        assert (report.termination, report.iterations) == ("time_limit", chunks[0])
        assert len(chunks) == 1 and 1 < chunks[0] <= solvers.GRK_CHUNK
        exact = relative_error(report.X, prob.X_star)
        if trace_every > 1:
            assert report.trace.relative_error[-1] == exact
        assert abs(report.trace.relative_error[-1] - exact) <= 1e-14


def test_solve_residual_fallback_without_reference():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((4, 6))
    X = rng.standard_normal((4, 4))
    prob = Problem(A=A, B=B, C=A @ X @ B)
    report = solve(prob, SolverConfig(method=GRBK, tau1=3, tau2=3, re_tolerance=1e-10, seed=4))
    assert report.termination == "tolerance"
    assert report.final_relative_residual < 1e-10
    assert all(error is None for error in report.trace.relative_error)


def test_solve_reproducible_and_seed_sensitive():
    prob = small_problem(20)
    cfg = SolverConfig(method=GRABK_ADAPTIVE, tau1=2, tau2=2, seed=9, max_iters=200)
    r1, r2 = solve(prob, cfg), solve(prob, cfg)
    np.testing.assert_array_equal(r1.X, r2.X)
    assert r1.iterations == r2.iterations
    assert r1.trace.relative_error == r2.trace.relative_error
    r3 = solve(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=2, tau2=2, seed=10, max_iters=200))
    assert not np.array_equal(r1.X, r3.X)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", 2**64, np.float64(2.0)])
def test_config_rejects_a_seed_that_would_replay_another(seed):
    # each once constructed and failed only inside solve, by the rule of
    # SeededRng, which the config now applies; integer seeds in range are
    # kept as Python ints
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(method=GRBK, seed=seed)
    for ok in (0, 2**64 - 1, np.int64(7)):
        config = SolverConfig(method=GRBK, seed=ok)
        assert type(config.seed) is int and config.seed == ok


@pytest.mark.parametrize("seed", [1.5, -1])
def test_solve_rejects_a_seed_that_would_replay_another(seed):
    # 1.5 once ran seed 1's draws and -1 those of 2**64 - 1
    with pytest.raises(ValueError, match="seed"):
        solve(small_problem(20), SolverConfig(method=GRBK, tau1=2, tau2=2, seed=seed))


def test_solve_grbk_error_is_monotone_with_pythagoras():
    prob = small_problem(21, m=12, p=6, q=6, n=12)
    cfg = SolverConfig(method=GRBK, tau1=3, tau2=3, seed=5, max_iters=40, re_tolerance=1e-14)
    state = prepare_state(prob, cfg)

    err_prev = np.linalg.norm(state.X - prob.X_star) ** 2
    for _ in range(40):
        bi = sample_block(state.dist_rows, state.rng)
        bj = sample_block(state.dist_cols, state.rng)
        X_prev = state.X.copy()
        grbk_step(state, state.partition_rows.block(bi), state.partition_cols.block(bj))
        err = np.linalg.norm(state.X - prob.X_star) ** 2
        move = np.linalg.norm(state.X - X_prev) ** 2
        # orthogonal projection toward the solution set
        assert err <= err_prev + 1e-12
        assert err == pytest.approx(err_prev - move, rel=1e-8, abs=1e-12)
        err_prev = err


def test_grabk_adaptive_step_lowers_error_by_exact_amount():
    # ||E_k||^2 - ||E_{k+1}||^2 = eta (2 - eta) num L for the kernel solve()
    # runs, so the decrease is largest at eta = 1 and vanishes at 0 and 2.
    prob = small_problem(25)
    A, B = np.asarray(prob.A), np.asarray(prob.B)
    state = prepare_state(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=2, tau2=2, seed=9))
    grid = (0.2, 1.0, 1.8, 1.99)
    for step in range(20):
        bi = sample_block(state.dist_rows, state.rng)
        bj = sample_block(state.dist_cols, state.rng)
        I, J = state.partition_rows.block(bi), state.partition_cols.block(bj)
        u_hat, v_hat = state.row_weights_hat[bi], state.col_weights_hat[bj]
        X0 = state.X.copy()
        err0 = np.linalg.norm(X0 - prob.X_star) ** 2
        R = prob.C[np.ix_(I, J)] - A[I] @ X0 @ B[:, J]
        num = float(u_hat @ (R * R) @ v_hat)
        drops = {}
        for eta in grid:
            state.X, state.eta = X0.copy(), eta
            L, R_IJ, _ = _grabk_adaptive_apply(state, I, J, u_hat, v_hat)
            np.testing.assert_array_equal(R_IJ, R)
            drops[eta] = err0 - np.linalg.norm(state.X - prob.X_star) ** 2
            assert drops[eta] == pytest.approx(eta * (2 - eta) * num * L, rel=1e-10)
        assert max(drops, key=drops.get) == 1.0
        # advance from the same state along a different eta each step
        state.X, state.eta = X0, grid[step % len(grid)]
        _grabk_adaptive_apply(state, I, J, u_hat, v_hat)


def test_solve_grabk_error_is_monotone():
    prob = small_problem(22)
    for method in (GRABK_CONST, GRABK_ADAPTIVE):
        report = solve(prob, SolverConfig(method=method, tau1=4, tau2=4, seed=6, max_iters=300))
        errs = report.trace.relative_error
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:])), method


def test_solve_adaptive_records_stepsizes():
    prob = small_problem(23)
    report = solve(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=2, tau2=2, seed=7, max_iters=100))
    assert report.stepsizes is not None and len(report.stepsizes) > 0
    assert all(L > 0 for L in report.stepsizes)
    # constant-stepsize runs do not log per-iteration ratios
    report_c = solve(prob, SolverConfig(method=GRABK_CONST, tau1=2, tau2=2, seed=7, max_iters=50))
    assert report_c.stepsizes is None


def _adaptive_reference(prob, config, steps):
    """GRABK-adaptive as ``X += c U`` with U = A_I^T (u_hat R v_hat) B_J^T
    formed, on the draws ``solve`` makes: each step's L and the full
    residual ||C - A X B||_F before it."""
    state = prepare_state(prob, config)
    A, B, C = prob.A, prob.B, prob.C
    X = np.zeros_like(state.X)
    stepsizes, residuals = [], []
    for k in range(steps):
        if k % DRAW_CHUNK == 0:
            rows, cols = sample_block(state.dist_rows, state.rng, state.dist_cols,
                                      min(DRAW_CHUNK, config.max_iters - k))
        bi, bj = rows[k % DRAW_CHUNK], cols[k % DRAW_CHUNK]
        I, J = state.partition_rows.block(bi), state.partition_cols.block(bj)
        u_hat, v_hat = state.row_weights_hat[bi], state.col_weights_hat[bj]
        R = C[np.ix_(I, J)] - A[I] @ X @ B[:, J]
        U = A[I].T @ (u_hat[:, None] * R * v_hat[None, :]) @ B[:, J].T
        L = float(u_hat @ (R * R) @ v_hat) / float(np.vdot(U, U))
        stepsizes.append(L)
        residuals.append(np.linalg.norm(C - A @ X @ B))
        X += state.eta * L * U
    return np.array(stepsizes), np.array(residuals)


@pytest.mark.parametrize("reference", ["xstar", "residual"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape,tau", [((60, 20, 20, 20, 60, 20), 5),
                                       ((40, 12, 6, 12, 40, 6), 4),
                                       ((150, 40, 40, 40, 150, 40), 15)])
def test_adaptive_stepsizes_stay_within_a_reordering_bound(shape, tau, seed, reference):
    # solve adds c G_I W H_J to X in place, which rounds otherwise than
    # forming U and adding c U; L reads R = C - A X B, which cancels as the
    # run converges and magnifies that last-bit difference by ||C|| / ||R||.
    # So each step's L is within 64 eps (||C||_F / ||R_k||_F) L of the
    # reference's, with R_k the full residual before step k (the largest
    # constant seen on these shapes was 29)
    A, B = gen_type1(TypeISpec(*shape, seed=seed))
    prob = make_problem(A, B, seed=seed + 1)
    if reference == "residual":
        prob = Problem(A=prob.A, B=prob.B, C=prob.C)
    config = SolverConfig(method=GRABK_ADAPTIVE, tau1=tau, tau2=tau, seed=seed + 2,
                          re_tolerance=1e-8, max_iters=10**5)
    report = solve(prob, config)
    assert report.termination == "tolerance"
    assert len(report.stepsizes) == report.iterations  # no block was solved
    expected, residuals = _adaptive_reference(prob, config, report.iterations)
    stepsizes = np.array(report.stepsizes)
    bound = 64 * solvers.EPS * np.linalg.norm(prob.C) / residuals * stepsizes
    assert np.all(np.abs(stepsizes - expected) <= bound)


def test_grabk_const_hands_the_metrics_the_w_of_its_step(monkeypatch):
    # a GRABK-constant step forms W = u_hat R v_hat once: the stop metric
    # reads the array the step moved X by, not a second product
    formed, handed = [], []
    grabk, after_step = solvers._grabk, solvers._Metric.after_step

    def recording_grabk(*args):
        out = grabk(*args)
        formed.append(out[1])
        return out

    def recording_after_step(self, k, due, bi, bj, sampled, weighted, c):
        handed.append(weighted)
        return after_step(self, k, due, bi, bj, sampled, weighted, c)

    monkeypatch.setattr(solvers, "_grabk", recording_grabk)
    monkeypatch.setattr(solvers._Metric, "after_step", recording_after_step)
    base = small_problem(24)
    report = solve(Problem(A=base.A, B=base.B, C=base.C),
                   SolverConfig(method=GRABK_CONST, tau1=3, tau2=3, seed=2, max_iters=30))
    assert report.iterations == len(formed) == len(handed) == 30
    assert all(W is weighted for W, weighted in zip(formed, handed))


def _sparsified(prob):
    A, B = (np.where(np.abs(M) < 0.5, 0.0, M) for M in (prob.A, prob.B))
    return make_problem(sp.csr_array(A), sp.csr_array(B), seed=1)


GOLDEN_CASES = {
    "dense": (small_problem(24), 3, 3),
    "csr": (_sparsified(small_problem(24)), 3, 3),
    "short-last-block": (small_problem(24, m=10, n=11), 3, 4),
    # blocks of rank 2 at tau 3: the truncation in pinv matters
    "rank-deficient": (make_problem(*gen_type1(TypeISpec(12, 6, 2, 6, 12, 2, seed=5)), seed=6), 3, 3),
    # eta far past 2: both GRABK forms diverge within the budget
    "unsafe-eta": (small_problem(30, m=12, p=6, q=6, n=12), 3, 3),
}
GOLDEN_SETTINGS = {"unsafe-eta": {"eta": 100.0, "unsafe_stepsize": True}}

# (trace_every, re_tolerance, draw chunk): every record over a full budget,
# thinned records with a tolerance some runs reach, or one record at the
# end, so that an X_star run tracks its error between exact checks; and a
# full budget of 150 steps drawn in chunks of 64, 64 and 22 block pairs
GOLDEN_SCHEDULES = {"every1-full": (1, 1e-300, DRAW_CHUNK), "every7-tol": (7, 1e-6, DRAW_CHUNK),
                    "quiet-tol": (10**6, 1e-6, DRAW_CHUNK), "every7-chunks": (7, 1e-300, 64)}


def _public_step_loop(prob, config):
    """solve() spelled out with the public step functions: the same draws,
    stop metric, trace schedule and stepsize log, with GRBK's pinvs taken
    on the fly and GRABK-adaptive as adaptive_stepsize plus grabk_step. The
    exact error and residual are computed after every step."""
    state = prepare_state(prob, config)
    rng = SeededRng(config.seed, stream=1)
    records = []
    stepsizes = [] if config.method == GRABK_ADAPTIVE else None
    with np.errstate(over="ignore", invalid="ignore"):  # diverging runs
        for k in range(1, config.max_iters + 1):
            bi = sample_block(state.dist_rows, rng)
            bj = sample_block(state.dist_cols, rng)
            I, J = state.partition_rows.block(bi), state.partition_cols.block(bj)
            # Frobenius weights on the sampled blocks, as prepare_state takes them
            u, v = (ns / ns.sum() for ns in (state.row_norms_sq[I], state.col_norms_sq[J]))
            if config.method == GRK:
                grk_step(state, int(I[0]), int(J[0]))
            elif config.method == GRBK:
                grbk_step(state, I, J)
            elif config.method == GRABK_CONST:
                grabk_step(state, I, J, u, v, state.alpha_const)
            else:
                out = adaptive_stepsize(state, I, J, u, v)
                if out is not None:
                    stepsizes.append(out[0])
                    grabk_step(state, I, J, u, v, out[1])
            re = relative_error(state.X, prob.X_star) if prob.X_star is not None else None
            res = float(np.linalg.norm(prob.C - (prob.A @ state.X) @ prob.B, "fro")
                        / np.linalg.norm(prob.C, "fro"))
            metric = res if re is None else re
            termination = ("diverged" if not math.isfinite(metric) else
                           "tolerance" if metric < config.re_tolerance else None)
            if termination or k == config.max_iters or k % config.trace_every == 0:
                records.append((k, re, res))
            if termination:
                return state.X, k, termination, records, stepsizes
    return state.X, config.max_iters, "max_iters", records, stepsizes


@pytest.mark.parametrize("residual", RESIDUAL_FORMS)
@pytest.mark.parametrize("schedule", GOLDEN_SCHEDULES)
@pytest.mark.parametrize("reference", ["xstar", "residual"])
@pytest.mark.parametrize("case", GOLDEN_CASES)
@pytest.mark.parametrize("method", (GRK, GRBK, GRABK_CONST, GRABK_ADAPTIVE))
def test_solve_matches_public_step_loop(method, case, reference, schedule, residual,
                                        monkeypatch):
    # golden trace: solve() (its chunked draws, its per-block cache of dense
    # blocks and factors, the fused adaptive kernel, one stop metric per
    # iteration) must give the same bits as the public steps over scalar
    # draws, whether it keeps C - A X B up to date or recomputes it, and
    # whether it tracks the error between exact checks
    # (wherever it can) or not; a kept residual is within 1e-14 of the
    # exact one. GRK tracking its error, or keeping its residual without
    # X_star, runs its steps in chunks, which round otherwise: there X is
    # within 1e-13 relative, a record's error within 1e-13 and its residual
    # within 1e-14 of the step-by-step run's
    use_residual_form(monkeypatch, residual)
    monkeypatch.setattr(solvers, "_tracks_error", lambda problem, config, use_re, keeps: use_re)
    prob, tau1, tau2 = GOLDEN_CASES[case]
    if reference == "residual":
        prob = Problem(A=prob.A, B=prob.B, C=prob.C)
    trace_every, tol, draw_chunk = GOLDEN_SCHEDULES[schedule]
    monkeypatch.setattr(solvers, "DRAW_CHUNK", draw_chunk)
    config = SolverConfig(method=method, tau1=tau1, tau2=tau2, seed=8, max_iters=150,
                          re_tolerance=tol, trace_every=trace_every,
                          **GOLDEN_SETTINGS.get(case, {}))
    report = solve(prob, config)
    X, iterations, termination, records, stepsizes = _public_step_loop(prob, config)
    chunked = method == GRK and (reference == "xstar" or residual != "recomputed")
    if chunked:
        assert np.linalg.norm(report.X - X) <= 1e-13 * np.linalg.norm(X)
    else:
        np.testing.assert_array_equal(report.X, X)
    assert (report.iterations, report.termination) == (iterations, termination)
    if case == "unsafe-eta" and method == GRABK_CONST:
        assert termination == "diverged"
    assert report.trace.iteration == [k for k, _, _ in records]
    errors = report.trace.relative_error
    if chunked and reference == "xstar":
        np.testing.assert_allclose(errors, [re for _, re, _ in records], rtol=0.0, atol=1e-13)
    else:
        assert errors == [re for _, re, _ in records]
    residuals = report.trace.relative_residual
    expected = [res for _, _, res in records]
    if residual != "recomputed" or chunked:
        assert all(type(res) is float for res in residuals)
        # a diverging residual grows far past ||C||_F: compare it relatively too
        rtol = 1e-14 if case == "unsafe-eta" else 0.0
        np.testing.assert_allclose(residuals, expected, rtol=rtol, atol=1e-14)
    else:
        assert residuals == expected
    assert report.stepsizes == stepsizes


def _zero_row_problem():
    A, B = gen_type1(TypeISpec(12, 6, 6, 6, 12, 6, seed=3))
    A[4] = 0.0  # never drawn: its Frobenius weight is 0
    return make_problem(A, B, seed=4)


ORACLE_CASES = {
    "full-rank": make_problem(*gen_type1(TypeISpec(12, 6, 6, 6, 12, 6, seed=1)), seed=2),
    "rank-deficient": make_problem(*gen_type1(TypeISpec(12, 6, 2, 6, 12, 2, seed=5)), seed=6),
    "zero-row": _zero_row_problem(),
    # about 11k steps to 1e-8, so a run crosses RESYNC_EVERY and DRAW_CHUNK
    # many times with its error tracked
    "slow": make_problem(*gen_type1(TypeISpec(40, 20, 20, 20, 40, 20, seed=7)), seed=8),
}
# (re_tolerance, max_iters): run to the tolerance, or stop at a budget that
# ends a chunk early, past eleven resyncs and two draws
ORACLE_BUDGETS = {"tolerance": (1e-8, 10**6), "mid-chunk": (1e-300, 3037)}


@pytest.mark.parametrize("residual", RESIDUAL_FORMS)
@pytest.mark.parametrize("budget", ORACLE_BUDGETS)
@pytest.mark.parametrize("trace_every", [1, 7, 10**6])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_chunked_grk_matches_step_by_step_oracle(case, trace_every, budget, residual,
                                                 monkeypatch):
    # GRK with X_star runs its steps in chunks wherever it tracks the error;
    # against the same steps run one at a time under the same stop rules,
    # X is within 1e-13 relative, iterations, termination and record
    # iterations are equal, a record's error and residual are within 1e-14
    # max(1, exact), and the error is exact after the same steps: resyncs,
    # records where the residual is recomputed, and the first step in the
    # band. With a record on every step and the residual recomputed nothing
    # is tracked and every chunk is one step
    use_residual_form(monkeypatch, residual)
    steps, calls, exact_at = [0], [0], []
    step, error = solvers.grk_step, solvers._error

    def counted_step(*args, **kwargs):
        out = step(*args, **kwargs)
        steps[0] += out.size
        calls[0] += 1
        return out

    monkeypatch.setattr(solvers, "grk_step", counted_step)
    monkeypatch.setattr(solvers, "_error", lambda *args: exact_at.append(steps[0]) or error(*args))
    prob = ORACLE_CASES[case]
    tol, max_iters = ORACLE_BUDGETS[budget]
    config = SolverConfig(method=GRK, seed=3, max_iters=max_iters, re_tolerance=tol,
                          trace_every=trace_every)
    report, oracle = solve(prob, config), grk_oracle(prob, config)
    assert (report.iterations, report.termination) == (oracle.iterations, oracle.termination)
    assert exact_at == oracle.exact_at
    assert report.termination == budget.replace("mid-chunk", "max_iters")
    if trace_every == 1 and residual == "recomputed":
        assert steps[0] == calls[0] == report.iterations
    assert np.linalg.norm(report.X - oracle.X) <= 1e-13 * np.linalg.norm(oracle.X)
    trace = report.trace
    assert trace.iteration == [k for k, _, _ in oracle.records]
    for got_error, got_resid, (_, error, resid) in zip(trace.relative_error,
                                                        trace.relative_residual, oracle.records):
        assert abs(got_error - error) <= 1e-14 * max(1.0, error)
        assert abs(got_resid - resid) <= 1e-14 * max(1.0, resid)


def _inconsistent_problem():
    # A of rank 2 and noise of 1e-6 ||C||_F in C: no X solves the equation
    A, B = gen_type1(TypeISpec(12, 6, 2, 6, 12, 6, seed=11))
    C = make_problem(A, B, seed=12).C
    noise = np.random.default_rng(13).standard_normal(C.shape)
    return Problem(A=A, B=B, C=C + 1e-6 * np.linalg.norm(C) / np.linalg.norm(noise) * noise)


def _row_scaled_problem(m, p, r1, q, n, r2, seed):
    # a wide A (p > m) whose rows scale from 1 down to 1e-4, without X_star:
    # the part of C - A X B off range(A) x range(B^T) is 0, and K is m x
    # min(q, n)
    A, B = gen_type1(TypeISpec(m, p, r1, q, n, r2, seed=seed))
    prob = make_problem(A * np.logspace(0, -4, m)[:, None], B, seed=seed + 1)
    return Problem(A=prob.A, B=prob.B, C=prob.C)


RESIDUAL_ORACLE_CASES = {
    **{case: Problem(A=prob.A, B=prob.B, C=prob.C) for case, prob in ORACLE_CASES.items()
       if case in ("full-rank", "rank-deficient", "slow")},
    "inconsistent": _inconsistent_problem(),
    "wide row-scaled 2x27": _row_scaled_problem(2, 27, 2, 7, 11, 7, seed=8),
    "wide row-scaled 10x26": _row_scaled_problem(10, 26, 10, 20, 3, 3, seed=5),
}
# (re_tolerance, max_iters): full-rank reaches 1e-8 after about 2500 steps,
# rank-deficient after 78, the others run to max_iters; or stop mid-chunk
RESIDUAL_ORACLE_BUDGETS = {"tolerance": (1e-8, 12000), "mid-chunk": (1e-300, 3037)}


@pytest.mark.parametrize("residual", RESIDUAL_FORMS)
@pytest.mark.parametrize("budget", RESIDUAL_ORACLE_BUDGETS)
@pytest.mark.parametrize("trace_every", [1, 7])
@pytest.mark.parametrize("case", RESIDUAL_ORACLE_CASES)
def test_chunked_grk_without_x_star_matches_step_by_step_oracle(case, trace_every, budget,
                                                                residual, monkeypatch):
    # without X_star a kept residual is GRK's stop metric,
    # and GRK runs its steps in chunks that read every step's residual from
    # their Gram matrices. Against the same steps run one at a time with the
    # residual recomputed after each, X is within 1e-13 relative (and each
    # chunk is one step when solve recomputes too), iterations, termination
    # and record iterations are equal, every record's residual is within
    # 1e-14 max(1, exact), and the records' times never fall. Draws of 100
    # pairs end chunks early, as do resyncs and max_iters
    use_residual_form(monkeypatch, residual)
    monkeypatch.setattr(solvers, "DRAW_CHUNK", 100)
    calls = []
    step = solvers.grk_step
    monkeypatch.setattr(solvers, "grk_step",
                        lambda *args, **kwargs: calls.append(1) or step(*args, **kwargs))
    prob = RESIDUAL_ORACLE_CASES[case]
    tol, max_iters = RESIDUAL_ORACLE_BUDGETS[budget]
    config = SolverConfig(method=GRK, seed=3, max_iters=max_iters, re_tolerance=tol,
                          trace_every=trace_every)
    report, oracle = solve(prob, config), grk_residual_oracle(prob, config)
    assert (report.iterations, report.termination) == (oracle.iterations, oracle.termination)
    reaches = budget == "tolerance" and case in ("full-rank", "rank-deficient")
    assert report.termination == ("tolerance" if reaches else "max_iters")
    if residual == "recomputed":
        assert len(calls) == report.iterations
    else:
        assert len(calls) < report.iterations
    assert np.linalg.norm(report.X - oracle.X) <= 1e-13 * np.linalg.norm(oracle.X)
    trace = report.trace
    assert trace.iteration == [k for k, _, _ in oracle.records]
    assert all(error is None for error in trace.relative_error)
    for k, got, (_, _, resid) in zip(trace.iteration, trace.relative_residual, oracle.records):
        assert abs(got - resid) <= 1e-14 * max(1.0, resid), (k, got)
    assert trace.elapsed == sorted(trace.elapsed)


def test_solve_unsafe_stepsize_ends_as_diverged():
    # a constant stepsize far past 2 blows up; the run must say so instead
    # of running on to max_iters with non-finite iterates
    prob = small_problem(30, m=12, p=6, q=6, n=12)
    for reference in (prob, Problem(A=prob.A, B=prob.B, C=prob.C)):
        config = SolverConfig(method=GRABK_CONST, tau1=3, tau2=3, eta=6.0,
                              unsafe_stepsize=True, max_iters=20000, seed=2)
        report = solve(reference, config)
        assert report.termination == "diverged"
        assert report.iterations < config.max_iters
        trace = report.trace
        assert trace.iteration[-1] == report.iterations
        metric = trace.relative_error if reference.X_star is not None else trace.relative_residual
        assert not math.isfinite(metric[-1])


STEP_NAMES = {GRK: "grk_step", GRBK: "grbk_step", GRABK_CONST: "grabk_step",
              GRABK_ADAPTIVE: "_grabk_adaptive_apply"}


def _residual_cases():
    yield "dense", make_problem(*gen_type1(TypeISpec(14, 7, 7, 7, 15, 7, seed=31)), seed=32)
    A, B = gen_type1(TypeISpec(12, 6, 6, 6, 12, 6, seed=31))
    A, B = (sp.csr_array(np.where(np.abs(M) < 0.1, 0.0, M)) for M in (A, B))
    yield "csr", make_problem(A, B, seed=3)


@pytest.mark.parametrize("form", RESIDUAL_FORMS)
@pytest.mark.parametrize("reference", ["residual", "xstar"])
@pytest.mark.parametrize("method", METHODS)
def test_kept_residual_tracks_recomputed_residual(method, reference, form, monkeypatch):
    # the relative residual of every record, read from the kept residual,
    # is within 1e-14 of a full recompute at the same iterate, all the way
    # to a residual of 1e-9 (an error of 1e-18 with X_star); with X_star and
    # a record every 7 steps, GRK moves the kept residual by a chunk of
    # steps at once, and without X_star it reads every step's
    # residual from a chunk: the iterate after a step inside a chunk is the
    # one its steps reach one at a time, and after its last step the one
    # the chunk reached
    use_residual_form(monkeypatch, form)
    trace_every, tol = (1, 1e-9) if reference == "residual" else (7, 1e-18)
    for name, prob in _residual_cases():
        if reference == "residual":
            prob = Problem(A=prob.A, B=prob.B, C=prob.C)
        exact, calls = {}, []  # iteration -> exact relative residual after it
        step_name = STEP_NAMES[method]
        step = getattr(solvers, step_name)

        def recording_step(state, *args, _step=step, **kwargs):
            X = state.X.copy()
            out = _step(state, *args, **kwargs)
            calls.append(1)
            iterates = [state.X]
            if method == GRK:
                iterates[:0] = grk_chunk_iterates(prob, X, *args[:2], out[:-1])
            for X in iterates:
                R = prob.C - (prob.A @ X) @ prob.B
                exact[len(exact) + 1] = float(np.linalg.norm(R, "fro")
                                              / np.linalg.norm(prob.C, "fro"))
            return out

        monkeypatch.setattr(solvers, step_name, recording_step)
        config = SolverConfig(method=method, tau1=3, tau2=3, seed=4, max_iters=200000,
                              re_tolerance=tol, trace_every=trace_every)
        report = solve(prob, config)
        assert report.termination == "tolerance", (method, name)
        if method == GRK:  # long enough to cross a resync
            assert report.iterations > solvers.RESYNC_EVERY
        assert max(exact) == report.iterations
        assert len(report.trace.iteration) == -(-report.iterations // trace_every)
        assert len(exact) == report.iterations
        chunks = method == GRK and (reference == "xstar" or form != "recomputed")
        assert (len(calls) < report.iterations) if chunks else len(calls) == report.iterations
        gaps = [abs(resid - exact[k])
                for k, resid in zip(report.trace.iteration, report.trace.relative_residual)]
        assert max(gaps) <= 1e-14, (method, name, max(gaps))
        if form == "recomputed" and reference == "residual":
            assert max(gaps) == 0.0
        if reference == "residual":
            assert report.trace.relative_residual[-1] < 1e-9
        monkeypatch.setattr(solvers, step_name, step)


def _off_solution(base):
    """``base`` with its X_star moved off the solution by 1e-10 relative,
    which ``Problem`` accepts: X_star need only solve the equation to
    1e-8."""
    noise = np.random.default_rng(33).standard_normal(base.X_star.shape)
    X0 = base.X_star + 1e-10 * np.linalg.norm(base.X_star) * noise / np.linalg.norm(noise)
    prob = Problem(A=base.A, B=base.B, C=base.C, X_star=X0)
    assert np.linalg.norm(prob.C - prob.A @ X0 @ prob.B) > 1e-12 * np.linalg.norm(prob.C)
    return prob


def test_kept_residual_reads_records_beside_an_x_star_off_the_solution(monkeypatch):
    # an X_star off the solution stops the run on the error, and every
    # record reads the kept residual beside it: down to residuals near
    # 1e-15, each stays within 1e-14 of the exact residual
    prob = _off_solution(make_problem(*gen_type1(TypeISpec(14, 7, 7, 7, 15, 7, seed=31)),
                                      seed=32))
    exact = []

    def recording_step(state, *args, **kwargs):
        out = grbk_step(state, *args, **kwargs)
        R = prob.C - (prob.A @ state.X) @ prob.B
        exact.append(float(np.linalg.norm(R, "fro") / np.linalg.norm(prob.C, "fro")))
        return out

    monkeypatch.setattr(solvers, "_keeps_residual", lambda *args: True)
    monkeypatch.setattr(solvers, "grbk_step", recording_step)
    report = solve(prob, SolverConfig(method=GRBK, tau1=3, tau2=3, seed=4, max_iters=2000,
                                      re_tolerance=1e-300))
    assert len(report.trace.iteration) == len(exact) == 2000
    assert min(exact) < 1e-13
    for k, resid in zip(report.trace.iteration, report.trace.relative_residual):
        assert abs(resid - exact[k - 1]) <= 1e-14, (k, resid)


@pytest.mark.parametrize("form", KEPT_FORMS)
@pytest.mark.parametrize("trace_every", [1, 7])
def test_grk_records_read_the_error_of_an_x_star_off_the_solution(trace_every, form,
                                                                  monkeypatch):
    # beside a kept residual GRK's chunks run across records, which read the
    # error it keeps. With X_star off the solution, a step's decrease of
    # ||X - X*||_F^2 is r s + 2 s h, h = a X* b - C_ij the residual of X*
    # at its entry; every record stays within 1e-14 max(1, exact) of the
    # exact error (4e-16 here; leaving out 2 s h puts it 1.1e-11 off)
    use_residual_form(monkeypatch, form)
    prob = _off_solution(ORACLE_CASES["slow"])
    config = SolverConfig(method=GRK, seed=3, max_iters=6000, re_tolerance=1e-300,
                          trace_every=trace_every)
    report, oracle = solve(prob, config), grk_oracle(prob, config)
    trace = report.trace
    assert trace.iteration == [k for k, _, _ in oracle.records]
    for got_error, got_resid, (_, error, resid) in zip(trace.relative_error,
                                                        trace.relative_residual, oracle.records):
        assert abs(got_error - error) <= 1e-14 * max(1.0, error)
        assert abs(got_resid - resid) <= 1e-14 * max(1.0, resid)


def _problem_of_shape(m, p, q, n, sparse=False):
    rng = np.random.default_rng(34)
    A, B = rng.standard_normal((m, p)), rng.standard_normal((q, n))
    if sparse:
        A, B = sp.csr_array(A), sp.csr_array(B)
    return Problem(A=A, B=B, C=np.zeros((m, n)))


_CSR_BLUR = Problem(A=sp.csr_array(sp.eye(64) + sp.eye(64, k=1) + sp.eye(64, k=-1)),
                    B=sp.csr_array(sp.eye(64) + sp.eye(64, k=2) + sp.eye(64, k=-2)),
                    C=np.ones((64, 64)))


@pytest.mark.parametrize("label, problem, config, use_re, keeps", [
    # dense-kernels: X_star known, trace_every at or above the budget
    ("X_star, quiet trace", _problem_of_shape(500, 200, 200, 500),
     SolverConfig(method=GRBK, tau1=50, tau2=50, trace_every=10**6), True, False),
    ("GRK, X_star, quiet trace", _problem_of_shape(100, 40, 40, 100),
     SolverConfig(method=GRK, trace_every=10**6), True, False),
    # residual-default: the residual is the stop metric on every step. The
    # tall factors keep it p x q: GRBK at tau 15, 400 steps, 26 us a step
    # kept against 74 us recomputed (best of 8 alternating rounds; 1 thread,
    # process CPU)
    ("residual-only GRK", _problem_of_shape(60, 20, 20, 60),
     SolverConfig(method=GRK), False, True),
    ("residual-only GRBK", _problem_of_shape(150, 40, 40, 150),
     SolverConfig(method=GRBK, tau1=15, tau2=15), False, True),
    # blur-cli's library runs: records read the residual on every step
    ("X_star, trace every step, tall factors", _problem_of_shape(100, 40, 40, 100),
     SolverConfig(method=GRBK, tau1=10, tau2=10), True, True),
    # square factors keep R itself (GRBK at tau 32, 250 steps on the 64x64
    # blur operator: 11.5 ms kept, 18 ms recomputed)
    ("X_star, trace every step", _problem_of_shape(64, 64, 64, 64),
     SolverConfig(method=GRBK, tau1=32, tau2=32), True, True),
    # a banded blur operator given as CSR is densified by Problem and
    # counts at that size
    ("CSR blur", _CSR_BLUR, SolverConfig(method=GRBK, tau1=32, tau2=32), False, True),
    # a tall factor: the kept residual is p x n, its images p m and n n
    ("tall factor", _problem_of_shape(400, 10, 10, 10), SolverConfig(method=GRK), False, True),
    ("tall CSR factor", _problem_of_shape(400, 10, 10, 10, sparse=True),
     SolverConfig(method=GRK), False, True),
    # GRK without X_star on gen_type1 100x3 / 3x5 keeps a 3 x 3 residual: 413
    # steps to 1e-10 at 4.7 us a step, against 34 us recomputed (best of 10
    # alternating rounds; 1 thread, process CPU)
    ("thin tall factors, GRK", _problem_of_shape(100, 3, 3, 5), SolverConfig(method=GRK),
     False, True),
    # wide factors, p > m and q > n: the kept residual is R itself
    ("wide factors", _problem_of_shape(10, 40, 40, 10),
     SolverConfig(method=GRK), False, True),
    ("wide factors, blocks", _problem_of_shape(20, 60, 60, 20),
     SolverConfig(method=GRBK, tau1=5, tau2=5), False, True),
    # kaczmat solve on the blur operator with X_star: a record on every
    # step keeps R (13 against 17 ms for 300 steps); one every 300 steps
    # recomputes it (10-12 against 14 ms; 1 thread, process CPU)
    ("CSR blur, X_star, trace every step", _CSR_BLUR,
     SolverConfig(method=GRBK, tau1=32, tau2=32), True, True),
    ("CSR blur, X_star, trace every 300", _CSR_BLUR,
     SolverConfig(method=GRBK, tau1=32, tau2=32, trace_every=300), True, False),
])
def test_keeps_residual_decision_table(label, problem, config, use_re, keeps):
    assert solvers._keeps_residual(problem, config, use_re) is keeps, label


def _xstar_problem(p, q, m=10, n=10):
    prob = _problem_of_shape(m, p, q, n)
    return Problem(A=prob.A, B=prob.B, C=prob.C, X_star=np.zeros((p, q)))


@pytest.mark.parametrize("label, problem, config, tracks", [
    # dense-kernels: GRK on a 40x40 iterate, the block methods at tau 50 on
    # 200x200, and the GRBK commands at tau 32 on a 64x64 image
    ("GRK", _xstar_problem(40, 40), SolverConfig(method=GRK, trace_every=10**6), True),
    ("GRBK, tau 50", _xstar_problem(200, 200),
     SolverConfig(method=GRBK, tau1=50, tau2=50, trace_every=10**6), True),
    ("GRABK-constant, tau 50", _xstar_problem(200, 200),
     SolverConfig(method=GRABK_CONST, tau1=50, tau2=50, trace_every=10**6), True),
    ("GRABK-adaptive, tau 50", _xstar_problem(200, 200),
     SolverConfig(method=GRABK_ADAPTIVE, tau1=50, tau2=50, trace_every=10**6), True),
    ("GRBK command, tau 32", _xstar_problem(64, 64),
     SolverConfig(method=GRBK, tau1=32, tau2=32, trace_every=300), False),
    # a small iterate: the calls of GRBK's decrease (16 flop-entries plus
    # DECREASE_OVERHEAD) cost more than the 400 entries of the error;
    # GRABK-adaptive's decrease is free, as GRK's is, and tracked: 1-4%
    # faster to 1e-8 on 60x20 / 20x60 at tau 4, 7-9% on 100x40 / 40x100 at
    # tau 10 (median CPU time over alternating pairs, 1 BLAS thread)
    ("GRBK, small", _xstar_problem(20, 20),
     SolverConfig(method=GRBK, tau1=4, tau2=4, trace_every=10**6), False),
    ("GRABK-adaptive, small", _xstar_problem(20, 20),
     SolverConfig(method=GRABK_ADAPTIVE, tau1=4, tau2=4, trace_every=10**6), True),
    ("GRK, small", _xstar_problem(5, 5), SolverConfig(method=GRK, trace_every=10), True),
    # every step is a record: a block method's reads the exact error, and
    # GRK's chunks run across records while the residual is kept, not
    # where each record recomputes it. At 10x5 / 1x10 a full residual costs
    # m q (p + n) = 150 flops, a kept 5 x 1 one m' (1 + 2 n') = 15; only at
    # 1x1 / 1x1 does recomputing cost less, 2 flops against 3
    ("GRBK, trace every step", _xstar_problem(200, 200),
     SolverConfig(method=GRBK, tau1=50, tau2=50), False),
    ("GRK, trace every step, residual kept", _xstar_problem(40, 40), SolverConfig(method=GRK),
     True),
    ("GRK, trace every step, thin residual kept", _xstar_problem(5, 1),
     SolverConfig(method=GRK), True),
    ("GRK, trace every step, residual recomputed", _xstar_problem(1, 1, m=1, n=1),
     SolverConfig(method=GRK), False),
])
def test_tracks_error_decision_table(label, problem, config, tracks):
    keeps = solvers._keeps_residual(problem, config, True)
    assert solvers._tracks_error(problem, config, True, keeps) is tracks, label
    assert solvers._tracks_error(problem, config, False, keeps) is False, label


def test_solve_decides_the_residual_form_once(monkeypatch):
    # _tracks_error takes the form solve picked; GRK with X_star and a
    # record on every step once had it pick the form a second time
    keeps, answers = solvers._keeps_residual, []
    monkeypatch.setattr(solvers, "_keeps_residual",
                        lambda *args: answers.append(keeps(*args)) or answers[-1])
    solve(small_problem(3), SolverConfig(method=GRK, seed=1, max_iters=20))
    assert len(answers) == 1


def test_small_adaptive_run_tracks_its_error(monkeypatch):
    # GRABK-adaptive's decrease is free, so on a 20x20 iterate at tau 4 the
    # exact error runs to resync and to confirm, not on every step
    calls, error = [], solvers._error
    monkeypatch.setattr(solvers, "_error", lambda *args: calls.append(1) or error(*args))
    prob = make_problem(*gen_type1(TypeISpec(60, 20, 20, 20, 60, 20, seed=5)), seed=6)
    report = solve(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=4, tau2=4, seed=3,
                                      trace_every=10**6, re_tolerance=1e-8))
    assert report.termination == "tolerance"
    assert 10 * len(calls) < report.iterations


def test_tracked_error_skips_a_solved_adaptive_block(monkeypatch):
    # rows 0 and 1 of X_star are zero and A = I, so row block {0, 1} is
    # solved at X0 = 0 and stays solved: each adaptive step on it leaves X
    # as it is, and the tracked error drops by exactly 0 for it
    X = np.random.default_rng(4).standard_normal((4, 4))
    X[:2] = 0.0
    B = np.random.default_rng(5).standard_normal((4, 4))
    prob = Problem(A=np.eye(4), B=B, C=X @ B, X_star=X)
    drops = []
    error_drop = solvers._error_drop

    def recorded(method, sampled, *args):
        drop = error_drop(method, sampled, *args)
        drops.append((sampled is None, drop))
        return drop

    monkeypatch.setattr(solvers, "_error_drop", recorded)
    monkeypatch.setattr(solvers, "_tracks_error", lambda problem, config, use_re, keeps: use_re)
    report = solve(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=2, tau2=2, seed=1,
                                      trace_every=10**6))
    assert report.termination == "tolerance"
    assert relative_error(report.X, X) < SolverConfig().re_tolerance
    solved = [drop for is_solved, drop in drops if is_solved]
    assert solved and all(drop == 0.0 for drop in solved)


def test_kept_residual_recomputes_only_to_resync_and_confirm(monkeypatch):
    calls = []
    full = solvers._relative_residual

    def counting(*args):
        calls.append(1)
        return full(*args)

    monkeypatch.setattr(solvers, "_relative_residual", counting)
    A, B = gen_type1(TypeISpec(60, 20, 10, 20, 60, 20, seed=35))
    base = make_problem(A, B, seed=36)
    prob = Problem(A=base.A, B=base.B, C=base.C)
    config = SolverConfig(method=GRK, seed=5, max_iters=5000, re_tolerance=1e-300)
    assert solvers._keeps_residual(prob, config, False)
    report = solve(prob, config)
    assert report.iterations == 5000 and len(report.trace.iteration) == 5000
    assert len(calls) <= 5000 / solvers.RESYNC_EVERY + 2
    # run to tolerance: the confirm adds at most a call or two
    calls.clear()
    report = solve(prob, SolverConfig(method=GRK, seed=5, max_iters=10**6))
    assert report.termination == "tolerance"
    assert len(calls) <= report.iterations / solvers.RESYNC_EVERY + 3


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("method", [GRBK, GRABK_CONST])
def test_block_step_updates_an_iterate_of_any_layout_in_place(method, layout):
    # the in-place update writes through the caller's own X: a Fortran-ordered
    # or strided state.X (which BLAS updates as a copy) takes the same step
    # X + c G_I M H_J as a C-ordered one
    prob = small_problem(9, m=9, p=6, q=5, n=8)
    state = prepare_state(prob, SolverConfig(method=method, tau1=3, tau2=3))
    X0 = np.random.default_rng(10).standard_normal((6, 5))
    base = {"C": np.array(X0), "F": np.asfortranarray(X0),
            "strided": np.zeros((12, 5))[::2]}[layout]
    base[...] = X0
    state.X = base
    I, J = np.array([0, 2, 6]), np.array([1, 4, 7])
    A, B = prob.A, prob.B
    R = prob.C[np.ix_(I, J)] - A[I] @ X0 @ B[:, J]
    if method == GRBK:
        grbk_step(state, I, J)
        expect = X0 + pinv(A[I]) @ R @ pinv(B[:, J])
    else:
        u, v, alpha = np.array([0.5, 0.2, 0.3]), np.array([0.6, 0.1, 0.3]), 1.3
        grabk_step(state, I, J, u, v, alpha)
        W = (u / state.row_norms_sq[I])[:, None] * R * (v / state.col_norms_sq[J])[None, :]
        expect = X0 + alpha * A[I].T @ W @ B[:, J].T
    assert state.X is base
    np.testing.assert_allclose(base, expect, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("method", [GRBK, GRABK_CONST, GRABK_ADAPTIVE])
def test_block_step_allocates_less_than_one_iterate(method):
    # a block step updates X in place and forms no p x q direction: at
    # p = q = 200 and tau 10 it allocates less than one p x q array
    prob = make_problem(*gen_type1(TypeISpec(20, 200, 20, 200, 20, 20, seed=40)), seed=41)
    state = prepare_state(prob, SolverConfig(method=method, tau1=10, tau2=10))

    def step(bi, bj):
        I, si, *row = solvers._cache_block(state, True, bi)
        J, sj, *col = solvers._cache_block(state, False, bj)
        blocks = (*row, *col, prob.C[si, sj])
        if method == GRBK:
            return grbk_step(state, I, J, _blocks=blocks)
        hats = (state.row_weights_hat[bi], state.col_weights_hat[bj])
        if method == GRABK_CONST:
            grabk_step(state, I, J, None, None, state.alpha_const, _blocks=blocks, _hats=hats)
        else:
            _grabk_adaptive_apply(state, I, J, *hats, _blocks=blocks)

    step(1, 0)  # first calls
    X = state.X.copy()
    tracemalloc.start()
    try:
        step(0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.array_equal(state.X, X)
    assert peak < state.X.nbytes


def test_exact_residual_of_tall_factors_forms_no_m_by_n_array():
    # on a tall A and B^T the kept residual's exact value is read from K =
    # K_C - T_A X T_B^T, p x q here, and allocates less than one m x n array;
    # a residual that is not kept takes no QR and no copy of C, and its
    # exact value is the full C - (A X) B, bitwise
    prob = make_problem(*gen_type1(TypeISpec(300, 30, 30, 30, 300, 30, seed=42)), seed=43)
    A, B, C = prob.A, prob.B, prob.C
    state = prepare_state(prob, SolverConfig(method=GRBK, tau1=10, tau2=10))
    state.X = np.random.default_rng(44).standard_normal((30, 30))
    kept = solvers._Residual(state, True, -np.inf)
    kept.exact()  # a first call, so that one-time allocations do not count
    tracemalloc.start()
    try:
        value = kept.exact()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept.kept.shape == (30, 30)
    assert peak < C.nbytes
    tracemalloc.start()
    try:
        recomputed = solvers._Residual(state, False, -np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < C.nbytes
    direct = float(np.linalg.norm(C - (A @ state.X) @ B, "fro") / recomputed.unit)
    assert recomputed.exact() == direct
    assert abs(value - direct) <= 1e-14 * max(1.0, direct)


@pytest.mark.parametrize("form", KEPT_FORMS)
def test_kept_residual_reads_its_norm_only_on_records(form, monkeypatch):
    # with X_star the error stops the run and only records read the kept
    # residual: it moves on every step, but reads its norm (and checks its
    # drift) once per record at most, none on a record that resyncs it
    use_residual_form(monkeypatch, form)
    norms, norm = [], solvers._Residual.norm
    monkeypatch.setattr(solvers._Residual, "norm", lambda self: norms.append(1) or norm(self))
    prob = make_problem(*gen_type1(TypeISpec(150, 40, 40, 40, 150, 40, seed=37)), seed=38)
    report = solve(prob, SolverConfig(method=GRBK, tau1=15, tau2=15, seed=4, max_iters=700,
                                      re_tolerance=1e-300, trace_every=7))
    assert (report.iterations, len(report.trace.iteration)) == (700, 100)
    assert 0 < len(norms) <= len(report.trace.iteration)


@pytest.mark.parametrize("form", RESIDUAL_FORMS)
def test_kept_residual_hands_off_to_recompute_near_tolerance(form, monkeypatch):
    # re_tolerance = 1e-300 leaves the residual at machine precision, inside
    # [re_tolerance, re_tolerance + CONFIRM_BAND), for most of the run: from
    # the step whose tracked value enters that band on, solve recomputes
    # instead of updating the kept residual and recomputing, so apart from
    # resyncs only that hand-off step does both. Recomputing from the start
    # updates nothing
    events = []
    full, step = solvers._relative_residual, solvers.grbk_step
    advance, advance_grk = solvers._Residual.advance, solvers._Residual.advance_grk

    def counted(event, fn):
        def wrapper(*args, **kwargs):
            events.append(event)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solvers, "_relative_residual", counted("full", full))
    monkeypatch.setattr(solvers, "grbk_step", counted("step", step))
    # the kept residual's own update, not every dgemm:
    # the steps update X by dgemm too
    monkeypatch.setattr(solvers._Residual, "advance", counted("update", advance))
    monkeypatch.setattr(solvers._Residual, "advance_grk", counted("update", advance_grk))
    use_residual_form(monkeypatch, form)
    _, prob = next(_residual_cases())
    prob = Problem(A=prob.A, B=prob.B, C=prob.C)
    config = SolverConfig(method=GRBK, tau1=3, tau2=3, seed=4, max_iters=2000,
                          re_tolerance=1e-300)
    report = solve(prob, config)
    assert report.iterations == 2000
    per_step = [set()]  # the work after each step, the initial residual first
    for event in events:
        if event == "step":
            per_step.append(set())
        else:
            per_step[-1].add(event)
    updated = [k for k, work in enumerate(per_step) if "update" in work]
    if form == "recomputed":
        assert not updated and all(work == {"full"} for work in per_step)
        return
    both = [k for k in updated if "full" in per_step[k] and k % solvers.RESYNC_EVERY]
    assert both == [updated[-1]]  # the hand-off step
    assert all("full" in work for work in per_step[updated[-1]:])
    assert sum("full" in work for work in per_step) > 1000


@pytest.mark.parametrize("tol, max_iters", [(1e-6, 10**6), (1e-300, 5000)])
@pytest.mark.parametrize("method", METHODS)
def test_tracked_error_recomputes_only_to_anchor_and_confirm(method, tol, max_iters,
                                                             monkeypatch):
    # with X_star and a quiet trace, ||X - X*||_F^2 runs at iteration 0,
    # every RESYNC_EVERY steps, on records and on the steps whose error lies
    # below re_tolerance + CONFIRM_BAND, widened by DROP_RTOL of the decrease
    # since the last exact value (at most 1); every other step subtracts its
    # exact decrease (it ran on every step before)
    computed, in_band = [], []
    full, step_name = solvers._error, STEP_NAMES[method]
    step = getattr(solvers, step_name)
    A, B = gen_type1(TypeISpec(60, 20, 10, 20, 60, 20, seed=35))
    prob = make_problem(A, B, seed=36)
    xstar_sq = np.linalg.norm(prob.X_star, "fro") ** 2

    def counting(*args):
        computed.append(1)
        return full(*args)

    def banding_step(state, *args, **kwargs):
        out = step(state, *args, **kwargs)
        # relative_error itself, by the unpatched _error it returns, not counted
        in_band.append(full(state.X, prob.X_star, xstar_sq)
                       < tol + solvers.CONFIRM_BAND + solvers.DROP_RTOL)
        return out

    monkeypatch.setattr(solvers, "_error", counting)
    monkeypatch.setattr(solvers, step_name, banding_step)
    monkeypatch.setattr(solvers, "_tracks_error", lambda problem, config, use_re, keeps: use_re)
    config = SolverConfig(method=method, tau1=4, tau2=4, seed=5, max_iters=max_iters,
                          re_tolerance=tol, trace_every=10**6)
    report = solve(prob, config)
    k = report.iterations
    assert report.termination == ("tolerance" if tol > 1e-300 else "max_iters")
    assert (len(computed)
            <= 1 + k // solvers.RESYNC_EVERY + sum(in_band) + len(report.trace.iteration))
    if tol > 1e-300:
        assert len(computed) <= 4 + k // solvers.RESYNC_EVERY < k + 1


@pytest.mark.parametrize("reference", ["xstar", "residual"])
@pytest.mark.parametrize("residual", RESIDUAL_FORMS)
@pytest.mark.parametrize("method", METHODS)
def test_solve_prepares_each_block_once(method, residual, reference, monkeypatch):
    # every method builds each row block of A and column block of B once
    # per run, with its index array, GRBK takes each block pinv once, and no
    # step checks caller weights: solve hands the GRABK steps prepared hats.
    # No pinv of a whole factor is taken. GRK builds no block: its steps
    # read rows of A and columns of B, and a kept residual stacks the
    # images of every row and column once
    use_residual_form(monkeypatch, residual)
    built, pinvs, indexed = [], [], []
    block = solvers._block
    index_block = BlockPartition.block

    def counting_block(partition, b):
        indexed.append(b)
        return index_block(partition, b)

    def counting_build(state, rows, index, method):
        built.append((rows, tuple(index)))
        return block(state, rows, index, method)

    def counting_pinv(M):
        pinvs.append(M.shape)
        return pinv(M)

    def no_caller_hats(*args):
        raise AssertionError("solve re-checked prepared weights")

    monkeypatch.setattr(solvers, "_block", counting_build)
    monkeypatch.setattr(solvers, "pinv", counting_pinv)
    monkeypatch.setattr(solvers, "_caller_hats", no_caller_hats)
    monkeypatch.setattr(BlockPartition, "block", counting_block)
    A, B = gen_type1(TypeISpec(40, 20, 20, 20, 42, 20, seed=9))
    prob = make_problem(A, B, seed=10)
    if reference == "residual":
        prob = Problem(A=prob.A, B=prob.B, C=prob.C)
    config = SolverConfig(method=method, tau1=5, tau2=5, seed=3, max_iters=400,
                          re_tolerance=1e-300)
    report = solve(prob, config)
    assert report.iterations == 400
    n_blocks = math.ceil(40 / config.tau1) + math.ceil(42 / config.tau2)
    assert len(built) == len(set(built)) <= n_blocks
    assert bool(built) == (method != GRK)
    assert len(indexed) <= n_blocks
    assert prob.A.shape not in pinvs and prob.B.shape not in pinvs
    assert len(pinvs) <= n_blocks
    if method == GRBK:
        assert len(pinvs) == len(built)


def test_prepare_state_hands_its_norms_to_the_probabilities(monkeypatch):
    # the block probabilities reuse the squared norms prepare_state keeps,
    # with the bits of frobenius_block_probs computing them itself
    computed = []
    for name in ("row_norms", "col_norms"):
        norms = getattr(sampling, name)
        monkeypatch.setattr(sampling, name,
                            lambda M, _norms=norms: computed.append(M) or _norms(M))
    for prob in (small_problem(40), _sparsified(small_problem(40))):
        state = prepare_state(prob, SolverConfig(method=GRBK, tau1=3, tau2=2))
        assert not computed
        for dist, M, partition, axis in (
                (state.dist_rows, prob.A, state.partition_rows, "rows"),
                (state.dist_cols, prob.B, state.partition_cols, "cols")):
            expected = sampling.frobenius_block_probs(M, partition, axis)
            assert dist.probabilities.tobytes() == expected.probabilities.tobytes()
        computed.clear()


def test_grabk_const_solves_past_a_zero_row_block():
    # rows 0-1 of A form a zero block at tau 2, which Frobenius sampling
    # never draws: GRABK-constant's stepsize skips it as the others do
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    A[:2] = 0.0
    prob = make_problem(A, rng.standard_normal((4, 6)), seed=1)
    for method in METHODS:
        report = solve(prob, SolverConfig(method=method, tau1=2, tau2=2, seed=3,
                                          max_iters=100000))
        assert report.termination == "tolerance", method


@pytest.mark.parametrize("tau1, tau2", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_grabk_const_uniform_weights_converge_with_a_short_last_block(tau1, tau2):
    # n = 3 splits into 2 + 1 columns at tau2 = 2; a stepsize taken from
    # tau2 instead of the short block's size diverges here
    prob = make_problem(*gen_type1(TypeISpec(2, 2, 1, 3, 3, 3, seed=0)), seed=1)
    report = solve(prob, SolverConfig(method=GRABK_CONST, tau1=tau1, tau2=tau2, seed=3,
                                      weight_scheme="uniform", max_iters=5000))
    assert report.termination == "tolerance"


def test_solve_block_size_exceeding_dims_raises():
    prob = small_problem(25)
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(method=GRBK, tau1=9, tau2=2))
    # the single-index method ignores block sizes entirely
    report = solve(prob, SolverConfig(method=GRK, tau1=9, tau2=9, max_iters=5))
    assert report.iterations == 5


def test_solve_sparse_factors():
    rng = np.random.default_rng(26)
    A = rng.standard_normal((8, 5))
    A[np.abs(A) < 0.8] = 0.0
    B = rng.standard_normal((5, 8))
    B[np.abs(B) < 0.8] = 0.0
    prob = make_problem(sp.csr_array(A), sp.csr_array(B), seed=27)
    report = solve(prob, SolverConfig(method=GRBK, tau1=4, tau2=4, seed=0, max_iters=5000))
    assert report.termination == "tolerance"


def test_solve_rank_deficient_finds_min_norm_solution():
    A, B = gen_type1(TypeISpec(m=12, p=6, r1=4, q=6, n=12, r2=4, seed=28))
    prob = make_problem(A, B, seed=29)
    for method in (GRK, GRBK, GRABK_CONST, GRABK_ADAPTIVE):
        cfg = SolverConfig(method=method, tau1=3, tau2=3, seed=1, max_iters=30000)
        report = solve(prob, cfg)
        assert report.termination == "tolerance", method
        assert relative_error(report.X, prob.X_star) < 1e-6
    assert np.linalg.norm(prob.X_star) <= np.linalg.norm(prob.X_drawn) + 1e-12


def test_solve_kron_oracle_agrees_with_grk_on_vec_system():
    # classical row-action on the materialized kron(B^T, A) vec(X) = vec(C)
    # reaches the same min-norm solution the matrix methods converge to
    A, B = gen_type1(TypeISpec(m=5, p=3, r1=3, q=3, n=5, r2=3, seed=29))
    prob = make_problem(A, B, seed=30)
    M = kron(prob.B.T, prob.A)
    c = vec(prob.C).ravel()
    row_sq = np.sum(M * M, axis=1)
    dist = categorical(row_sq / row_sq.sum())
    rng = SeededRng(2, stream=1)
    x = np.zeros(M.shape[1])
    for _ in range(20000):
        rk_kronecker_step(x, M, c, sample_block(dist, rng), row_sq)
        if relative_error(unvec(x, 3, 3), prob.X_star) < 1e-6:
            break
    assert relative_error(unvec(x, 3, 3), prob.X_star) < 1e-6


def test_solve_type2_instances():
    A, B = gen_type2(20, 10, 10, 20, seed=30)
    prob = make_problem(A, B, seed=31)
    report = solve(prob, SolverConfig(method=GRABK_ADAPTIVE, tau1=5, tau2=5, seed=3, max_iters=30000))
    assert report.termination == "tolerance"

"""Property tests of the paper's invariants.

GRK and GRBK project the iterate orthogonally onto a set that holds X*, and
GRABK moves it by a step whose effect on ||X - X*||_F^2 is known in closed
form. ``solve`` subtracts that decrease instead of recomputing the error, so
each decrease it subtracts must match the change of the exact error, and
the running value must stay on the exact one over a long run. GRABK-
constant's stepsize must keep that decrease nonnegative on every block, and
every step keeps X in range(A^T) x range(B), so a run that solves the
equation from X0 = 0 ends at the minimal-norm solution. Dense and CSR
factors give bitwise the same run, and a residual ``solve`` keeps up to
date stays on the exact one.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kaczmat import cli, solvers
from kaczmat.images import GrayImage, write_pgm
from kaczmat.matrices import as_dense, pinv
from kaczmat.mmio import load_matrix_market
from kaczmat.problems import TypeISpec, gen_type1, make_problem, min_norm_solution
from kaczmat.solvers import (
    GRABK_ADAPTIVE,
    GRABK_CONST,
    GRBK,
    GRK,
    METHODS,
    Problem,
    SolverConfig,
    solve,
)

from oracles import grk_chunk_iterates, grk_oracle

STEP_NAMES = {GRK: "grk_step", GRBK: "grbk_step", GRABK_CONST: "grabk_step",
              GRABK_ADAPTIVE: "_grabk_adaptive_apply"}
STEPS = 2000
RUN_STEPS = 24


def _thinned(M):
    """M in CSR with its entries below half its mean magnitude dropped."""
    return sp.csr_array(np.where(np.abs(M) < 0.5 * np.abs(M).mean(), 0.0, M))


@st.composite
def instances(draw, rough=False):
    """A gen_type1 problem of small random shape and rank with dense or CSR
    factors, block sizes and a weight scheme.

    Each identity assumes C = A X* B. So C is rebuilt from X* and CSR
    factors are thinned only where they have full rank, unless ``rough``.
    With a rank-deficient factor, C = A X B for the drawn X carries the
    rounding of X, which can be far larger than X*; and thinning such a
    factor makes it full rank with singular values near rounding level. In
    both, each identity holds only to rounding amplified by that ratio or
    by kappa(A_I) kappa(B_J).
    """
    m, p, q, n = (draw(st.integers(2, 9)) for _ in range(4))
    r1 = draw(st.integers(1, min(m, p)))
    r2 = draw(st.integers(1, min(q, n)))
    seed = draw(st.integers(0, 2**16))
    A, B = gen_type1(TypeISpec(m, p, r1, q, n, r2, seed=seed))
    csr = draw(st.booleans())
    if csr:
        A = _thinned(A) if rough or r1 == min(m, p) else sp.csr_array(A)
        B = _thinned(B) if rough or r2 == min(q, n) else sp.csr_array(B)
    prob = make_problem(A, B, seed=seed + 1)
    if not rough:
        prob = Problem(A=A, B=B, C=(A @ prob.X_star) @ B, X_star=prob.X_star)
    tau1, tau2 = draw(st.integers(1, m)), draw(st.integers(1, n))
    weights = "uniform" if not csr and draw(st.booleans()) else "frobenius"
    return prob, tau1, tau2, weights


def _tracked_steps(instance, method):
    """Run ``STEPS`` steps of ``solve`` and return, for every step on which
    it subtracted a finite decrease, (that decrease, the exact one, the
    value it tracks, the exact error, the decrease subtracted since its last
    exact error, the largest exact error so far or 1), all relative to
    ||X*||_F^2. A run may diverge (GRABK-constant with uniform weights can);
    its errors then grow, and with them the rounding of each value. GRK runs
    its steps in chunks and has no error between them: its decreases are
    those grk_step hands to solve for the steps it applies, and the exact
    errors those of the same steps run one at a time (``grk_oracle``)."""
    prob, tau1, tau2, weights = instance
    xstar_sq = np.linalg.norm(prob.X_star, "fro") ** 2
    step_name = STEP_NAMES[method]
    step, error, error_drop = (getattr(solvers, step_name), solvers._error,
                               solvers._error_drop)
    events = []  # ("step" | "exact" | "drop", value), in the order solve runs them

    def recorded(kind, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            value = (np.linalg.norm(args[0].X - prob.X_star, "fro") ** 2 / xstar_sq
                     if kind == "step" else out)
            events.append((kind, value))
            return out
        return wrapper

    def grk_chunks(state, i, j, _prefix=None):
        def prefix(*args):
            c, (r, s) = _prefix(*args), args[2:4]
            for drop in (r * s)[:c]:  # a step whose exact error comes from the oracle
                events.extend([("step", None), ("drop", drop)])
            return c
        return step(state, i, j, _prefix and prefix)

    config = SolverConfig(method=method, tau1=tau1, tau2=tau2, seed=3, max_iters=STEPS,
                          re_tolerance=1e-300, trace_every=10**6, weight_scheme=weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, step_name,
                      grk_chunks if method == GRK else recorded("step", step))
        patch.setattr(solvers, "_error", recorded("exact", error))
        patch.setattr(solvers, "_error_drop", recorded("drop", error_drop))
        patch.setattr(solvers, "_tracks_error", lambda problem, config, use_re, keeps: use_re)
        solve(prob, config)
        oracle = iter(grk_oracle(prob, config).errors[1:] if method == GRK else ())

    steps, before, after, tracked, dropped, scale = [], None, 1.0, None, 0.0, 1.0
    for kind, value in events:
        if kind == "step":
            before, after = after, next(oracle) if value is None else value
            scale = max(scale, after)
        elif kind == "exact":
            tracked, dropped = value, 0.0
        else:  # the same arithmetic as solve
            drop = value / xstar_sq
            tracked -= drop
            dropped += drop
            if np.isfinite(drop):  # solve checks exactly after any other
                steps.append((drop, before - after, tracked, after, dropped, scale))
    return steps


@settings(max_examples=8, derandomize=True, deadline=None)
@given(instance=instances(), method=st.sampled_from(METHODS))
def test_tracked_error_follows_exact_decrease(instance, method):
    # every decrease solve() subtracts is ||X_k - X*||^2 - ||X_{k+1} - X*||^2
    # to 1e-12, and the value it tracks from its last exact error on stays
    # within 1e-13 of the exact one over STEPS steps (in units of the
    # largest error so far, which is 1 unless the run diverges)
    if not np.any(instance[0].X_star):
        return  # no usable reference: solve stops on the residual
    steps = _tracked_steps(instance, method)
    assert steps  # the first step is never a record or a resync
    for drop, exact_drop, tracked, exact, _, scale in steps:
        assert abs(drop - exact_drop) <= 1e-12 * scale
        assert abs(tracked - exact) <= 1e-13 * scale


@settings(max_examples=8, derandomize=True, deadline=None)
@given(instance=instances(rough=True), method=st.sampled_from(METHODS))
def test_tracked_error_never_skips_a_needed_check(instance, method):
    # on rough instances too, the value solve() tracks stays within
    # CONFIRM_BAND plus DROP_RTOL of the decrease since its last exact error
    # of the exact one, the margin it keeps from the tolerance before it
    # skips an exact check
    if not np.any(instance[0].X_star):
        return
    for drop, _, tracked, exact, dropped, scale in _tracked_steps(instance, method):
        margin = solvers.CONFIRM_BAND + solvers.DROP_RTOL * dropped
        if drop >= 0.0 and tracked >= margin:  # solve skipped the exact check
            assert abs(tracked - exact) <= margin * scale


@settings(max_examples=12, derandomize=True, deadline=None)
@given(instance=instances(), eta=st.floats(0.05, 1.99))
def test_constant_stepsize_bounds_every_block(instance, eta):
    # ||U||_F^2 <= lam_A lam_B u_hat (R o R) v_hat with lam_A the largest
    # sigma_max^2(D_u_hat^{1/2} A_I) over all blocks, the short last one
    # included; alpha_const lam_A lam_B <= eta < 2 keeps every decrease
    # 2 alpha num - alpha^2 ||U||_F^2 nonnegative
    prob, tau1, tau2, weights = instance
    m, n = prob.C.shape
    assume(m % tau1 or n % tau2)  # a ragged partition
    config = SolverConfig(method=GRABK_CONST, tau1=tau1, tau2=tau2, eta=eta,
                          weight_scheme=weights)
    state = solvers.prepare_state(prob, config)

    def lam(M, partition, hats, axis):
        top = 0.0
        for b in range(partition.n_blocks):
            if hats[b] is None:  # a zero block, never drawn
                continue
            span = partition.block_slice(b)
            block = M[span] if axis == "rows" else M[:, span].T
            scaled = np.sqrt(hats[b])[:, None] * block
            top = max(top, np.linalg.svd(scaled, compute_uv=False)[0] ** 2)
        return top

    lam_a = lam(prob.A, state.partition_rows, state.row_weights_hat, "rows")
    lam_b = lam(prob.B, state.partition_cols, state.col_weights_hat, "cols")
    assert state.alpha_const * lam_a * lam_b <= eta * (1.0 + 1e-12) < 2.0


@st.composite
def scaled_blocks(draw):
    """A gen_type1 pair A, B of small random shape and rank, its rows of A
    and columns of B scaled down to 1e-4 or not, and block sizes that may
    leave a short last block."""
    m, p, q, n = (draw(st.integers(2, 12)) for _ in range(4))
    r1 = draw(st.integers(1, min(m, p)))
    r2 = draw(st.integers(1, min(q, n)))
    A, B = gen_type1(TypeISpec(m, p, r1, q, n, r2, seed=draw(st.integers(0, 2**16))))
    if draw(st.booleans()):
        A = A * np.logspace(0, -4, m)[:, None]
        B = B * np.logspace(0, -4, n)[None, :]
    return A, B, draw(st.integers(1, m)), draw(st.integers(1, n))


# the largest gaps seen over 3000 random draws of these shapes were 2.4e-14
# for the transposes and 8.2e-13 for the pseudoinverses of row-scaled blocks
GRAM_RTOL = {GRABK_ADAPTIVE: 1e-12, GRBK: 1e-10}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(blocks=scaled_blocks(), method=st.sampled_from([GRABK_ADAPTIVE, GRBK]),
       seed=st.integers(0, 2**16))
def test_gram_factors_give_the_update_norm(blocks, method, seed):
    # the triangular Gram factors of the block factors give ||G_I W H_J||_F^2
    # as ||S_I W T_J^T||_F^2, on rank-deficient, row-scaled and short last
    # blocks alike: G_I = A_I^T, H_J = B_J^T for GRABK, whose adaptive
    # stepsize reads the ones its block cache holds, and the pseudoinverses
    # for GRBK, whose tracked error takes them (as it does GRABK-constant's)
    A, B, tau1, tau2 = blocks
    state = solvers.prepare_state(Problem(A=A, B=B, C=np.zeros((A.shape[0], B.shape[1]))),
                                  SolverConfig(method=method, tau1=tau1, tau2=tau2))
    rng = np.random.default_rng(seed)
    for bi in range(state.partition_rows.n_blocks):
        _, _, A_I, G_I, S_I = solvers._cache_block(state, True, bi)
        S_I = solvers._gram_factor(True, G_I) if S_I is None else S_I
        for bj in range(state.partition_cols.n_blocks):
            _, _, B_J, H_J, T_J = solvers._cache_block(state, False, bj)
            T_J = solvers._gram_factor(False, H_J) if T_J is None else T_J
            W = rng.standard_normal((A_I.shape[0], B_J.shape[1]))
            direct = np.linalg.norm(G_I @ W @ H_J, "fro") ** 2
            assert solvers._gram_sq(S_I, W, T_J) == pytest.approx(direct,
                                                                   rel=GRAM_RTOL[method])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(instance=instances(), method=st.sampled_from(METHODS), steps=st.integers(1, 300))
def test_iterates_stay_in_the_range_of_a_transpose_and_b(instance, method, steps):
    # every step adds a term A_I^T (...) B_J^T or pinv(A_I) (...) pinv(B_J),
    # so from X0 = 0 on, pinv(A) A X B pinv(B) = X
    prob, tau1, tau2, weights = instance
    config = SolverConfig(method=method, tau1=tau1, tau2=tau2, seed=3, max_iters=steps,
                          re_tolerance=1e-300, weight_scheme=weights)
    X = solve(prob, config).X
    A, B = prob.A, prob.B
    projected = pinv(A) @ (A @ X @ B) @ pinv(B)
    assert np.linalg.norm(projected - X) <= 1e-10 * np.linalg.norm(X)


def _fingerprint(report):
    """Everything a run returns but its timings, each float by its bits."""
    def bits(x):
        return None if x is None else float(x).hex()
    return (report.X.tobytes(), report.iterations, report.termination,
            [(k, bits(error), bits(resid)) for k, error, resid in
             zip(report.trace.iteration, report.trace.relative_error,
                 report.trace.relative_residual)],
            None if report.stepsizes is None else [bits(L) for L in report.stepsizes])


@settings(max_examples=6, derandomize=True, deadline=None)
@given(instance=instances())
def test_dense_and_csr_factors_agree_and_kept_residuals_are_exact(instance):
    # with the default cost rules, so each run keeps R, tracks the error or
    # recomputes as solve() picks: the dense and CSR forms of one instance
    # give bitwise the same iterates, iteration counts, termination, records
    # and stepsizes, and every record's residual is within 1e-14 of one
    # recomputed from its X
    prob, tau1, tau2, weights = instance
    A, B = prob.A, prob.B
    assume(np.any(prob.C))
    for x_star in (prob.X_star, None):
        dense = Problem(A=A, B=B, C=prob.C, X_star=x_star)
        csr = Problem(A=sp.csr_array(A), B=sp.csr_array(B), C=prob.C, X_star=x_star)
        for method in METHODS:
            for trace_every in (1, 10**6):
                config = SolverConfig(method=method, tau1=tau1, tau2=tau2, seed=3,
                                      max_iters=RUN_STEPS, re_tolerance=1e-300,
                                      trace_every=trace_every, weight_scheme=weights)
                report = solve(dense, config)
                label = (method, x_star is not None, trace_every)
                assert _fingerprint(solve(csr, config)) == _fingerprint(report), label
                for k, resid in zip(report.trace.iteration, report.trace.relative_residual):
                    X = (report.X if k == report.iterations else
                         solve(dense, replace(config, max_iters=k)).X)
                    exact = np.linalg.norm(prob.C - A @ X @ B) / np.linalg.norm(prob.C)
                    assert abs(resid - exact) <= 1e-14, label


@pytest.mark.parametrize("trace_every", [1, 7])
@pytest.mark.parametrize("reference", ["xstar", "residual"])
def test_blur_directory_solves_as_its_dense_problem(tmp_path, reference, trace_every):
    # kaczmat solve's path: the files of a 64x64 blur problem (coordinate
    # A and B, array C and X_star), read by load_problem_dir, give bitwise
    # the GRBK run of the same matrices handed over dense
    bands = np.indices((64, 64)).sum(axis=0) // 8 % 2
    write_pgm(GrayImage(np.where(bands == 0, 220.0, 35.0)), str(tmp_path / "image.pgm"))
    out = tmp_path / "blur"
    assert cli.main(["generate", "--blur", "--image", str(tmp_path / "image.pgm"),
                     "--out", str(out)]) == 0
    if reference == "residual":
        (out / "X_star.mtx").unlink()
    loaded = cli.load_problem_dir(str(out))
    dense = Problem(**{key: as_dense(load_matrix_market(str(out / name)))
                       for key, name in cli.MATRIX_FILES.items() if (out / name).exists()})
    config = SolverConfig(method=GRBK, tau1=32, tau2=32, seed=5, max_iters=40,
                          re_tolerance=1e-300, trace_every=trace_every)
    assert _fingerprint(solve(loaded, config)) == _fingerprint(solve(dense, config))


@st.composite
def rank_deficient(draw):
    """A gen_type1 pair whose A has fewer independent columns than p, with C
    drawn from X_drawn and no X_star, and block sizes."""
    m, q, n = (draw(st.integers(2, 7)) for _ in range(3))
    p = draw(st.integers(2, 7))
    r1 = draw(st.integers(1, min(m, p - 1)))
    r2 = draw(st.integers(1, min(q, n)))
    seed = draw(st.integers(0, 2**16))
    A, B = gen_type1(TypeISpec(m, p, r1, q, n, r2, seed=seed))
    drawn = make_problem(A, B, seed=seed + 1)
    prob = Problem(A=A, B=B, C=drawn.C)
    return prob, drawn.X_drawn, draw(st.integers(1, m)), draw(st.integers(1, n))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(instance=rank_deficient())
def test_every_method_reaches_the_min_norm_solution(instance):
    # the iterates stay in range(A^T) x range(B), where X* = pinv(A) C pinv(B)
    # is the only solution; there a relative residual of 1e-10 bounds the
    # relative distance to X* by kappa(A) kappa(B) 1e-10 <= 4e-10, as every
    # nonzero singular value lies in (1, 2). The drawn X solves the equation
    # too, but lies off that range, far from X*
    prob, X_drawn, tau1, tau2 = instance
    X_star = min_norm_solution(prob.A, prob.B, prob.C)
    scale = np.linalg.norm(X_star)
    assert np.linalg.norm(X_drawn - X_star) > 1e-8 * scale
    for method in METHODS:
        config = SolverConfig(method=method, tau1=tau1, tau2=tau2, seed=3,
                              max_iters=10**6, re_tolerance=1e-10)
        report = solve(prob, config)
        assert report.termination == "tolerance", method
        assert np.linalg.norm(report.X - X_star) <= 1e-8 * scale, method


def _inconsistent(m, p, r1, q, n, r2, seed, scale):
    """A gen_type1 pair with C = A X B plus noise of ``scale`` times its
    norm, and no X_star."""
    A, B = gen_type1(TypeISpec(m, p, r1, q, n, r2, seed=seed))
    C = make_problem(A, B, seed=seed + 1).C
    noise = np.random.default_rng(seed + 2).standard_normal(C.shape)
    return Problem(A=A, B=B, C=C + scale * np.linalg.norm(C) / np.linalg.norm(noise) * noise)


@st.composite
def inconsistent(draw):
    """A pair whose A has rank below both m and p, with noise in C off the
    range of A, so that no X solves the equation, and block sizes."""
    m, p, q, n = (draw(st.integers(2, 7)) for _ in range(4))
    r1 = draw(st.integers(1, min(m, p) - 1))
    r2 = draw(st.integers(1, min(q, n)))
    prob = _inconsistent(m, p, r1, q, n, r2, seed=draw(st.integers(0, 2**16)),
                         scale=draw(st.sampled_from([1e-6, 1.0])))
    return prob, draw(st.integers(1, m)), draw(st.integers(1, n))


# large adaptive stepsizes: there the rounding of the updates alone moved a
# kept value by 1e-12 to 3e-11 within these steps, until solve took the
# value exact once that rounding could show
@example(instance=(_inconsistent(7, 6, 1, 6, 5, 2, seed=34544, scale=1.0), 7, 2),
         method=GRABK_ADAPTIVE)
@example(instance=(_inconsistent(4, 3, 2, 4, 3, 1, seed=24530, scale=1.0), 1, 3),
         method=GRABK_ADAPTIVE)
# GRK keeping the residual reads every step's residual from its chunk
@example(instance=(_inconsistent(7, 6, 1, 6, 5, 2, seed=34544, scale=1.0), 1, 1), method=GRK)
@example(instance=(_inconsistent(6, 5, 3, 4, 7, 4, seed=911, scale=1e-6), 1, 1), method=GRK)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(instance=inconsistent(), method=st.sampled_from(METHODS))
def test_kept_residuals_stay_exact_past_a_resync_on_inconsistent_runs(instance, method):
    # the run stalls above the least-squares floor, so a kept residual is
    # kept on every step and passes a resync; whether solve recomputes it
    # or keeps it (its part off range(A) x range(B^T) nonzero here), every
    # record is within 1e-14 max(1, exact) of the residual recomputed from
    # its iterate. GRK keeping it runs its steps in chunks: the iterate after
    # a step inside one is the one its steps reach one at a time
    prob, tau1, tau2 = instance
    A, B, C = prob.A, prob.B, prob.C
    floor = np.linalg.norm(C - A @ (pinv(A) @ C @ pinv(B)) @ B) / np.linalg.norm(C)
    assert floor > 1e-9
    step_name = STEP_NAMES[method]
    step = getattr(solvers, step_name)
    steps = solvers.RESYNC_EVERY + 200
    for keeps in (False, True):
        exact = []

        def recording(state, *args, **kwargs):
            X = state.X.copy()
            out = step(state, *args, **kwargs)
            chunk = method == GRK and np.ndim(out) == 1
            for X in grk_chunk_iterates(prob, X, *args[:2], out) if chunk else [state.X]:
                exact.append(np.linalg.norm(C - (A @ X) @ B) / np.linalg.norm(C))
            return out

        config = SolverConfig(method=method, tau1=tau1, tau2=tau2, seed=3, max_iters=steps,
                              re_tolerance=1e-300)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_keeps_residual", lambda *args, keeps=keeps: keeps)
            patch.setattr(solvers, step_name, recording)
            report = solve(prob, config)
        assert report.iterations == len(exact) == len(report.trace.iteration) == steps, keeps
        for k, resid in zip(report.trace.iteration, report.trace.relative_residual):
            target = exact[k - 1]
            assert abs(resid - target) <= 1e-14 * max(1.0, target), keeps


@st.composite
def residual_shapes(draw):
    """A pair tall, wide or square on each side, of random ranks, its A's
    rows scaled from 1 down to 1e-4 or not, C consistent or with noise of
    1e-6 or 1 times its norm; and the iterates to take exact values at: X0
    = 0, a random X and pinv(A) C pinv(B)."""
    m, p, q, n = (draw(st.integers(1, 9)) for _ in range(4))
    r1, r2 = draw(st.integers(1, min(m, p))), draw(st.integers(1, min(q, n)))
    seed = draw(st.integers(0, 2**16))
    A, B = gen_type1(TypeISpec(m, p, r1, q, n, r2, seed=seed))
    if draw(st.booleans()):
        A = A * np.logspace(0, -4, m)[:, None]
    rng = np.random.default_rng(seed + 1)
    C = A @ rng.standard_normal((p, q)) @ B
    noise = rng.standard_normal((m, n))
    scale = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    C = C + scale * np.linalg.norm(C) / np.linalg.norm(noise) * noise
    prob = Problem(A=A, B=B, C=C)
    return prob, [np.zeros((p, q)), rng.standard_normal((p, q)), pinv(A) @ C @ pinv(B)]


@example(shapes=(_inconsistent(7, 6, 1, 6, 5, 2, seed=34544, scale=1.0),
                 [np.zeros((6, 6)), np.ones((6, 6))]))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(shapes=residual_shapes())
def test_kept_residual_coordinates_give_the_exact_residual(shapes):
    # the kept residual holds K = K_C - T_A X T_B^T and perp_sq = ||C - Q_A
    # K_C Q_B^T||_F^2: each exact value, sqrt(perp_sq + ||K||_F^2) / unit, is
    # within 1e-14 max(1, exact) of ||C - (A X) B||_F / unit, on every shape.
    # Where neither factor is tall, K is R itself and perp_sq is 0. K stays
    # C-ordered: advance and advance_grk drop the return of their in-place
    # dgemm into K^T, so a K of another layout would lose its updates
    prob, iterates = shapes
    (m, p), (q, n) = prob.A.shape, prob.B.shape
    state = solvers.prepare_state(prob, SolverConfig(method=GRK))
    residual = solvers._Residual(state, True, -np.inf)
    assert residual.kept.shape == (min(m, p), min(q, n))
    assert residual.kept.flags.c_contiguous
    for X in iterates:
        state.X = X
        exact = residual.exact()
        assert residual.kept.flags.c_contiguous
        R = prob.C - (prob.A @ X) @ prob.B
        direct = np.linalg.norm(R, "fro") / residual.unit
        assert abs(exact - direct) <= 1e-14 * max(1.0, direct)
        if m <= p and n <= q:
            np.testing.assert_array_equal(residual.kept, R)
            assert residual.perp_sq == 0.0


@st.composite
def weighted_blocks(draw):
    """Hats u and v on a t1 x t2 block (t1, t2 up to 20), rows of R to zero
    and a seed for R."""
    t1, t2 = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    hats = st.floats(1e-8, 1.0)
    return (draw(st.lists(hats, min_size=t1, max_size=t1)),
            draw(st.lists(hats, min_size=t2, max_size=t2)),
            draw(st.sets(st.integers(0, t1 - 1))), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block=weighted_blocks())
@example(block=([1e-8], [1.0], set(), 0))
@example(block=([0.5], [0.25], {0}, 1))
def test_adaptive_numerator_matches_the_weighted_residual_energy(block):
    # GRABK-adaptive's numerator <W, R>, W = u_hat R v_hat, against u_hat (R o
    # R) v_hat: both sum t1 t2 nonnegative terms, each rounded at most three
    # times, so they agree within (2 t1 t2 + 8) eps in any summation order
    u, v, zero, seed = block
    u_hat, v_hat = np.array(u), np.array(v)
    R = np.random.default_rng(seed).standard_normal((u_hat.size, v_hat.size))
    R[sorted(zero)] = 0.0
    W = u_hat[:, None] * R * v_hat[None, :]
    new, old = float(np.vdot(W, R)), float(u_hat @ (R * R) @ v_hat)
    assert abs(new - old) <= (2 * R.size + 8) * solvers.EPS * old

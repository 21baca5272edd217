"""End-to-end acceptance gate.

Each test prints one summary line, [criterion N] PASS/FAIL with the measured
numbers, then asserts. Statistical checks run 50 seeded repeats on the
100x40/40x100 rank-deficient reference instance; the batch is built once and
shared by criteria 3, 4, and 5.
"""

import time

import numpy as np
import pytest

from kaczmat.images import GrayImage
from kaczmat.matrices import pinv
from kaczmat.problems import BlurSpec, TypeISpec, blur_problem, gen_type1, gen_type2, make_problem, psnr
from kaczmat.rates import beta_max, gamma_max, grabk_const_rate, grbk_rate, grk_rate
from kaczmat.sampling import SeededRng, frobenius_block_probs, make_partition, sample_block
from kaczmat.solvers import (
    GRABK_ADAPTIVE,
    GRABK_CONST,
    GRBK,
    GRK,
    SolverConfig,
    grbk_step,
    grk_step,
    prepare_state,
    relative_error,
    solve,
)

from oracles import kron, rk_kronecker_step, vec


def emit(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def table1_problem():
    A, B = gen_type1(TypeISpec(m=100, p=40, r1=20, q=40, n=100, r2=40, seed=123))
    return make_problem(A, B, seed=124, name="reference-100x40")


@pytest.fixture(scope="module")
def table1_stats(table1_problem):
    """50-seed batch on the reference instance: checkpoint errors and ITs."""
    t0 = time.perf_counter()
    prob = table1_problem
    xstar_sq = np.linalg.norm(prob.X_star) ** 2
    methods = {
        GRBK: dict(tau1=20, tau2=20),
        GRABK_CONST: dict(tau1=20, tau2=20, eta=1.95),
        GRABK_ADAPTIVE: dict(tau1=20, tau2=20, eta=1.0),
    }
    out = {m: {"checkpoints": [], "iters": [], "stepsizes": []} for m in methods}
    for method, kw in methods.items():
        for seed in range(50):
            probe = SolverConfig(method=method, seed=seed, max_iters=15,
                                 re_tolerance=1e-30, trace_every=5, **kw)
            rep = solve(prob, probe)
            out[method]["checkpoints"].append(
                [rec.relative_error * xstar_sq for rec in rep.records]
            )
            full = SolverConfig(method=method, seed=seed, max_iters=50000,
                                re_tolerance=1e-6, trace_every=10**6, **kw)
            rep = solve(prob, full)
            assert rep.termination == "tolerance", (method, seed)
            out[method]["iters"].append(rep.iterations)
            if method == GRABK_ADAPTIVE:
                out[method]["stepsizes"].append(rep.stepsizes)
    out["xstar_sq"] = xstar_sq
    out["build_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_01_single_index_matches_vectorized_system(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for trial, (m, p, q, n) in enumerate([(4, 3, 3, 4), (6, 4, 4, 6), (5, 2, 2, 5)]):
        rng = SeededRng(1000 + trial)
        A = rng.standard_normal((m, p))
        B = rng.standard_normal((q, n))
        prob = make_problem(A, B, seed=2000 + trial)
        state = prepare_state(prob, SolverConfig(method=GRK, seed=trial))
        M = kron(np.asarray(prob.B).T, np.asarray(prob.A))
        cvec = vec(prob.C).ravel()
        xvec = np.zeros(p * q)
        row_sq = np.sum(M * M, axis=1)
        for _ in range(200):
            bi = sample_block(state.dist_rows, state.rng)
            bj = sample_block(state.dist_cols, state.rng)
            i = int(state.partition_rows.block(bi)[0])
            j = int(state.partition_cols.block(bj)[0])
            grk_step(state, i, j)
            rk_kronecker_step(xvec, M, cvec, j * m + i, row_sq)
            dev = np.max(np.abs(vec(state.X).ravel() - xvec))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    emit(capsys, 1, ok,
         f"3 problems x 200 synchronized steps, max deviation {worst:.2e} "
         f"(tol 1e-10), {elapsed:.2f}s (< 1s)")


def test_criterion_02_projection_invariants(capsys):
    t0 = time.perf_counter()
    sketch_worst = 0.0
    pyth_worst = 0.0
    monotone = True
    steps_total = 0
    for inst in range(2):
        A, B = gen_type1(TypeISpec(m=40, p=16, r1=16, q=16, n=40, r2=16, seed=300 + inst))
        prob = make_problem(A, B, seed=400 + inst)
        cfg = SolverConfig(method=GRBK, tau1=2, tau2=2, seed=inst)
        state = prepare_state(prob, cfg)
        err_prev = np.linalg.norm(state.X - prob.X_star) ** 2
        for _ in range(500):
            bi = sample_block(state.dist_rows, state.rng)
            bj = sample_block(state.dist_cols, state.rng)
            I = state.partition_rows.block(bi)
            J = state.partition_cols.block(bj)
            X_prev = state.X.copy()
            grbk_step(state, I, J)
            steps_total += 1
            A_I = np.asarray(prob.A)[I, :]
            B_J = np.asarray(prob.B)[:, J]
            C_IJ = prob.C[np.ix_(I, J)]
            sk = np.linalg.norm(C_IJ - A_I @ state.X @ B_J) / (
                1e-8 * (1 + np.linalg.norm(C_IJ))
            )
            sketch_worst = max(sketch_worst, sk)
            err = np.linalg.norm(state.X - prob.X_star) ** 2
            move = np.linalg.norm(state.X - X_prev) ** 2
            gap = abs(err - (err_prev - move)) / max(err_prev, 1e-300)
            pyth_worst = max(pyth_worst, gap)
            monotone = monotone and err <= err_prev * (1 + 1e-12)
            err_prev = err
    elapsed = time.perf_counter() - t0
    ok = sketch_worst <= 1.0 and pyth_worst <= 1e-8 and monotone and elapsed < 5.0
    emit(capsys, 2, ok,
         f"{steps_total} projection steps: sketched-equation margin "
         f"{sketch_worst:.3f} (<= 1 of budget), Pythagoras gap {pyth_worst:.2e} "
         f"(tol 1e-8 rel), monotone={monotone}, {elapsed:.2f}s (< 5s)")


def test_criterion_03_block_projection_rate_bound(capsys, table1_problem, table1_stats):
    t0 = time.perf_counter()
    prob = table1_problem
    part_a = make_partition(100, 20)
    part_b = make_partition(100, 20)
    rate = grbk_rate(prob.A, prob.B, part_a, part_b)
    xstar_sq = table1_stats["xstar_sq"]
    checks = np.asarray(table1_stats[GRBK]["checkpoints"])  # (50, 3)
    means = checks.mean(axis=0)
    bounds = np.array([rate**k * xstar_sq * 1.1 for k in (5, 10, 15)])
    below = bool(np.all(means <= bounds))
    mean_it = float(np.mean(table1_stats[GRBK]["iters"]))
    it_ok = 8 <= mean_it <= 80
    elapsed = table1_stats["build_seconds"] + (time.perf_counter() - t0)
    ok = below and it_ok and elapsed < 60.0
    emit(capsys, 3, ok,
         f"50 seeds: mean sq errors {means.round(2).tolist()} vs bounds "
         f"{bounds.round(2).tolist()} at k=5,10,15 (rate {rate:.6f}), "
         f"mean IT {mean_it:.1f} in [8, 80], {elapsed:.1f}s (< 60s)")


def test_criterion_04_averaged_constant_rate_bound(capsys, table1_problem, table1_stats):
    t0 = time.perf_counter()
    prob = table1_problem
    part_a = make_partition(100, 20)
    part_b = make_partition(100, 20)
    rate = grabk_const_rate(prob.A, prob.B, part_a, part_b, eta=1.95)
    xstar_sq = table1_stats["xstar_sq"]
    means = np.asarray(table1_stats[GRABK_CONST]["checkpoints"]).mean(axis=0)
    bounds = np.array([rate**k * xstar_sq * 1.1 for k in (5, 10, 15)])
    below = bool(np.all(means <= bounds))
    mean_it = float(np.mean(table1_stats[GRABK_CONST]["iters"]))
    it_ok = 70 <= mean_it <= 700
    elapsed = table1_stats["build_seconds"] + (time.perf_counter() - t0)
    ok = below and it_ok and elapsed < 60.0
    emit(capsys, 4, ok,
         f"50 seeds, eta=1.95: mean sq errors {means.round(2).tolist()} vs "
         f"bounds {bounds.round(2).tolist()}, mean IT {mean_it:.1f} in "
         f"[70, 700], {elapsed:.1f}s (< 60s)")


def test_criterion_05_adaptive_stepsize_floor_and_speedup(capsys, table1_problem, table1_stats):
    prob = table1_problem
    part_a = make_partition(100, 20)
    part_b = make_partition(100, 20)
    ga = gamma_max(prob.A, part_a, "rows")
    gb = gamma_max(prob.B, part_b, "cols")
    rn2 = np.linalg.norm(np.asarray(prob.A), axis=1) ** 2
    cn2 = np.linalg.norm(np.asarray(prob.B), axis=0) ** 2
    u_max = max(
        float((rn2[part_a.block_slice(b)] / rn2[part_a.block_slice(b)].sum()).max())
        for b in range(part_a.n_blocks)
    )
    v_max = max(
        float((cn2[part_b.block_slice(b)] / cn2[part_b.block_slice(b)].sum()).max())
        for b in range(part_b.n_blocks)
    )
    floor = 1.0 / (u_max * v_max * ga**2 * gb**2)
    all_l = np.concatenate([np.asarray(ls) for ls in table1_stats[GRABK_ADAPTIVE]["stepsizes"]])
    floor_ok = bool(np.all(all_l >= floor * (1 - 1e-12)))
    mean_it_a = float(np.mean(table1_stats[GRABK_ADAPTIVE]["iters"]))
    mean_it_c = float(np.mean(table1_stats[GRABK_CONST]["iters"]))
    it_ok = 40 <= mean_it_a <= 400
    faster = mean_it_a < mean_it_c
    ok = floor_ok and it_ok and faster
    emit(capsys, 5, ok,
         f"{all_l.size} logged stepsize ratios, min {all_l.min():.4f} vs floor "
         f"{floor:.4f}, mean IT {mean_it_a:.1f} in [40, 400], adaptive "
         f"{mean_it_a:.1f} < constant {mean_it_c:.1f}: {faster}")


def test_criterion_06_stepsize_sweep_interior_minimum(capsys):
    A, B = gen_type2(200, 100, 100, 200, seed=42)
    prob = make_problem(A, B, seed=43)
    # Each step lowers ||X - X*||^2 by eta (2 - eta) num L, a factor that
    # vanishes at both ends of (0, 2), so the count must rise at both ends.
    # The rate bound is symmetric about eta = 1 but the measured count is not:
    # over-relaxing past the line-search step helps until about 1.6, and the
    # count is flat from 1.4 to 1.8. 1.99 samples the rising right end.
    grid = [0.2, 0.6, 1.0, 1.4, 1.8, 1.99]
    means = []
    all_converged = True
    for eta in grid:
        its = []
        for seed in range(3):
            cfg = SolverConfig(method=GRABK_ADAPTIVE, tau1=50, tau2=50, eta=eta,
                               seed=seed, max_iters=50000, trace_every=10**6)
            rep = solve(prob, cfg)
            all_converged = all_converged and rep.termination == "tolerance"
            its.append(rep.iterations)
        means.append(float(np.mean(its)))
    argmin = int(np.argmin(means))
    interior = 0 < argmin < len(grid) - 1
    nonmono = any(b > a for a, b in zip(means, means[1:])) and any(
        b < a for a, b in zip(means, means[1:])
    )
    ok = all_converged and interior and nonmono
    emit(capsys, 6, ok,
         f"mean IT over eta {grid}: {[round(v, 1) for v in means]}, "
         f"all converged={all_converged}, minimum at eta={grid[argmin]} "
         f"(interior={interior}, non-monotone={nonmono})")


def test_criterion_07_minimal_norm_targeting(capsys):
    A, B = gen_type1(TypeISpec(m=30, p=12, r1=8, q=12, n=30, r2=10, seed=3))
    prob = make_problem(A, B, seed=11)
    drawn = np.linalg.norm(prob.X_drawn)
    details = []
    ok = True
    for method in (GRK, GRBK, GRABK_CONST, GRABK_ADAPTIVE):
        cfg = SolverConfig(method=method, tau1=4, tau2=4, seed=1,
                           max_iters=50000, trace_every=10**6)
        rep = solve(prob, cfg)
        re = relative_error(rep.X, prob.X_star)
        final_norm = np.linalg.norm(rep.X)
        good = rep.termination == "tolerance" and re < 1e-6 and final_norm <= drawn
        ok = ok and good
        details.append(f"{method}: RE {re:.1e}, ||X|| {final_norm:.2f}")
    emit(capsys, 7, ok,
         f"rank-deficient instance, ||X_drawn|| {drawn:.2f}; " + "; ".join(details))


def test_criterion_08_rate_oracles(capsys):
    rng = np.random.default_rng(88)
    dominated = 0
    for _ in range(20):
        m = int(rng.integers(6, 16))
        p = int(rng.integers(3, m + 1))
        n = int(rng.integers(6, 16))
        A = rng.standard_normal((m, p))
        B = rng.standard_normal((p, n))
        tau1 = int(rng.integers(1, m + 1))
        tau2 = int(rng.integers(1, n + 1))
        if grbk_rate(A, B, make_partition(m, tau1), make_partition(n, tau2)) <= grk_rate(A, B) + 1e-12:
            dominated += 1

    A = rng.standard_normal((8, 5))
    B = rng.standard_normal((5, 8))
    singleton_gap = abs(
        grbk_rate(A, B, make_partition(8, 1), make_partition(8, 1)) - grk_rate(A, B)
    )

    # normalized-input reduction: on unit rows/columns with equal block
    # sizes, gamma^2 = tau beta^2 and the uniform-stepsize factor collapses
    # onto the Frobenius eta=1 factor
    An = rng.standard_normal((12, 6))
    An /= np.linalg.norm(An, axis=1, keepdims=True)
    Bn = rng.standard_normal((6, 12))
    Bn /= np.linalg.norm(Bn, axis=0, keepdims=True)
    pa, pb = make_partition(12, 3), make_partition(12, 4)
    ga, gb = gamma_max(An, pa, "rows"), gamma_max(Bn, pb, "cols")
    ba, bb = beta_max(An, pa, "rows"), beta_max(Bn, pb, "cols")
    gamma_gap = max(abs(ga**2 - 3 * ba**2), abs(gb**2 - 4 * bb**2))
    sa = np.linalg.svd(An, compute_uv=False)[-1]
    sb = np.linalg.svd(Bn, compute_uv=False)[-1]
    reduced = 1 - (3 * 4 / (ga**2 * gb**2)) * (sa**2 / 12) * (sb**2 / 12)
    identity_gap = abs(reduced - grabk_const_rate(An, Bn, pa, pb, eta=1.0))

    ok = dominated == 20 and singleton_gap <= 1e-14 and gamma_gap <= 1e-12 and identity_gap <= 1e-12
    emit(capsys, 8, ok,
         f"block rate dominated single-index rate on {dominated}/20 instances, "
         f"singleton gap {singleton_gap:.1e} (tol 1e-14), normalized reduction "
         f"gaps {gamma_gap:.1e}/{identity_gap:.1e} (tol 1e-12)")


def test_criterion_09_deblurring_end_to_end(capsys):
    t0 = time.perf_counter()
    n = 64
    tile = np.indices((n, n)).sum(axis=0)
    pixels = np.where((tile // 8) % 2 == 0, 220.0, 35.0)
    image = GrayImage(pixels)
    prob = blur_problem(image, BlurSpec(n=n, r=3, sigma=7.0))
    base = psnr(image.pixels, prob.C)
    scores = {}
    for method in (GRBK, GRABK_CONST, GRABK_ADAPTIVE):
        cfg = SolverConfig(method=method, tau1=n // 2, tau2=n // 2, seed=0,
                           max_iters=5000, trace_every=10**6)
        rep = solve(prob, cfg)
        scores[method] = psnr(image.pixels, rep.X)
    gains_ok = all(s >= base + 3.0 for s in scores.values())
    grbk_best = all(scores[GRBK] >= scores[m] for m in (GRABK_CONST, GRABK_ADAPTIVE))
    elapsed = time.perf_counter() - t0
    ok = gains_ok and grbk_best and elapsed < 120.0
    emit(capsys, 9, ok,
         f"blurred {base:.2f} dB; restored " +
         ", ".join(f"{m} {v:.2f} dB" for m, v in scores.items()) +
         f"; all gains >= 3 dB: {gains_ok}, projection best: {grbk_best}, "
         f"{elapsed:.1f}s (< 120s)")


def test_criterion_10_module_property_suites(capsys):
    rng = np.random.default_rng(101)
    checks = []

    M = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 4))
    P = pinv(M)
    tol = 1e-8 * np.linalg.norm(M)
    checks.append(("pseudoinverse", max(
        np.max(np.abs(M @ P @ M - M)),
        np.max(np.abs(P @ M @ P - P)),
        np.max(np.abs((M @ P).T - M @ P)),
        np.max(np.abs((P @ M).T - P @ M)),
    ) <= tol))

    A = rng.standard_normal((4, 3))
    X = rng.standard_normal((3, 4))
    B = rng.standard_normal((4, 2))
    checks.append(("vec identity", np.allclose(
        vec(A @ X @ B), kron(B.T, A) @ vec(X), atol=1e-10)))
    checks.append(("norm product", np.isclose(
        np.linalg.norm(kron(A, B)), np.linalg.norm(A) * np.linalg.norm(B), rtol=1e-10)))

    recon = all(
        np.array_equal(np.concatenate(make_partition(dim, tau).blocks()), np.arange(dim))
        for dim, tau in [(10, 3), (9, 4), (7, 7), (5, 1)]
    )
    checks.append(("partition reconstruction", recon))

    checks.append(("sampling reproducibility", np.array_equal(
        SeededRng(5).uniform_array(1000), SeededRng(5).uniform_array(1000))))
    dist = frobenius_block_probs(np.eye(4), make_partition(4, 2), "rows")
    checks.append(("block distribution", np.allclose(dist.probabilities, [0.5, 0.5])))

    A1, B1 = gen_type1(TypeISpec(m=9, p=5, r1=4, q=5, n=9, r2=3, seed=77))
    s1 = np.linalg.svd(A1, compute_uv=False)
    s2 = np.linalg.svd(B1, compute_uv=False)
    spectrum = (
        np.all((s1[:4] > 1 - 1e-8) & (s1[:4] < 2 + 1e-8))
        and np.all((s2[:3] > 1 - 1e-8) & (s2[:3] < 2 + 1e-8))
        and np.all(s1[4:] < 1e-8) and np.all(s2[3:] < 1e-8)
    )
    checks.append(("rank-controlled spectrum", bool(spectrum)))

    failed = [name for name, good in checks if not good]
    ok = not failed
    emit(capsys, 10, ok,
         f"{len(checks)} property groups pass" if ok else f"failed: {failed}")

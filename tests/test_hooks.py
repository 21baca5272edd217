"""The benchmark's layer trace still sees every layer.

``perfbench/tracing.py`` wraps module-level names that ``solve`` and the CLI
look up at call time. A refactor that renames a hooked function, captures
one at import, or hands a step other block sizes loses that layer's numbers
without failing any run; this test catches it on tiny inputs, under the
same checks as the traced benchmark smoke runs.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kaczmat import solvers
from kaczmat.cli import main
from kaczmat.images import GrayImage, write_pgm
from kaczmat.problems import TypeISpec, gen_type1, make_problem
from kaczmat.solvers import GRABK_ADAPTIVE, GRABK_CONST, GRBK, GRK, Problem, SolverConfig

from oracles import grk_residual_oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / ".github")]
import check_traced  # noqa: E402
from tracing import Tracer, _grbk_counts, _grk_counts  # noqa: E402

SIDE, TAU = 16, 8  # the blur image and GRBK's blocks, which TAU divides

# the spans behind the metrics that the traced smoke runs require to be
# above 0: perfbench names a span's time "{span}.s", its calls
# "{span}.calls" and a step's calls "solvers.step.calls.{method}"
REQUIRED = [name.replace("step.calls.", "step.").removesuffix(".s").removesuffix(".calls")
            for name in check_traced.REQUIRED]


def test_tracer_sees_every_layer(tmp_path, capsys):
    # without X_star, as in the library's defaults: the residual is the stop metric
    A, B = gen_type1(TypeISpec(SIDE, SIDE, SIDE, SIDE, SIDE, SIDE, seed=1))
    problem = Problem(A=A, B=B, C=make_problem(A, B, seed=2).C)
    runs = [(method, "frobenius") for method in (GRK, GRBK, GRABK_CONST, GRABK_ADAPTIVE)]
    runs.append((GRABK_CONST, "uniform"))
    image = tmp_path / "image.pgm"
    pixels = np.random.default_rng(3).uniform(30, 220, size=(SIDE, SIDE))
    write_pgm(GrayImage(np.floor(pixels)), image)
    blur = ["--r", "2", "--sigma", "3.0"]
    cli = ["--tau1", str(TAU), "--tau2", str(TAU), "--max-iters", "20", "--seed", "4"]
    assert main(["generate", "--blur", "--image", str(image), *blur,
                 "--out", str(tmp_path / "blur")]) == 0

    tracer = Tracer()
    with tracer.installed():
        for method, weights in runs:
            solvers.solve(problem, SolverConfig(method=method, tau1=TAU, tau2=TAU, seed=5,
                                                max_iters=20, weight_scheme=weights))
        # each ends at max_iters, exit code 2
        assert main(["solve", str(tmp_path / "blur"), "--method", "grbk", *cli]) == 2
        assert main(["deblur", str(image), *blur, "--method", "grbk", *cli,
                     "--out", str(tmp_path / "deblur")]) == 2
    capsys.readouterr()

    assert tracer.absent == []
    assert [name for name in REQUIRED if not tracer.calls[name] > 0] == []
    assert tracer.calls["solvers.solve"] == 2  # the two commands
    # solve draws the block pairs of a chunk of steps with one call
    steps = sum(tracer.calls[f"solvers.step.{method}"] for method in
                (GRK, GRBK, GRABK_CONST, GRABK_ADAPTIVE))
    assert tracer.calls["sampling.sample_block"] < steps
    # every GRBK step (library, solve and deblur) ran on TAU x TAU blocks
    # of a SIDE x SIDE iterate
    args = (SimpleNamespace(X=np.zeros((SIDE, SIDE))), np.arange(TAU), np.arange(TAU))
    grbk_steps = tracer.calls["solvers.step.grbk"]
    assert grbk_steps == 3 * 20
    assert tracer.counters["flops.grbk"] == grbk_steps * _grbk_counts(args)[0]


def test_tracer_counts_grk_chunks():
    # with X_star and a quiet trace GRK runs its steps in chunks: the step
    # span fires once per chunk, so fewer times than the run's iterations
    # and more often than the draws, and its counter reads a chunk call
    A, B = gen_type1(TypeISpec(SIDE, SIDE, SIDE, SIDE, SIDE, SIDE, seed=1))
    problem = make_problem(A, B, seed=2)
    tracer = Tracer()
    with tracer.installed():
        report = solvers.solve(problem, SolverConfig(method=GRK, seed=5, max_iters=500,
                                                     trace_every=10**6))
    assert tracer.absent == []
    chunks = tracer.calls["solvers.step.grk"]
    assert 0 < tracer.calls["sampling.sample_block"] < chunks < report.iterations
    args = (SimpleNamespace(X=np.zeros((SIDE, SIDE))), np.arange(8), np.arange(8))
    assert tracer.counters["flops.grk"] == chunks * _grk_counts(args)[0]


def test_tracer_counts_grk_chunks_without_x_star():
    # with the library's defaults, no X_star and a record on every step, the
    # kept residual stops GRK's run and reads every step's value from a
    # chunk: the step span fires once per chunk, fewer times than the run's
    # iterations, and the full residual runs at the start, once per
    # RESYNC_EVERY steps and at most once per step whose residual lies
    # within the band (plus the most a chunk's value may round) of the
    # tolerance
    A, B = gen_type1(TypeISpec(SIDE, SIDE, SIDE, SIDE, SIDE, SIDE, seed=1))
    problem = Problem(A=A, B=B, C=make_problem(A, B, seed=2).C)
    config = SolverConfig(method=GRK, seed=5)
    assert solvers._keeps_residual(problem, config, False) is True
    tracer = Tracer()
    with tracer.installed():
        report = solvers.solve(problem, config)
    assert tracer.absent == []
    assert report.termination == "tolerance"
    assert 0 < tracer.calls["solvers.step.grk"] < report.iterations
    band = config.re_tolerance + solvers.CONFIRM_BAND + solvers.DRIFT_LIMIT
    near = sum(value < band for value in grk_residual_oracle(problem, config).errors[1:])
    assert 0 < tracer.calls["solvers.residual"] <= (1 + report.iterations // solvers.RESYNC_EVERY
                                                    + near)


# One fixed run per method and stop metric: with X_star and a record on
# every step, with X_star and a quiet trace, and without X_star. Each row
# is (iterations, step calls, sample_block calls, residual calls, pinv
# calls), pinned so that a change to the loop that adds or drops a hooked
# call shows here. GRK runs its steps in chunks on all three; GRBK builds
# one pinv for each of its 2 + 2 blocks.
HOOK_COUNTS = {
    (GRK, True, 1): (1100, 18, 2, 4, 0),
    (GRK, True, 10**6): (1100, 18, 2, 1, 0),
    (GRK, False, 1): (1100, 18, 2, 5, 0),
    (GRBK, True, 1): (49, 49, 1, 0, 4),
    (GRBK, True, 10**6): (49, 49, 1, 1, 4),
    (GRBK, False, 1): (110, 110, 1, 2, 4),
    (GRABK_CONST, True, 1): (140, 140, 1, 0, 0),
    (GRABK_CONST, True, 10**6): (140, 140, 1, 1, 0),
    (GRABK_CONST, False, 1): (335, 335, 1, 3, 0),
    (GRABK_ADAPTIVE, True, 1): (87, 87, 1, 0, 0),
    (GRABK_ADAPTIVE, True, 10**6): (87, 87, 1, 1, 0),
    (GRABK_ADAPTIVE, False, 1): (183, 183, 1, 2, 0),
}


@pytest.mark.parametrize("method, x_star, trace_every", list(HOOK_COUNTS))
def test_hook_call_counts_are_pinned(method, x_star, trace_every):
    A, B = gen_type1(TypeISpec(SIDE, SIDE, SIDE, SIDE, SIDE, SIDE, seed=1))
    problem = make_problem(A, B, seed=2)
    if not x_star:
        problem = Problem(A=A, B=B, C=problem.C)
    tracer = Tracer()
    with tracer.installed():
        report = solvers.solve(problem, SolverConfig(method=method, tau1=TAU, tau2=TAU, seed=5,
                                                     max_iters=1100, trace_every=trace_every))
    assert tracer.absent == []
    counts = (report.iterations, tracer.calls[f"solvers.step.{method}"],
              tracer.calls["sampling.sample_block"], tracer.calls["solvers.residual"],
              tracer.calls["matrices.pinv"])
    assert counts == HOOK_COUNTS[method, x_star, trace_every]


@pytest.mark.parametrize("x_star", [True, False])
def test_grk_with_a_recomputed_residual_runs_one_step_a_call(x_star, monkeypatch):
    # with the residual recomputed, a record on every step with X_star and
    # every step without it read the exact stop metric, so nothing is
    # tracked: each grk_step call is a chunk of one step, handed index
    # arrays of length 1
    A, B = gen_type1(TypeISpec(SIDE, SIDE, SIDE, SIDE, SIDE, SIDE, seed=1))
    problem = make_problem(A, B, seed=2)
    if not x_star:
        problem = Problem(A=A, B=B, C=problem.C)
    monkeypatch.setattr(solvers, "_keeps_residual", lambda *args: False)
    shapes, step = [], solvers.grk_step
    monkeypatch.setattr(solvers, "grk_step", lambda state, i, j, **kwargs: (
        shapes.append((np.shape(i), np.shape(j))) or step(state, i, j, **kwargs)))
    tracer = Tracer()
    with tracer.installed():
        report = solvers.solve(problem, SolverConfig(method=GRK, seed=5, max_iters=300))
    assert tracer.absent == []
    assert report.iterations == 300
    assert tracer.calls["solvers.step.grk"] == len(shapes) == report.iterations
    assert set(shapes) == {((1,), (1,))}

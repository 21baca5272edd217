"""Workloads of the kaczmat benchmark.

Every workload runs the same kinds of operation, so that each reports every
end-to-end metric: library ``solve`` calls for each method, and
``kaczmat deblur`` and ``kaczmat solve`` commands (GRBK, called in process).
What differs is the regime, which decides the layer that bounds the time:

* ``dense-kernels``: ``X_star`` known and ``trace_every`` at or above the
  iteration budget, so the step kernels (and GRBK's per-step ``pinv``)
  dominate and the full residual runs about once per solve.
* ``residual-default``: the library defaults a user with only ``A``, ``B``
  and ``C`` gets, ``trace_every=1`` and no ``X_star``, so the termination
  check and the trace record compute ``C - A X B`` twice per iteration.
* ``blur-cli``: the CLI at a 250-iteration budget on a blurred test
  image. ``solve`` loads Matrix Market files into CSR, so the same
  operator runs the dense path (``deblur``) and the CSR path (``solve``);
  everything keeps the default ``trace_every=1`` with ``X_star`` known.

The library workloads run the commands at a 300-iteration budget.

Times are CPU seconds of the benchmark's process (``time.process_time``),
scaled to a reference host speed. BLAS runs on one thread, so on an unshared
core CPU time is the wall time; on a shared virtual machine it leaves out
the time the host hands to other guests. The speed of a shared core still
moves by up to 1.8x within a minute, so every operation is bracketed by a
fixed calibration kernel that does not touch kaczmat, and its CPU time is
multiplied by ``CALIBRATION_REF_S`` over the kernel's mean CPU time before
and after it. Unscaled CPU and wall times are kept in the result file.

The workload seed derives every instance, the image and every solver seed.
Each library method runs on several instances because the iteration count
to tolerance varies from instance to instance, and the commands run several
times per pass; the run's median over them is steadier than any single one.
Operations are kept under about a second, so that a run holds several
passes.
"""

import csv
import hashlib
import io
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import kaczmat
from kaczmat import cli

METHODS = ("grk", "grbk", "grabk_const", "grabk_adaptive")

# gen_type1 shapes (m, p, r1, q, n, r2). BASELINE is the ROADMAP's Baseline
# instance. Where every step also computes C - A X B, the instances are
# smaller, so that several instances and passes still fit in a run.
BASELINE = (500, 200, 200, 200, 500, 200)
MIDDLE = (150, 40, 40, 40, 150, 40)
SMALL = (100, 40, 20, 40, 100, 40)
SMALLER = (60, 20, 10, 20, 60, 20)

# What the calibration kernel takes on the host the benchmark was tuned on
# (a shared x86-64 virtual machine); reported times are at that speed.
CALIBRATION_REF_S = 0.0035

IMAGE_SIDE = 64
CLI_TAU = IMAGE_SIDE // 2
CLI_REPEATS = 5  # deblur/solve command pairs per pass


@dataclass(frozen=True)
class Regime:
    """What a workload runs: instances per method, tracing and budgets."""

    name: str
    # method -> (gen_type1 shape, tau, number of instances per pass)
    library: dict
    x_star: bool  # hand X_star to the library solves and the solve command
    quiet_trace: bool  # trace_every at or above the budget, not the default 1
    cli_iters: int


REGIMES = {
    r.name: r
    for r in (
        Regime(
            name="dense-kernels",
            library={"grk": (SMALL, 1, 6), "grbk": (BASELINE, 50, 3),
                     "grabk_const": (BASELINE, 50, 3),
                     "grabk_adaptive": (BASELINE, 50, 3)},
            x_star=True, quiet_trace=True, cli_iters=300,
        ),
        Regime(
            name="residual-default",
            library={"grk": (SMALLER, 1, 10), "grbk": (MIDDLE, 15, 5),
                     "grabk_const": (MIDDLE, 15, 5),
                     "grabk_adaptive": (MIDDLE, 15, 5)},
            x_star=False, quiet_trace=False, cli_iters=300,
        ),
        Regime(
            name="blur-cli",
            library={"grk": (SMALLER, 1, 10), "grbk": (SMALL, 10, 16),
                     "grabk_const": (SMALL, 10, 16),
                     "grabk_adaptive": (SMALL, 10, 16)},
            x_star=True, quiet_trace=False, cli_iters=250,
        ),
    )
}


@dataclass
class Outcome:
    """What one operation produced, as the benchmark checked it."""

    cpu: float  # CPU seconds of this process
    wall: float  # wall-clock seconds
    error: float  # final squared relative error, or relative residual
    fingerprint: str  # identical on every pass for a fixed seed
    iterations: int | None = None
    seconds: float | None = None  # cpu at the reference speed
    psnr_db: float | None = None
    problems: list = field(default_factory=list)


@dataclass
class Op:
    """One operation of a pass: a metric key and the call that runs it."""

    key: str  # a method name, "deblur" or "cli_solve"
    run: object  # (tracer or None) -> Outcome


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _instance(shape, seed, x_star):
    m, p, r1, q, n, r2 = shape
    A, B = kaczmat.gen_type1(
        kaczmat.TypeISpec(m=m, p=p, r1=r1, q=q, n=n, r2=r2, seed=seed))
    problem = kaczmat.make_problem(A, B, seed=seed + 1)
    if not x_star:
        problem = kaczmat.Problem(A=problem.A, B=problem.B, C=problem.C)
    return problem


def _checked_error(problem, X):
    """Recompute the stopping quantity from the returned iterate."""
    if problem.X_star is not None:
        return kaczmat.relative_error(X, problem.X_star)
    resid = np.linalg.norm(problem.C - (problem.A @ X) @ problem.B, "fro")
    return float(resid / np.linalg.norm(problem.C, "fro"))


def _clocks():
    return time.process_time(), time.perf_counter()


_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.random((120, 120))
_CAL_VALUES = _CAL_RNG.random(10_000).tolist()


def calibration_seconds():
    """CPU seconds of a fixed kernel that shares no code with kaczmat:
    small BLAS products and an interpreter loop, the two kinds of work the
    solvers mix. It runs twice, so it sees both a cold and a warm cache."""
    t0 = time.process_time()
    for _ in range(2):
        for _ in range(15):
            _CAL_MATRIX @ _CAL_MATRIX
        total = 0.0
        for value in _CAL_VALUES:
            total += value * value
    return time.process_time() - t0


def at_reference_speed(measure):
    """Run ``measure()`` between two calibrations; return its result and the
    factor that scales its CPU time to the reference speed."""
    before = calibration_seconds()
    result = measure()
    after = calibration_seconds()
    return result, 2.0 * CALIBRATION_REF_S / (before + after)


def _library_op(method, problem, config):
    def run(tracer):
        c0, t0 = _clocks()
        if tracer is None:
            report = kaczmat.solve(problem, config)
        else:
            with tracer.span("solvers.solve"):
                report = kaczmat.solve(problem, config)
            tracer.add(f"iterations.{method}", report.iterations)
        c1, t1 = _clocks()
        error = _checked_error(problem, report.X)
        out = Outcome(cpu=c1 - c0, wall=t1 - t0, error=error,
                      iterations=report.iterations,
                      fingerprint=f"{report.iterations}:"
                                  f"{_digest(report.X.tobytes())}")
        if report.termination != "tolerance":
            out.problems.append(f"termination {report.termination!r}")
        if not error < config.re_tolerance:
            out.problems.append(f"recomputed error {error:.3e}")
        return out
    return Op(key=method, run=run)


def _read_trace(path):
    """Trace CSV rows without the wall-clock column, and its last row."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = [row[:3] for row in csv.reader(fh)][1:]
    return rows, rows[-1]


def _final_from_row(row):
    value = row[1] if row[1] else row[2]  # relative error, else residual
    return float(value)


def _run_cli(argv, tracer):
    sink = io.StringIO()
    c0, t0 = _clocks()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    c1, t1 = _clocks()
    return code, (c1 - c0, t1 - t0), sink.getvalue()


def _expect_budget(out, code, row, budget, text):
    if code != 2:
        out.problems.append(f"exit code {code}: {text.strip()[-200:]}")
    if not math.isfinite(out.error):
        out.problems.append(f"final error {out.error!r} is not finite")
    if int(row[0]) != budget:
        out.problems.append(f"trace ends at iteration {row[0]}, not {budget}")


def _deblur_op(image_path, original, out_dir, iters, flags):
    argv = ["deblur", image_path, "--method", "grbk", "--max-iters",
            str(iters), "--out", out_dir, *flags]

    def run(tracer):
        code, (cpu, wall), text = _run_cli(argv, tracer)
        restored_path = os.path.join(out_dir, "restored.pgm")
        rows, last = _read_trace(os.path.join(out_dir, "trace.csv"))
        restored = kaczmat.read_pgm(restored_path)
        blurred = kaczmat.read_pgm(os.path.join(out_dir, "blurred.pgm"))
        gain_floor = kaczmat.psnr(original, blurred) + 3.0
        score = kaczmat.psnr(original, restored)
        with open(restored_path, "rb") as fh:
            fingerprint = _digest(fh.read(), repr(rows).encode())
        out = Outcome(cpu=cpu, wall=wall, error=_final_from_row(last),
                      psnr_db=score, fingerprint=fingerprint)
        _expect_budget(out, code, last, iters, text)
        if not score >= gain_floor:
            out.problems.append(
                f"restored PSNR {score:.2f} dB is below blurred + 3 dB "
                f"({gain_floor:.2f} dB)")
        return out
    return Op(key="deblur", run=run)


def _solve_op(problem_dir, trace_path, iters, flags):
    argv = ["solve", problem_dir, "--method", "grbk", "--tau1", str(CLI_TAU),
            "--tau2", str(CLI_TAU), "--max-iters", str(iters),
            "--out", trace_path, *flags]

    def run(tracer):
        code, (cpu, wall), text = _run_cli(argv, tracer)
        rows, last = _read_trace(trace_path)
        out = Outcome(cpu=cpu, wall=wall, error=_final_from_row(last),
                      fingerprint=_digest(repr(rows).encode()))
        _expect_budget(out, code, last, iters, text)
        return out
    return Op(key="cli_solve", run=run)


def test_image(seed):
    """The 64x64 test pattern of the deblurring acceptance check (8-pixel
    diagonal bands); the seed sets its two gray levels.

    Only the levels vary: shifting the pattern's phase moves the error after
    a fixed budget by a factor of 50, which would swamp any change to the
    code.
    """
    rng = np.random.default_rng(seed)
    high, low = int(rng.integers(210, 231)), int(rng.integers(30, 41))
    bands = np.indices((IMAGE_SIDE, IMAGE_SIDE)).sum(axis=0) // 8 % 2
    return kaczmat.GrayImage(np.where(bands == 0, high, low).astype(float))


class Workload:
    """The inputs and operations one run of a regime needs.

    Building it writes the image and, through ``kaczmat generate --blur``,
    the problem directory under ``workdir``; that is input preparation, not
    set-up time.
    """

    def __init__(self, regime, seed, workdir):
        base = 1000 * seed
        self.ops = []
        self._setups = []
        instances = {}
        for index, (method, (shape, tau, cases)) in enumerate(
                regime.library.items()):
            for case in range(cases):
                instance_seed = base + 100 * case + 10 * (tau > 1)
                key = (shape, instance_seed)
                if key not in instances:
                    instances[key] = _instance(shape, instance_seed,
                                               regime.x_star)
                problem = instances[key]
                # The last grabk_const instance takes uniform block weights,
                # whose stepsize needs gamma_max rather than beta_max.
                uniform = method == "grabk_const" and case == cases - 1
                config = kaczmat.SolverConfig(
                    method=method, tau1=tau, tau2=tau,
                    seed=base + 100 * case + 50 + index,
                    max_iters=10**6,
                    trace_every=10**6 if regime.quiet_trace else 1,
                    weight_scheme="uniform" if uniform else "frobenius")
                self.ops.append(_library_op(method, problem, config))
                if case == 0:
                    self._setups.append((problem, config))

        os.makedirs(workdir, exist_ok=True)
        self.image_path = os.path.join(workdir, "image.pgm")
        kaczmat.write_pgm(test_image(seed), self.image_path)
        self.original = kaczmat.read_pgm(self.image_path)
        self.problem_dir = os.path.join(workdir, "blur-problem")
        code, _, text = _run_cli(
            ["generate", "--blur", "--image", self.image_path,
             "--out", self.problem_dir], None)
        if code != 0:
            raise RuntimeError(f"kaczmat generate --blur failed: {text}")
        if not regime.x_star:
            os.remove(os.path.join(self.problem_dir, "X_star.mtx"))

        iters = regime.cli_iters
        cli_seed = base + 99
        flags = ["--seed", str(cli_seed)]
        if regime.quiet_trace:
            flags += ["--trace-every", str(iters)]
        deblur = _deblur_op(self.image_path, self.original,
                            os.path.join(workdir, "deblur-out"), iters, flags)
        cli_solve = _solve_op(self.problem_dir,
                              os.path.join(workdir, "solve-trace.csv"),
                              iters, flags)
        self.ops += [deblur, cli_solve] * CLI_REPEATS
        self._cli_config = kaczmat.SolverConfig(
            method="grbk", tau1=CLI_TAU, tau2=CLI_TAU, max_iters=iters,
            seed=cli_seed, trace_every=iters if regime.quiet_trace else 1)

    def warm_up(self):
        """Run every operation briefly so first-call costs stay out of the
        timed passes."""
        for problem, config in self._setups:
            kaczmat.solve(problem, kaczmat.SolverConfig(
                method=config.method, tau1=config.tau1, tau2=config.tau2,
                seed=config.seed, max_iters=20))
        workdir = os.path.dirname(self.image_path)
        _run_cli(["deblur", self.image_path, "--max-iters", "5",
                  "--out", os.path.join(workdir, "warm-up")], None)
        _run_cli(["solve", self.problem_dir, "--tau1", str(CLI_TAU),
                  "--tau2", str(CLI_TAU), "--max-iters", "5"], None)

    def setup_seconds(self):
        """One set-up sample: ``prepare_state`` of each library method, plus
        the problem build (deblur) and load (solve) of the two commands with
        their ``prepare_state``, in CPU seconds."""
        total = 0.0
        for problem, config in self._setups:
            t0 = time.process_time()
            kaczmat.prepare_state(problem, config)
            total += time.process_time() - t0
        t0 = time.process_time()
        image = kaczmat.read_pgm(self.image_path)
        built = kaczmat.blur_problem(
            image, kaczmat.BlurSpec(n=image.height, r=3, sigma=7.0))
        kaczmat.prepare_state(built, self._cli_config)
        loaded = cli.load_problem_dir(self.problem_dir)
        kaczmat.prepare_state(loaded, self._cli_config)
        return total + time.process_time() - t0

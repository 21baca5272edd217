"""Command-line front end: generate problems, solve them, run benchmark
sweeps, and deblur images.

Subcommands write machine-readable artifacts (Matrix Market matrices, JSON
manifests, CSV traces) that regenerate byte-identically from the same seed,
wall-clock columns aside. Exit status: 0 converged, 2 iteration or time
budget exhausted, 3 diverged, 1 error.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from itertools import chain

import numpy as np

from .images import GrayImage, read_pgm, write_pgm
from .mmio import load_matrix_market, write_matrix_market
from .problems import (
    BlurSpec,
    TypeISpec,
    blur_problem,
    gen_type1,
    gen_type2,
    make_problem,
    min_norm_solution,
    psnr,
)
from .sampling import RNG_ALGORITHM, check_count
from .solvers import (
    GRABK_ADAPTIVE,
    GRABK_CONST,
    GRBK,
    GRK,
    Problem,
    SolverConfig,
    solve,
)

CLI_METHODS = {
    "grk": GRK,
    "grbk": GRBK,
    "grabk-c": GRABK_CONST,
    "grabk-a": GRABK_ADAPTIVE,
}
# methods whose stepsize flag means anything
ETA_METHODS = ("grabk-c", "grabk-a")
MAX_ETA_POINTS = 1000  # the most stepsizes one --eta-grid sweeps

TRACE_HEADER = ("iteration", "relative_error", "relative_residual",
                "elapsed_seconds")
BENCH_HEADER = ("method", "eta", "tau1", "tau2", "repeats", "converged",
                "mean_iterations", "mean_seconds", "mean_final_error")

MATRIX_FILES = {"A": "A.mtx", "B": "B.mtx", "C": "C.mtx", "X_star": "X_star.mtx"}

# exit status of solve and deblur per termination reason; any other is 2
EXIT_CODES = {"tolerance": 0, "diverged": 3}
# generator flags each synthetic problem kind needs
TYPED_FLAGS = {"type1": ("m", "p", "r1", "q", "n", "r2"), "type2": ("m", "p", "q", "n")}


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12e}"
    return str(x)


def _fmt_mean(values):
    return _fmt(float(np.mean(values)) if values else None)


def _csv_file(path):
    """``path`` opened for CSV text, or stdout if None."""
    return (nullcontext(sys.stdout) if path is None
            else open(path, "wt", encoding="ascii", newline=""))


def _write_csv(path, header, rows):
    """Write a header and rows as CSV to ``path``, or to stdout if None."""
    with _csv_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(report, path):
    """Write ``report.trace`` as CSV to ``path``, or to stdout if None: the
    bytes ``_write_csv`` writes for its records (``\\r\\n`` line ends, no
    field quoted), formatted from the columns in one block."""
    trace = report.trace
    columns, specs = [trace.iteration], ["%d"]
    for column in (trace.relative_error, trace.relative_residual, trace.elapsed):
        floats = None not in column  # else each entry as _fmt gives it, "" for None
        columns.append(column if floats else list(map(_fmt, column)))
        specs.append("%.12e" if floats else "%s")
    rows = (",".join(specs) + "\r\n") * len(trace.iteration)
    with _csv_file(path) as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n" + rows % tuple(chain.from_iterable(zip(*columns))))


def _final_error(report):
    if report.final_relative_error is not None:
        return report.final_relative_error
    return report.final_relative_residual


def _elapsed(report):
    return report.trace.elapsed[-1] if report.trace.elapsed else 0.0


def _finish(args, report, **fields):
    """Print the run's summary line; return its exit status."""
    extra = "".join(f" {key}={value}" for key, value in fields.items())
    print(f"method={args.method} iterations={report.iterations} "
          f"termination={report.termination}{extra} "
          f"elapsed={_elapsed(report):.3f}s")
    return EXIT_CODES.get(report.termination, 2)


def _psnr_line(label, original, image):
    db = psnr(original, image)
    return f"PSNR {label + ':':<9} " + (
        f"{db:.2f} dB" if math.isfinite(db) else "inf (identical)")


def _config_from_args(args, method, default_tau=1, **overrides):
    """The SolverConfig the solver flags describe; ``overrides`` win."""
    settings = dict(
        tau1=default_tau if args.tau1 is None else args.tau1,
        tau2=default_tau if args.tau2 is None else args.tau2,
        eta=args.eta,
        weight_scheme=args.weights,
        max_iters=args.max_iters,
        re_tolerance=args.tol,
        seed=args.seed,
        trace_every=args.trace_every,
        unsafe_stepsize=args.unsafe_stepsize,
        max_seconds=args.max_seconds,
    )
    return SolverConfig(method=CLI_METHODS[method], **{**settings, **overrides})


def _write_problem_dir(problem, out_dir, manifest_extra):
    os.makedirs(out_dir, exist_ok=True)
    files = {key: name for key, name in MATRIX_FILES.items()
             if getattr(problem, key) is not None}
    for key, name in files.items():
        write_matrix_market(getattr(problem, key), os.path.join(out_dir, name))
    manifest = {"rng": RNG_ALGORITHM, "files": files, **manifest_extra}
    with open(os.path.join(out_dir, "manifest.json"), "wt",
              encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem_dir(path):
    """Rebuild a Problem from a generated directory (A/B/C plus optional
    reference solution); ``Problem`` validates what it reads."""
    paths = {key: os.path.join(path, name) for key, name in MATRIX_FILES.items()}
    for key in ("A", "B", "C"):
        if not os.path.exists(paths[key]):
            raise FileNotFoundError(f"{path} does not contain {MATRIX_FILES[key]}")
    return Problem(**{key: load_matrix_market(p) for key, p in paths.items()
                      if os.path.exists(p)},
                   name=os.path.basename(os.path.normpath(path)))


def _typed_problem(args):
    """The type-1 or type-2 problem that the generator flags describe, plus
    its manifest entries."""
    if args.type1 == args.type2:
        raise ValueError("pick exactly one of --type1, --type2")
    kind = "type1" if args.type1 else "type2"
    dims = {}
    for flag in TYPED_FLAGS[kind]:
        if getattr(args, flag) is None:
            raise ValueError(f"--{kind} needs --{flag}")
        dims[flag] = getattr(args, flag)
    if kind == "type1":
        A, B = gen_type1(TypeISpec(**dims, seed=args.seed))
        label = "type1-{m}x{p}r{r1}-{q}x{n}r{r2}".format(**dims)
    else:
        A, B = gen_type2(**dims, seed=args.seed)
        label = "type2-{m}x{p}-{q}x{n}".format(**dims)
    problem = make_problem(A, B, seed=args.seed + 1, name=label)
    return problem, {"kind": kind, "seed": args.seed, "x_seed": args.seed + 1, **dims}


def cmd_generate(args):
    kinds = [k for k in ("type1", "type2", "blur") if getattr(args, k)]
    if len(kinds) != 1:
        raise ValueError("pick exactly one of --type1, --type2, --blur")
    kind = kinds[0]
    if kind != "blur":
        problem, extra = _typed_problem(args)
    else:
        if not args.image:
            raise ValueError("--blur needs --image")
        image = read_pgm(args.image)
        spec = BlurSpec(n=image.height, r=args.r, sigma=args.sigma)
        problem = blur_problem(image, spec)
        extra = {"kind": "blur", "seed": args.seed, "image": args.image,
                 "n": spec.n, "r": spec.r, "sigma": spec.sigma,
                 "max_value": image.max_value}
    _write_problem_dir(problem, args.out, extra)
    print(f"wrote {kind} problem to {args.out}")
    return 0


def cmd_solve(args):
    problem = load_problem_dir(args.problem)
    config = _config_from_args(args, args.method)
    report = solve(problem, config)
    if args.out:
        write_trace_csv(report, args.out)
    return _finish(args, report, final_error=_fmt(_final_error(report)))


def _run_single(task):
    """One benchmark run: ``(iterations, final_error, seconds,
    termination)``, or the exception the run raised."""
    problem, config = task
    try:
        report = solve(problem, config)
    except Exception as exc:  # flag the run, keep sweeping
        return exc
    return (report.iterations, _final_error(report), _elapsed(report),
            report.termination)


def _parse_eta_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--eta-grid wants start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, step, stop))):
        raise ValueError(f"--eta-grid bounds must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"bad --eta-grid range {text!r}")
    spans = (stop - start) / step  # inf where the ratio overflows
    if not spans + 1 <= MAX_ETA_POINTS:
        raise ValueError(f"--eta-grid {text!r} asks for {spans + 1:.3g} stepsizes, "
                         f"more than {MAX_ETA_POINTS}")
    values = [start + k * step for k in range(int(round(spans)) + 1)]
    return [v for v in values if v <= stop + 1e-12]


def cmd_benchmark(args):
    check_count("--repeats", args.repeats, 1)
    check_count("--parallel-repeats", args.parallel_repeats, 1)
    problem, _ = _typed_problem(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in CLI_METHODS:
            raise ValueError(f"unknown method {m!r}")
    etas = _parse_eta_grid(args.eta_grid) if args.eta_grid else None

    # one (method, eta) group per output row, one config per repeat
    groups = []
    for method in methods:
        for eta in (etas if etas and method in ETA_METHODS else [args.eta]):
            groups.append((method, [
                _config_from_args(args, method, eta=eta, seed=args.seed + run)
                for run in range(args.repeats)]))
    tasks = [(problem, config) for _, configs in groups for config in configs]
    if args.parallel_repeats > 1:
        with ProcessPoolExecutor(max_workers=args.parallel_repeats) as pool:
            futures = [pool.submit(_run_single, task) for task in tasks]
            # read each future on its own, so a lost worker's runs are
            # reported as failed runs rather than raised
            results = iter([f.exception() or f.result() for f in futures])
    else:
        results = map(_run_single, tasks)

    rows = []
    had_error = had_unconverged = False
    for method, configs in groups:
        done = []
        for config in configs:
            result = next(results)
            if isinstance(result, BaseException):
                print(f"run failed ({method}, seed {config.seed}): {result}",
                      file=sys.stderr)
            else:
                done.append(result)
        iterations, errors, seconds, stops = zip(*done) if done else ((),) * 4
        converged = stops.count("tolerance")
        had_error = had_error or len(done) < len(configs)
        had_unconverged = had_unconverged or converged < len(done)
        config = configs[0]
        rows.append([
            method,
            _fmt(config.resolved_eta() if method in ETA_METHODS else None),
            config.tau1,
            config.tau2,
            args.repeats,
            converged,
            _fmt_mean(iterations),
            _fmt_mean(seconds),
            _fmt_mean(errors),
        ])

    for path in ([args.out] if args.out else []) + [None]:
        _write_csv(path, BENCH_HEADER, rows)
    if had_error:
        return 1
    if had_unconverged:
        return 2
    return 0


def cmd_deblur(args):
    image = read_pgm(args.image)
    if image.height != image.width:
        raise ValueError(
            f"image must be square, got {image.height}x{image.width}"
        )
    n = image.height
    if args.identity_blur:
        eye = np.eye(n)
        problem = Problem(A=eye, B=eye, C=image.pixels.copy(),
                          X_star=min_norm_solution(eye, eye, image.pixels),
                          name="identity-blur")
    else:
        problem = blur_problem(image, BlurSpec(n=n, r=args.r, sigma=args.sigma))
    config = _config_from_args(args, args.method, default_tau=max(1, n // 2))
    report = solve(problem, config)

    os.makedirs(args.out, exist_ok=True)
    write_pgm(GrayImage(problem.C, image.max_value),
              os.path.join(args.out, "blurred.pgm"))
    write_trace_csv(report, os.path.join(args.out, "trace.csv"))
    print(_psnr_line("blurred", image.pixels, problem.C))
    if report.termination == "diverged":  # no restored image to write or score
        print("PSNR restored: none (diverged)")
    else:
        write_pgm(GrayImage(report.X, image.max_value),
                  os.path.join(args.out, "restored.pgm"))
        print(_psnr_line("restored", image.pixels, report.X))
    return _finish(args, report)


def build_parser():
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    typed = argparse.ArgumentParser(add_help=False, parents=[seed])  # a synthetic type-1 or type-2 instance
    typed.add_argument("--type1", action="store_true",
                       help="rank-controlled factors, singular values in (1,2)")
    typed.add_argument("--type2", action="store_true", help="standard-normal factors")
    for flag in TYPED_FLAGS["type1"]:
        typed.add_argument(f"--{flag}", type=int, default=None)

    blur = argparse.ArgumentParser(add_help=False)
    blur.add_argument("--r", type=int, default=3, help="blur bandwidth")
    blur.add_argument("--sigma", type=float, default=7.0, help="blur width")

    run = argparse.ArgumentParser(add_help=False, parents=[seed])  # one solver run
    run.add_argument("--method", choices=sorted(CLI_METHODS), default="grbk")

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tau1", type=int, default=None,
                        help="row block size (default 1, or side/2 for deblur)")
    solver.add_argument("--tau2", type=int, default=None,
                        help="column block size")
    solver.add_argument("--eta", type=float, default=None,
                        help="stepsize multiplier (default 1.95 constant, 1.0 adaptive)")
    solver.add_argument("--weights", choices=["frobenius", "uniform"],
                        default="frobenius")
    solver.add_argument("--max-iters", type=int, default=50000)
    solver.add_argument("--tol", type=float, default=1e-6,
                        help="squared relative error (or relative residual) cutoff")
    solver.add_argument("--trace-every", type=int, default=1)
    solver.add_argument("--max-seconds", type=float, default=None,
                        help="advisory wall-clock cap on the iteration loop")
    solver.add_argument("--unsafe-stepsize", action="store_true",
                        help="allow eta outside (0, 2); no convergence guarantee")

    ap = argparse.ArgumentParser(
        prog="kaczmat",
        description="Randomized row/column-action solvers for A X B = C",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[typed, blur],
                       help="write a problem directory")
    g.add_argument("--blur", action="store_true", help="image blur system")
    g.add_argument("--image", default=None, help="PGM image for --blur")
    g.add_argument("--out", default="problem", help="output directory")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", parents=[run, solver],
                       help="run one solver on a problem directory")
    s.add_argument("problem", help="directory from 'generate'")
    s.add_argument("--out", default=None, help="trace CSV path")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("benchmark", parents=[typed, solver],
                       help="repeat runs, report mean iterations")
    b.add_argument("--methods", default="grk,grbk,grabk-c,grabk-a",
                   help="comma-separated method list")
    b.add_argument("--repeats", type=int, default=10)
    b.add_argument("--eta-grid", default=None,
                   help="start:step:stop stepsize sweep for the averaged methods")
    b.add_argument("--parallel-repeats", type=int, default=1,
                   help="worker processes for independent runs")
    b.add_argument("--out", default=None, help="summary CSV path")
    b.set_defaults(func=cmd_benchmark)

    d = sub.add_parser("deblur", parents=[blur, run, solver],
                       help="blur an image, restore it, report PSNR")
    d.add_argument("image", help="square PGM image")
    d.add_argument("--identity-blur", action="store_true",
                   help="A = B = I sanity mode")
    d.add_argument("--out", default="deblur-out", help="output directory")
    d.set_defaults(func=cmd_deblur)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

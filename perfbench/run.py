"""kaczmat benchmark: time to tolerance, CLI time and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-kernels --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(``tracing.py``) and the tracing overhead. Metric names, units and directions
come from ``BENCHMARK.json``. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give the environment and every metric with its sample count.

Times are CPU seconds scaled to a reference host speed by a calibration
kernel run around every operation (see ``workloads.py``).

The benchmark imports kaczmat from ``src/`` of the checkout, pins BLAS to
one thread through its own environment, and runs in a single process. It
writes its inputs and outputs under ``.perfbench/`` of the checkout.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREADS = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:  # before numpy is imported, or it has no effect
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, seed):
    import numpy
    import scipy

    import kaczmat

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kaczmat": kaczmat.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown")},
        "blas_threads": {"pinned_to": 1, "set_by": list(THREAD_VARS),
                         "inherited": INHERITED_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def tail(samples):
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(samples)
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def summary(samples, value=None):
    """Median (or the given value) plus the sample count and the tail."""
    if not samples:
        return {"value": None, "n": 0}
    entry = {"value": statistics.median(samples) if value is None else value,
             "n": len(samples)}
    t = tail(samples)
    if t is not None:
        entry[f"p{t[0]:g}"] = t[1]
    return entry


def run_passes(workload, seconds, tracer):
    """Run whole passes over the operations until the time is spent.

    At least two passes run, so every operation is checked against its own
    first result. With a tracer, odd passes are traced. Without one, a
    set-up sample is taken before every operation, so the set-up samples
    spread over the whole run like the operations do. Every time is scaled
    to the reference speed (``workloads.at_reference_speed``).
    """
    from workloads import at_reference_speed

    ops = workload.ops
    reference = [None] * len(ops)
    setup_samples = []
    outcomes = {False: [], True: []}
    pass_seconds = {False: [], True: []}
    problems = []
    start = time.perf_counter()
    done = 0
    while True:
        traced = tracer is not None and done % 2 == 1
        t0 = time.perf_counter()
        with tracer.installed() if traced else nullcontext():
            for index, op in enumerate(ops):
                if tracer is None:
                    cpu, scale = at_reference_speed(workload.setup_seconds)
                    setup_samples.append(cpu * scale)
                try:
                    out, scale = at_reference_speed(
                        partial(op.run, tracer if traced else None))
                    out.seconds = out.cpu * scale
                except Exception as exc:  # count it, keep measuring
                    traceback.print_exc(file=sys.stderr)
                    problems.append((op.key, index, done, f"raised {exc!r}"))
                    continue
                if reference[index] is None:
                    reference[index] = out.fingerprint
                elif out.fingerprint != reference[index]:
                    out.problems.append("result differs from the first pass")
                problems.extend((op.key, index, done, p) for p in out.problems)
                outcomes[traced].append((op, out))
        pass_seconds[traced].append(time.perf_counter() - t0)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= 2 and elapsed * (done + 1) / done > seconds:
            break
    attempted = done * len(ops)
    failed_ops = {(index, n) for _, index, n, _ in problems}
    return (outcomes, setup_samples, pass_seconds, problems, attempted,
            len(failed_ops))


def end_to_end(outcomes, setup_samples):
    from workloads import METHODS

    by_key = defaultdict(list)
    for op, out in outcomes[False]:
        by_key[op.key].append(out)
    result = {"setup_s": summary(setup_samples)}
    for m in METHODS:
        result[f"solve_s.{m}"] = summary([o.seconds for o in by_key[m]])
    for m in METHODS:
        result[f"iters.{m}"] = summary([o.iterations for o in by_key[m]])
    result["cli_s.deblur"] = summary([o.seconds for o in by_key["deblur"]])
    result["cli_s.solve"] = summary([o.seconds for o in by_key["cli_solve"]])
    result["psnr_db"] = summary([o.psnr_db for o in by_key["deblur"]])
    errors = [out.error for _, out in outcomes[False]]
    result["final_error_max"] = summary(errors, max(errors, default=None))
    return result


def per_layer(tracer, outcomes, pass_seconds):
    from workloads import METHODS

    passes = len(pass_seconds[True])
    total = {k: v / passes for k, v in tracer.total.items()}
    self_time = {k: v / passes for k, v in tracer.self_time.items()}
    calls = {k: v / passes for k, v in tracer.calls.items()}
    counters = tracer.counters
    iterations = {m: counters.get(f"iterations.{m}", 0.0) / passes
                  for m in METHODS}
    all_iters = sum(iterations.values())

    def ratio(a, b):
        return a / b if b else 0.0

    r = {}
    r["solvers.residual.s"] = total.get("solvers.residual", 0.0)
    r["solvers.residual.calls"] = calls.get("solvers.residual", 0.0)
    r["solvers.residual.per_iter"] = ratio(r["solvers.residual.calls"],
                                           all_iters)
    r["solvers.driver.self_s"] = self_time.get("solvers.solve", 0.0)
    for m in METHODS:
        per_iter = [1e3 * o.seconds / o.iterations
                    for op, o in outcomes[False] if op.key == m]
        r[f"solvers.ms_per_iter.{m}"] = (statistics.median(per_iter)
                                         if per_iter else 0.0)
    r["matrices.pinv.s"] = total.get("matrices.pinv", 0.0)
    r["matrices.pinv.calls"] = calls.get("matrices.pinv", 0.0)
    r["matrices.pinv.per_iter"] = ratio(r["matrices.pinv.calls"],
                                        iterations["grbk"])
    r["sampling.sample_block.s"] = total.get("sampling.sample_block", 0.0)
    r["sampling.sample_block.calls"] = calls.get("sampling.sample_block", 0.0)
    step_s = {m: self_time.get(f"solvers.step.{m}", 0.0) for m in METHODS}
    for m in METHODS:
        r[f"solvers.step.s.{m}"] = step_s[m]
        r[f"solvers.step.calls.{m}"] = calls.get(f"solvers.step.{m}", 0.0)
    loop = (total.get("solvers.solve", 0.0)
            - total.get("solvers.prepare_state", 0.0))
    r["solvers.step_share"] = ratio(
        sum(step_s.values()) + r["matrices.pinv.s"], loop)
    for name in ("solvers.prepare_state", "rates.beta_max", "rates.gamma_max",
                 "sampling.frobenius_block_probs", "mmio.load_matrix_market"):
        r[f"{name}.s"] = total.get(name, 0.0)
    r["mmio.load_matrix_market.bytes"] = (counters.get("mmio.bytes", 0.0)
                                          / passes)
    for name in ("cli.load_problem_dir", "problems.blur_problem",
                 "images.read_pgm", "images.write_pgm", "cli.write_trace_csv"):
        r[f"{name}.s"] = total.get(name, 0.0)
    r["cli.self_s"] = self_time.get("cli.main", 0.0)
    for m in METHODS:
        steps = calls.get(f"solvers.step.{m}", 0.0)
        flops = counters.get(f"flops.{m}", 0.0) / passes
        r[f"solvers.step.flops_computed.{m}"] = ratio(flops, steps)
        r[f"solvers.step.bytes_computed.{m}"] = ratio(
            counters.get(f"bytes.{m}", 0.0) / passes, steps)
        r[f"solvers.step.gflops.{m}"] = ratio(flops, step_s[m]) / 1e9
    untraced = statistics.median(pass_seconds[False])
    traced = statistics.median(pass_seconds[True])
    r["trace.overhead_frac"] = (traced - untraced) / untraced
    return {name: {"value": value, "n": passes} for name, value in r.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kaczmat" / "__init__.py").is_file():
        _fail(f"no kaczmat sources under {SRC}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import kaczmat

    if Path(kaczmat.__file__).resolve().parent != (SRC / "kaczmat").resolve():
        _fail(f"imported kaczmat from {kaczmat.__file__}, not from {SRC}")
    from tracing import Tracer
    from workloads import REGIMES, Workload

    if args.workload not in REGIMES:
        _fail(f"unknown workload {args.workload!r}; pick one of "
              f"{', '.join(REGIMES)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    env = environment(args.workload, args.seed)
    try:
        workload = Workload(REGIMES[args.workload], args.seed, str(workdir))
        workload.warm_up()
        tracer = Tracer() if args.trace else None
        (outcomes, setup_samples, pass_seconds, problems, attempted,
         failed) = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = per_layer(tracer, outcomes, pass_seconds)
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.npz")
    else:
        metrics = end_to_end(outcomes, setup_samples)
    if set(metrics) != names:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ names)}")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why.get(args.workload, '')}")
    print(f"passes untraced={len(pass_seconds[False])} "
          f"traced={len(pass_seconds[True])} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.4f}")
    if args.trace:
        print(f"absent hooks: {len(tracer.absent)} "
              f"{' '.join(tracer.absent)}".rstrip())
    for key, _, n, problem in problems:
        print(f"FAILED {key} (pass {n}): {problem}")
    for m in declared:
        entry = metrics[m["name"]]
        extra = " ".join(f"{k}={v:.6g}" for k, v in entry.items()
                         if k.startswith("p"))
        print(f"metric {m['name']} = {entry['value']!r} {m['unit']} "
              f"({m['better']} is better, n={entry['n']}) {extra}".rstrip())

    index = {id(op): i for i, op in enumerate(workload.ops)}
    samples = [[op.key, index[id(op)], traced, out.seconds, out.cpu,
                out.wall, out.iterations]
               for traced in (False, True) for op, out in outcomes[traced]]
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"environment": env, "attempted": attempted, "failed": failed,
         "pass_seconds": pass_seconds, "setup_samples": setup_samples,
         "metrics": metrics,
         "samples": samples}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

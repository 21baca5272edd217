"""Check the output of a traced benchmark run.

Usage: python3 perfbench/run.py --workload W --trace 1 ... > traced.out
       python3 .github/check_traced.py W < traced.out

The run must report no absent tracer hooks and no failed operation, every
required span must have fired, ``solve`` must draw the block pairs of a
chunk of steps with one ``sample_block`` call, and on ``residual-default``
the kept residual must stand in for the full one: fewer than 0.01 full
residuals per step. Prints the values it checks; exits nonzero, naming what
failed, if any check fails.
"""

import json
import sys

METHODS = ("grk", "grbk", "grabk_const", "grabk_adaptive")
STEP_CALLS = [f"solvers.step.calls.{method}" for method in METHODS]
# spans whose numbers must be above 0: the steps, the set-up layers, the
# draws, the full residual and the data layer (the readers, writer and
# problem builder of the commands)
REQUIRED = STEP_CALLS + [
    "rates.beta_max.s", "rates.gamma_max.s", "sampling.frobenius_block_probs.s",
    "sampling.sample_block.calls", "solvers.residual.calls"] + [
    f"{name}.s" for name in ("mmio.load_matrix_market", "images.read_pgm",
                             "images.write_pgm", "cli.load_problem_dir",
                             "problems.blur_problem")]
MAX_RESIDUALS_PER_STEP = 0.01  # on residual-default


def problems(workload, text):
    """What fails in the traced run's output ``text`` of ``workload``."""
    lines = text.splitlines()
    found = []
    if "absent hooks: 0" not in lines:
        found.append("a tracer hook is missing")
    run = json.loads(lines[-1])
    print("failed:", run["failed"])
    if run["failed"] != 0:
        found.append(f"{run['failed']} failed operations")
    metrics = run["metrics"]
    idle = []
    for name in REQUIRED:
        value = metrics[name]["value"]
        print(f"{name}:", value)
        if not value > 0:
            idle.append(name)
    if idle:
        found.append(f"hooks that never fired: {idle}")
    steps = sum(metrics[name]["value"] for name in STEP_CALLS)
    if not metrics["sampling.sample_block.calls"]["value"] < steps:
        found.append(f"no fewer sample_block calls than the {steps} steps")
    per_iter = metrics["solvers.residual.per_iter"]["value"]
    print("solvers.residual.per_iter:", per_iter)
    if workload == "residual-default" and not per_iter < MAX_RESIDUALS_PER_STEP:
        found.append(f"{per_iter} full residuals per step: the kept residual fell back")
    return found


def main(argv):
    found = problems(argv[1], sys.stdin.read())
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

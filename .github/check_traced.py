"""Check the output of a traced benchmark run.

Usage: python3 perfbench/run.py --workload W --trace 1 ... > traced.out
       python3 .github/check_traced.py W < traced.out

The run must end with its JSON result line (its last line) and report no
absent tracer hooks and no failed operation, every
required span must have fired, ``solve`` must draw the block pairs of a
chunk of steps with one ``sample_block`` call, GRK must run its steps in
chunks: fewer than 64 ``grk_step`` calls per draw of 1024 steps, and on
``residual-default`` the kept residual must stand in for the exact one:
fewer than 0.01 exact residuals per step. Prints the values it checks;
exits nonzero, naming what failed, if any check fails.
"""

import json
import sys

METHODS = ("grk", "grbk", "grabk_const", "grabk_adaptive")
STEP_CALLS = [f"solvers.step.calls.{method}" for method in METHODS]
# spans whose numbers must be above 0: the steps, the set-up layers (GRBK's
# block factors among them), the draws, the exact residual and the data
# layer (the readers, writer and problem builder of the commands)
REQUIRED = STEP_CALLS + [
    "rates.beta_max.s", "rates.gamma_max.s", "sampling.frobenius_block_probs.s",
    "matrices.pinv.s", "sampling.sample_block.calls", "solvers.residual.calls"] + [
    f"{name}.s" for name in ("mmio.load_matrix_market", "images.read_pgm",
                             "images.write_pgm", "cli.load_problem_dir",
                             "problems.blur_problem")]
MAX_RESIDUALS_PER_STEP = 0.01  # exact residuals per step, on residual-default
# a draw covers 1024 steps; one grk_step call a step makes 1024 calls per
# draw, chunks of up to 64 steps at least 16 (about 12 on the workloads)
MAX_GRK_CALLS_PER_DRAW = 64


def problems(workload, text):
    """What fails in the traced run's output ``text`` of ``workload``."""
    lines = text.splitlines()
    found = []
    if "absent hooks: 0" not in lines:
        found.append("a tracer hook is missing")
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):  # no output, or a last line not JSON
        return found + ["no result line"]
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
    draws = metrics["sampling.sample_block.calls"]["value"]
    if not draws < steps:
        found.append(f"no fewer sample_block calls than the {steps} steps")
    grk_calls = metrics["solvers.step.calls.grk"]["value"]
    print("grk_step calls per draw:", grk_calls / draws if draws else None)
    if not grk_calls < MAX_GRK_CALLS_PER_DRAW * draws:
        found.append(f"{grk_calls} grk_step calls for {draws} draws: GRK ran one step a call")
    per_iter = metrics["solvers.residual.per_iter"]["value"]
    print("solvers.residual.per_iter:", per_iter)
    if workload == "residual-default" and not per_iter < MAX_RESIDUALS_PER_STEP:
        found.append(f"{per_iter} exact residuals per step: the kept residual fell back")
    return found


def main(argv):
    found = problems(argv[1], sys.stdin.read())
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

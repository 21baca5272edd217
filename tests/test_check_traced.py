"""The CI check of a traced benchmark run, .github/check_traced.py."""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / ".github" / "check_traced.py"
_SPEC = importlib.util.spec_from_file_location("check_traced", _PATH)
check_traced = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_traced)


def _output(absent=0, failed=0, values=None):
    """A traced run's output: a log line, the absent hooks line and the
    metrics line, every metric at 1 unless ``values`` names it, with 40
    steps, 2 draws and 0.004 full residuals per step."""
    metrics = {name: 1.0 for name in check_traced.REQUIRED}
    metrics.update({name: 10.0 for name in check_traced.STEP_CALLS})
    metrics.update({"sampling.sample_block.calls": 2.0, "solvers.residual.per_iter": 0.004})
    metrics.update(values or {})
    line = {"failed": failed, "metrics": {name: {"value": value} for name, value
                                          in metrics.items()}}
    return f"pass 1 done\nabsent hooks: {absent}\n{json.dumps(line)}\n"


@pytest.mark.parametrize("workload", ["residual-default", "dense-kernels", "blur-cli"])
def test_a_passing_run_passes(workload, monkeypatch, capsys):
    assert check_traced.problems(workload, _output()) == []
    monkeypatch.setattr(sys, "stdin", io.StringIO(_output()))
    assert check_traced.main(["check_traced.py", workload]) == 0
    assert "solvers.residual.per_iter: 0.004" in capsys.readouterr().out


FAILING = {
    "absent hook": (_output(absent=1), "a tracer hook is missing"),
    "failed operation": (_output(failed=1), "1 failed operations"),
    "idle span": (_output(values={"images.read_pgm.s": 0.0}),
                  "hooks that never fired: ['images.read_pgm.s']"),
    "idle step": (_output(values={"solvers.step.calls.grk": 0.0}),
                  "hooks that never fired: ['solvers.step.calls.grk']"),
    "a draw per step": (_output(values={"sampling.sample_block.calls": 40.0}),
                        "no fewer sample_block calls than the 40.0 steps"),
    "full residuals": (_output(values={"solvers.residual.per_iter": 0.01}),
                       "0.01 full residuals per step: the kept residual fell back"),
}


@pytest.mark.parametrize("rule", FAILING)
def test_each_rule_fails_its_run(rule, monkeypatch, capsys):
    text, message = FAILING[rule]
    assert check_traced.problems("residual-default", text) == [message]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert check_traced.main(["check_traced.py", "residual-default"]) == 1
    assert message in capsys.readouterr().err


def test_full_residuals_pass_outside_residual_default():
    # only residual-default runs without X_star, where every step reads the
    # residual
    text = _output(values={"solvers.residual.per_iter": 0.5})
    assert check_traced.problems("dense-kernels", text) == []

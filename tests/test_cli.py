"""Command-line interface: generate, solve, benchmark, deblur."""

import csv
import json
import filecmp

import numpy as np
import pytest
import scipy.sparse as sp

from kaczmat import cli, solvers
from kaczmat.cli import (
    BENCH_HEADER,
    TRACE_HEADER,
    _config_from_args,
    build_parser,
    load_problem_dir,
    main,
)
from kaczmat.images import GrayImage, read_pgm, write_pgm
from kaczmat.mmio import write_matrix_market
from kaczmat.problems import TypeISpec, gen_type1, make_problem
from kaczmat.solvers import Problem, SolverConfig, solve

from oracles import write_trace_csv_oracle


def run(*argv):
    return main(list(argv))


def gen_args(out, seed=0):
    return [
        "generate", "--type1",
        "--m", "12", "--p", "6", "--r1", "6", "--q", "6", "--n", "12", "--r2", "6",
        "--seed", str(seed), "--out", str(out),
    ]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_pgm(tmp_path, side=12, seed=0, name="img.pgm"):
    rng = np.random.default_rng(seed)
    img = GrayImage(np.floor(rng.uniform(30, 220, size=(side, side))))
    path = tmp_path / name
    write_pgm(img, path)
    return path


# ---------------------------------------------------------------- generate


def test_generate_writes_problem_dir(tmp_path, capsys):
    out = tmp_path / "prob"
    assert run(*gen_args(out)) == 0
    for name in ("A.mtx", "B.mtx", "C.mtx", "X_star.mtx", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "type1"
    assert manifest["seed"] == 0 and manifest["x_seed"] == 1
    assert manifest["m"] == 12 and manifest["r1"] == 6
    prob = load_problem_dir(str(out))
    assert prob.shape == (12, 6, 6, 12)
    resid = np.linalg.norm(prob.A @ prob.X_star @ prob.B - prob.C)
    assert resid <= 1e-8 * np.linalg.norm(prob.C)
    assert "wrote type1 problem" in capsys.readouterr().out


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*gen_args(a, seed=7)) == 0
    assert run(*gen_args(b, seed=7)) == 0
    for name in ("A.mtx", "B.mtx", "C.mtx", "X_star.mtx", "manifest.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_generate_type2(tmp_path):
    out = tmp_path / "p2"
    code = run("generate", "--type2", "--m", "10", "--p", "5", "--q", "5",
               "--n", "10", "--seed", "3", "--out", str(out))
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["kind"] == "type2"


def test_generate_blur(tmp_path):
    img = make_pgm(tmp_path, side=10)
    out = tmp_path / "pb"
    code = run("generate", "--blur", "--image", str(img), "--r", "2",
               "--sigma", "3.0", "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "blur" and manifest["n"] == 10
    assert manifest["max_value"] == 255.0
    prob = load_problem_dir(str(out))
    assert prob.shape == (10, 10, 10, 10)


def test_generate_blur_writes_sparse_factors_as_coordinates(tmp_path):
    # a 64x64 blur's A and B are about 11% nonzero, C and X_star dense
    img = make_pgm(tmp_path, side=64)
    out = tmp_path / "pb"
    assert run("generate", "--blur", "--image", str(img), "--out", str(out)) == 0
    for name, fmt in [("A.mtx", "coordinate"), ("B.mtx", "coordinate"),
                      ("C.mtx", "array"), ("X_star.mtx", "array")]:
        with open(out / name) as fh:
            assert fh.readline() == f"%%MatrixMarket matrix {fmt} real general\n", name


def test_coordinate_problem_dir_loads_and_solves_as_its_array_twin(tmp_path):
    # a directory written before dense matrices were stored as arrays holds
    # C and X_star as coordinates; it must load and solve as the new form
    new, old = tmp_path / "new", tmp_path / "old"
    assert run("generate", "--blur", "--image", str(make_pgm(tmp_path, side=16)),
               "--r", "1", "--out", str(new)) == 0
    old.mkdir()
    for name in ("A.mtx", "B.mtx", "manifest.json"):
        (old / name).write_bytes((new / name).read_bytes())
    prob = load_problem_dir(str(new))
    for key in ("C", "X_star"):
        write_matrix_market(sp.csr_array(getattr(prob, key)), old / cli.MATRIX_FILES[key])
    for name in ("C.mtx", "X_star.mtx"):
        assert (new / name).read_text().split("\n")[0].split()[2] == "array"
        assert (old / name).read_text().split("\n")[0].split()[2] == "coordinate"
    twin = load_problem_dir(str(old))
    for key in ("A", "B", "C", "X_star"):
        a, b = getattr(prob, key), getattr(twin, key)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    rows = {}
    for label, path in (("new", new), ("old", old)):
        trace = tmp_path / f"{label}.csv"
        assert run("solve", str(path), "--method", "grbk", "--tau1", "4", "--tau2", "4",
                   "--seed", "3", "--max-iters", "60", "--out", str(trace)) == 2
        rows[label] = [row[:3] for row in read_csv(trace)]  # without elapsed_seconds
    assert len(rows["new"]) == 61 and rows["new"] == rows["old"]


def test_generate_rejects_bad_rank(tmp_path, capsys):
    code = run("generate", "--type1", "--m", "4", "--p", "3", "--r1", "9",
               "--q", "3", "--n", "4", "--r2", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_generate_requires_exactly_one_kind(tmp_path, capsys):
    assert run("generate", "--out", str(tmp_path / "x")) == 1
    assert run("generate", "--type1", "--type2", "--out", str(tmp_path / "x")) == 1
    assert run("generate", "--blur", "--out", str(tmp_path / "x")) == 1  # no --image


def test_generate_type1_needs_every_dimension(tmp_path, capsys):
    args = gen_args(tmp_path / "x")
    del args[args.index("--r2"):args.index("--r2") + 2]
    assert run(*args) == 1
    assert "--type1 needs --r2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------- solve


def test_solve_full_block_single_trace_row(tmp_path, capsys):
    out = tmp_path / "prob"
    run(*gen_args(out))
    trace = tmp_path / "trace.csv"
    code = run("solve", str(out), "--method", "grbk", "--tau1", "12",
               "--tau2", "12", "--out", str(trace))
    assert code == 0
    rows = read_csv(trace)
    assert rows[0] == list(TRACE_HEADER)
    assert len(rows) == 2  # header + the single post-step record
    assert rows[1][0] == "1"
    assert float(rows[1][1]) < 1e-6
    summary = capsys.readouterr().out
    assert "termination=tolerance" in summary and "iterations=1" in summary


def test_solve_exit_two_when_budget_exhausted(tmp_path, capsys):
    out = tmp_path / "prob"
    run(*gen_args(out))
    code = run("solve", str(out), "--method", "grk", "--max-iters", "3")
    assert code == 2
    assert "termination=max_iters" in capsys.readouterr().out


def test_solve_exit_three_when_diverged(tmp_path, capsys):
    # eta = 6 is far past the stable interval (0, 2): the run must stop as
    # diverged well before its budget, not run on to max_iters
    out = tmp_path / "prob"
    run(*gen_args(out))
    trace = tmp_path / "trace.csv"
    code = run("solve", str(out), "--method", "grabk-c", "--eta", "6",
               "--unsafe-stepsize", "--tau1", "3", "--tau2", "3",
               "--max-iters", "20000", "--out", str(trace))
    assert code == 3
    assert "termination=diverged" in capsys.readouterr().out
    last = read_csv(trace)[-1]
    assert int(last[0]) < 20000
    assert not np.isfinite(float(last[1]))
    # a non-finite value keeps its sign in the CSV
    assert cli._fmt(-np.inf) == "-inf"


def test_deblur_exit_three_when_diverged(tmp_path, capsys):
    img = make_pgm(tmp_path, side=12)
    out = tmp_path / "db"
    code = run("deblur", str(img), "--method", "grabk-c", "--eta", "6",
               "--unsafe-stepsize", "--max-iters", "20000", "--out", str(out))
    assert code == 3
    text = capsys.readouterr().out
    assert "PSNR restored: none (diverged)" in text
    assert "termination=diverged" in text
    assert (out / "blurred.pgm").exists() and (out / "trace.csv").exists()
    assert not (out / "restored.pgm").exists()


def test_solve_adaptive_converges(tmp_path, capsys):
    out = tmp_path / "prob"
    run(*gen_args(out))
    code = run("solve", str(out), "--method", "grabk-a", "--tau1", "4",
               "--tau2", "4", "--seed", "2", "--max-iters", "20000")
    assert code == 0
    assert "method=grabk-a" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--tau1", "--tau2"])
def test_solve_rejects_zero_block_size(tmp_path, capsys, flag):
    out = tmp_path / "prob"
    run(*gen_args(out))
    code = run("solve", str(out), "--method", "grbk", flag, "0",
               "--max-iters", "50")
    assert code == 1
    assert f"{flag[2:]} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--method", "grabk-c", "--eta", "nan"),
    ("--tol", "nan"),
    ("--max-seconds", "nan"),
])
def test_solve_rejects_non_finite_settings(tmp_path, capsys, flags):
    out = tmp_path / "prob"
    run(*gen_args(out))
    assert run("solve", str(out), *flags, "--max-iters", "50") == 1
    assert "must be finite" in capsys.readouterr().err


def test_solve_unsafe_eta_names_the_flag(tmp_path, capsys):
    out = tmp_path / "prob"
    run(*gen_args(out))
    code = run("solve", str(out), "--method", "grabk-c", "--eta", "2.5")
    assert code == 1
    err = capsys.readouterr().err
    assert "eta=2.5 is outside (0, 2)" in err and "--unsafe-stepsize" in err


def test_solve_without_reference_reports_final_residual(tmp_path, capsys):
    # no X_star.mtx: the summary's final_error is the last record's residual
    out = tmp_path / "prob"
    run(*gen_args(out))
    (out / "X_star.mtx").unlink()
    trace = tmp_path / "trace.csv"
    code = run("solve", str(out), "--method", "grbk", "--tau1", "3",
               "--tau2", "3", "--max-iters", "40", "--out", str(trace))
    assert code == 2
    last = read_csv(trace)[-1]
    assert last[0] == "40" and last[1] == "" and float(last[2]) > 0.0
    assert f" final_error={last[2]} " in capsys.readouterr().out


def test_solve_missing_directory(tmp_path, capsys):
    assert run("solve", str(tmp_path / "nope")) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_trace_matches_library(tmp_path):
    out = tmp_path / "prob"
    run(*gen_args(out, seed=11))
    trace = tmp_path / "t.csv"
    assert run("solve", str(out), "--method", "grbk", "--tau1", "3",
               "--tau2", "3", "--seed", "5", "--out", str(trace)) == 0
    rows = read_csv(trace)
    prob = load_problem_dir(str(out))
    report = solve(prob, SolverConfig(method="grbk", tau1=3, tau2=3, seed=5))
    assert len(rows) - 1 == len(report.records)
    assert int(rows[-1][0]) == report.iterations
    assert float(rows[-1][1]) == pytest.approx(report.final_relative_error, rel=1e-12)


TRACE_CASES = {  # (X_star given, termination, SolverConfig settings)
    "x_star": (True, "tolerance", dict(method="grk")),
    "residual": (False, "tolerance", dict(method="grbk", tau1=5, tau2=5)),
    "every-7": (True, "tolerance", dict(method="grk", trace_every=7)),
    "no-steps": (True, "max_iters", dict(method="grk", max_iters=0)),
    "diverged": (True, "diverged", dict(method="grabk_const", tau1=10, tau2=10, eta=20.0,
                                        unsafe_stepsize=True)),
}


@pytest.mark.parametrize("case", TRACE_CASES)
def test_trace_csv_is_the_bytes_of_csv_writer_over_records(tmp_path, case, capsys):
    # write_trace_csv formats the trace's columns in one block; its bytes
    # are csv.writer's over the records: \r\n line ends, an empty field
    # for None, %.12e floats (nan and inf when diverged), header only
    # without a step, on a file or on stdout
    x_star, termination, settings = TRACE_CASES[case]
    A, B = gen_type1(TypeISpec(m=30, p=10, r1=10, q=10, n=30, r2=10, seed=21))
    prob = make_problem(A, B, seed=22)
    if not x_star:
        prob = Problem(A=prob.A, B=prob.B, C=prob.C)
    report = solve(prob, SolverConfig(**{"seed": 2, "max_iters": 2000, **settings}))
    assert report.termination == termination
    assert len(report.trace.iteration) == (0 if case == "no-steps" else len(report.records))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    cli.write_trace_csv(report, str(new))
    write_trace_csv_oracle(report, str(old))
    lines = new.read_bytes().splitlines(keepends=True)  # a failure names its first line
    assert lines == old.read_bytes().splitlines(keepends=True)
    capsys.readouterr()
    cli.write_trace_csv(report, None)
    assert capsys.readouterr().out.encode("ascii").splitlines(keepends=True) == lines


def _without_elapsed(path):
    return [row[:3] for row in read_csv(path)]


def test_commands_read_the_trace_columns_not_records(tmp_path, monkeypatch):
    # solve, deblur and benchmark read report.trace: with TraceRecord
    # raising they exit and write their files as without it
    prob, img = tmp_path / "prob", make_pgm(tmp_path)
    assert run(*gen_args(prob, seed=11)) == 0

    def outputs(out):
        out.mkdir()
        codes = [run("solve", str(prob), "--method", "grk", "--trace-every", "7",
                     "--seed", "5", "--out", str(out / "trace.csv")),
                 run("deblur", str(img), "--max-iters", "50", "--out", str(out / "db")),
                 run(*bench_args(("--repeats", "1", "--methods", "grk,grbk")))]
        return codes, (_without_elapsed(out / "trace.csv"), _without_elapsed(out / "db" / "trace.csv"),
                       (out / "db" / "blurred.pgm").read_bytes(),
                       (out / "db" / "restored.pgm").read_bytes())

    expected = outputs(tmp_path / "plain")

    def refuse(*args):
        raise AssertionError("a command built a TraceRecord")

    monkeypatch.setattr(solvers, "TraceRecord", refuse)
    assert outputs(tmp_path / "patched") == expected


# ---------------------------------------------------------------- benchmark


def bench_args(extra=(), seed=4):
    return [
        "benchmark", "--type1",
        "--m", "12", "--p", "6", "--r1", "6", "--q", "6", "--n", "12", "--r2", "6",
        "--seed", str(seed), "--tau1", "3", "--tau2", "3",
        *extra,
    ]


def test_benchmark_single_run_matches_solve(tmp_path, capsys):
    code = run(*bench_args(["--methods", "grbk", "--repeats", "1"]))
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    rows = list(csv.reader(out_lines))
    assert rows[0] == list(BENCH_HEADER)
    assert len(rows) == 2
    row = dict(zip(BENCH_HEADER, rows[1]))
    assert row["method"] == "grbk"
    assert row["eta"] == ""  # projection methods have no stepsize knob
    assert row["converged"] == "1"
    # run seed is benchmark seed + run index = 4
    from kaczmat.cli import _typed_problem  # reuse the instance builder

    class Args:
        type1, type2 = True, False
        m, p, r1, q, n, r2 = 12, 6, 6, 6, 12, 6
        seed = 4

    problem, _ = _typed_problem(Args)
    report = solve(problem, SolverConfig(method="grbk", tau1=3, tau2=3, seed=4))
    assert float(row["mean_iterations"]) == report.iterations


def test_benchmark_eta_grid_rows(tmp_path, capsys):
    code = run(*bench_args([
        "--methods", "grbk,grabk-c", "--repeats", "2",
        "--eta-grid", "0.5:0.5:1.5",
    ]))
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    # grbk ignores the grid (1 row), grabk-c sweeps it (3 rows)
    assert len(rows) == 1 + 1 + 3
    etas = [r[1] for r in rows[2:]]
    assert [float(e) for e in etas] == pytest.approx([0.5, 1.0, 1.5])
    assert all(r[5] == "2" for r in rows[1:])  # every run converged


def test_benchmark_csv_file_output(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(*bench_args(["--methods", "grbk", "--repeats", "2", "--out", str(out)]))
    assert code == 0
    file_rows = read_csv(out)
    stdout_rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert file_rows == stdout_rows


def test_benchmark_parallel_matches_serial(tmp_path, capsys):
    serial_code = run(*bench_args(["--methods", "grbk,grabk-a", "--repeats", "2"]))
    serial = capsys.readouterr().out
    parallel_code = run(*bench_args([
        "--methods", "grbk,grabk-a", "--repeats", "2", "--parallel-repeats", "2",
    ]))
    parallel = capsys.readouterr().out
    assert serial_code == parallel_code == 0
    # means of iterations/errors are deterministic; timing columns are not
    strip = lambda text: [
        [c for i, c in enumerate(row) if BENCH_HEADER[i] != "mean_seconds"]
        for row in csv.reader(text.strip().splitlines())
    ]
    assert strip(serial) == strip(parallel)


def test_benchmark_exit_two_on_unconverged_runs(capsys):
    code = run(*bench_args(["--methods", "grk", "--repeats", "1", "--max-iters", "5"]))
    assert code == 2
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[1][BENCH_HEADER.index("converged")] == "0"


def test_benchmark_rejects_unknown_method(capsys):
    assert run(*bench_args(["--methods", "sor"])) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tau1", "--tau2"])
def test_benchmark_rejects_zero_block_size(capsys, flag):
    code = run(*bench_args(["--methods", "grbk", "--repeats", "1", flag, "0"]))
    assert code == 1
    captured = capsys.readouterr()
    assert f"{flag[2:]} must be at least 1" in captured.err
    assert captured.out == ""  # no CSV rows under a block size that never ran


@pytest.mark.parametrize("mode", [(), ("--parallel-repeats", "2")],
                         ids=["serial", "parallel"])
def test_benchmark_reports_failed_runs(capsys, mode):
    # tau1 = 20 exceeds m = 12, so every block run raises inside solve
    code = run(*bench_args(["--methods", "grbk,grabk-a", "--repeats", "2",
                            "--tau1", "20", *mode]))
    assert code == 1
    captured = capsys.readouterr()
    failed = [line for line in captured.err.splitlines() if line.startswith("run failed")]
    assert failed == [
        f"run failed ({method}, seed {seed}): tau1 must be in [1, 12], got 20"
        for method in ("grbk", "grabk-a") for seed in (4, 5)
    ]
    rows = list(csv.reader(captured.out.strip().splitlines()))
    assert [r[0] for r in rows[1:]] == ["grbk", "grabk-a"]
    for row in rows[1:]:
        row = dict(zip(BENCH_HEADER, row))
        assert row["converged"] == "0"
        assert row["mean_iterations"] == row["mean_seconds"] == row["mean_final_error"] == ""


def test_benchmark_method_flag_prefix_selects_methods(capsys):
    # benchmark has no --method of its own; argparse reads it as --methods
    assert run(*bench_args(["--method", "grk", "--repeats", "1"])) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == list(BENCH_HEADER)
    assert [r[0] for r in rows[1:]] == ["grk"]


def test_benchmark_reports_grk_block_sizes_as_one(capsys):
    # GRK always runs on 1x1 blocks; its row says so rather than echoing
    # the block sizes that the block methods use
    assert run(*bench_args(["--methods", "grk,grbk", "--repeats", "1",
                            "--tau1", "5", "--tau2", "6"])) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    sizes = {row[0]: (row[2], row[3]) for row in rows[1:]}
    assert sizes == {"grk": ("1", "1"), "grbk": ("5", "6")}


def test_benchmark_rejects_both_type_flags(capsys):
    assert run(*bench_args(["--type2", "--repeats", "1"])) == 1
    captured = capsys.readouterr()
    assert "pick exactly one of --type1, --type2" in captured.err
    assert captured.out == ""


def test_benchmark_rejects_bad_eta_grid(capsys):
    # a non-finite bound must not overflow nor yield an empty sweep, and a
    # step too small for the range is refused before the grid is built:
    # 1e-320 overflows the point count, 1e-12 asks for 1.9e12 stepsizes
    for grid in ("1.0:0.5", "2.0:0.5:1.0", "0.5:1:inf", "0.5:inf:1", "0:1e-320:1.9",
                 "0:1e-12:1.9", "0:0.001:1"):
        assert run(*bench_args(["--eta-grid", grid])) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""


def test_eta_grid_takes_up_to_its_cap():
    grid = cli._parse_eta_grid("0:0.001:0.999")
    assert len(grid) == cli.MAX_ETA_POINTS
    assert (grid[0], grid[-1]) == (0.0, pytest.approx(0.999))
    with pytest.raises(ValueError, match="more than 1000"):
        cli._parse_eta_grid("0:0.001:1")


@pytest.mark.parametrize("flag, value", [
    ("--repeats", "0"), ("--parallel-repeats", "0"), ("--parallel-repeats", "-3")])
def test_benchmark_rejects_run_counts_below_one(capsys, flag, value):
    assert run(*bench_args(["--methods", "grk", "--repeats", "1", flag, value])) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------- deblur


def test_deblur_identity_blur_roundtrip(tmp_path, capsys):
    img = make_pgm(tmp_path, side=8)
    out = tmp_path / "out"
    code = run("deblur", str(img), "--identity-blur", "--method", "grbk",
               "--out", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "PSNR blurred:  inf (identical)" in text
    for name in ("blurred.pgm", "restored.pgm", "trace.csv"):
        assert (out / name).exists()
    restored = read_pgm(out / "restored.pgm")
    # tolerance-level residual can flip a pixel by one rounding step at most
    np.testing.assert_allclose(restored.pixels, read_pgm(img).pixels, atol=1.0)


def test_deblur_improves_psnr(tmp_path, capsys):
    img = make_pgm(tmp_path, side=16, seed=3)
    out = tmp_path / "out"
    code = run("deblur", str(img), "--r", "2", "--sigma", "3.0",
               "--method", "grbk", "--max-iters", "3000", "--out", str(out))
    # the blur tail is slow to squeeze below the strict tolerance; either
    # termination is fine here, the artifacts and the dB gain are the point
    assert code in (0, 2)
    text = capsys.readouterr().out
    blurred_db = float(text.split("PSNR blurred:")[1].split("dB")[0])
    restored_db = float(text.split("PSNR restored:")[1].split("dB")[0])
    assert restored_db > blurred_db
    rows = read_csv(out / "trace.csv")
    assert rows[0] == list(TRACE_HEADER)
    assert len(rows) > 2


def test_deblur_block_size_defaults_to_half_side(tmp_path, monkeypatch):
    # the one solver-flag default that deblur sets apart from solve/benchmark
    configs = []

    def recording_solve(problem, config):
        configs.append(config)
        return solve(problem, config)

    monkeypatch.setattr(cli, "solve", recording_solve)
    img = make_pgm(tmp_path, side=12)
    for flags in ([], ["--tau1", "2"]):
        run("deblur", str(img), "--max-iters", "3", *flags, "--out", str(tmp_path / "o"))
    assert [(c.tau1, c.tau2) for c in configs] == [(6, 6), (2, 6)]


def test_deblur_rejects_non_square(tmp_path, capsys):
    img = GrayImage(np.full((4, 6), 100.0))
    path = tmp_path / "rect.pgm"
    write_pgm(img, path)
    assert run("deblur", str(path), "--out", str(tmp_path / "o")) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- parser


TYPED_ARGS = ["--type1", "--m", "12", "--p", "6", "--r1", "5", "--q", "6",
               "--n", "12", "--r2", "4", "--seed", "5"]
SOLVER_ARGS = ["--tau1", "2", "--tau2", "3", "--eta", "1.5", "--weights", "uniform",
                "--max-iters", "77", "--tol", "1e-5", "--trace-every", "4",
                "--max-seconds", "9.5", "--unsafe-stepsize", "--seed", "5"]


def parse(*argv):
    return build_parser().parse_args(list(argv))


def test_flag_groups_parse_alike_in_every_subcommand():
    # deblur's side/2 block size applies only when the flags leave it unset,
    # in cmd_deblur; the parsed flags themselves match solve's
    for flags in ([], SOLVER_ARGS):
        configs = [
            _config_from_args(parse(*head, *flags), "grabk-c")
            for head in (["solve", "dir"], ["benchmark"], ["deblur", "img.pgm"])]
        assert configs[0] == configs[1] == configs[2]
    assert (configs[0].tau1, configs[0].max_iters, configs[0].seed) == (2, 77, 5)

    def pick(parsed, keys):
        return {key: getattr(parsed, key) for key in keys}

    typed = ("type1", "type2", "m", "p", "r1", "q", "n", "r2", "seed")
    for flags in ([], TYPED_ARGS):
        assert (pick(parse("generate", *flags), typed)
                == pick(parse("benchmark", *flags), typed))
    for flags in ([], ["--r", "2", "--sigma", "3.5"]):
        assert (pick(parse("generate", *flags), ("r", "sigma"))
                == pick(parse("deblur", "img.pgm", *flags), ("r", "sigma")))
    assert (pick(parse("solve", "dir"), ("seed", "method"))
            == pick(parse("deblur", "img.pgm"), ("seed", "method"))
            == {"seed": 0, "method": "grbk"})


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        run("solve", "dir", "--method", "jacobi")
    assert exc2.value.code == 2

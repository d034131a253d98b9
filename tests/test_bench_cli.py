import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rdcopt import bench, cli
from rdcopt.bench import (
    ROSENBROCK_STOP,
    ROSENBROCK_SUB,
    ExperimentConfig,
    rosenbrock_gd_stop,
    run_dca_vs_dcppa,
    run_duality_checks,
    run_frechet,
    run_rosenbrock,
)
from rdcopt.cli import build_parser, main
from rdcopt.matfun import work_ledger


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDcaVsDcppaRunner:
    def test_small_range(self, tmp_path):
        summary = run_dca_vs_dcppa(ExperimentConfig(out_dir=tmp_path, n_min=2, n_max=5))
        assert not summary["failures"]
        assert [result["n"] for result in summary["results"]] == [2, 3, 4, 5]
        # the dimension is n(n+1)/2; 5x5 matrices live on a 15-dim manifold
        assert [result["d"] for result in summary["results"]] == [3, 6, 10, 15]
        # the runner writes the traces only; the CLI writes the summary
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{tag}_n{n}.csv" for tag in ("dca", "dcppa") for n in range(2, 6))
        for result in summary["results"]:
            n = result["n"]
            for tag in ("dca", "dcppa"):
                header, rows = read_csv(tmp_path / f"{tag}_n{n}.csv")
                assert header == ["i", "f", "fabs"]
                # the summary counts the rows after the start
                assert len(rows) == result[f"{tag}_steps"] + 1
                fs = np.array([float(r[1]) for r in rows])
                fabs = np.array([float(r[2]) for r in rows])
                assert np.all(np.diff(fs) <= 1e-10)  # monotone descent
                np.testing.assert_allclose(fabs, np.abs(fs + 0.25), rtol=0, atol=0)
                # every sub-solve takes at least one trust-region step and
                # converges well inside its 5000-step cap
                assert result[f"{tag}_inner_steps"] >= result[f"{tag}_steps"]
                assert result[f"{tag}_capped_subsolves"] == 0
                # each trust-region step makes at least one CG product and
                # one for the model decrease
                assert result[f"{tag}_hessian_products"] >= 2 * result[f"{tag}_inner_steps"]
                assert 0 <= result[f"{tag}_tr_rejected"] <= result[f"{tag}_inner_steps"]
            assert abs(result["dca_final_f"] + 0.25) <= 1e-8
            assert abs(result["dcppa_final_f"] + 0.25) <= 1e-8

    def test_eigendecompositions_per_run(self, tmp_path):
        # the runs' fields hold all of the command's ledger work: every
        # decomposition of a log-det run is a scalar answer of sym_eig
        before = work_ledger()
        summary = run_dca_vs_dcppa(ExperimentConfig(out_dir=tmp_path, n_min=3, n_max=4))
        for result in summary["results"]:
            assert result["dca_eigendecompositions"] > 0
            assert result["dcppa_eigendecompositions"] > 0
        assert work_ledger() - before == Counter(scalar=sum(
            result[f"{tag}_eigendecompositions"]
            for result in summary["results"] for tag in ("dca", "dcppa")))

    def test_out_of_range_rejected(self, tmp_path):
        # the config rejects the range before it makes the output directory
        for n_min, n_max in ((1, 2), (3, 2), (2, 81), (2.5, 10), (2, 10.0), (True, 10)):
            with pytest.raises(ValueError, match="n range"):
                ExperimentConfig(out_dir=tmp_path / "out", n_min=n_min, n_max=n_max)
        assert not (tmp_path / "out").exists()

    def test_solver_error_row(self, tmp_path, monkeypatch, capsys):
        # a non-finite cost at n = 3 is a hard solver error: that size gets a
        # failures entry and no result row or traces, the others still run,
        # and the CLI exits with 1
        build = bench.logdet_dcproblem

        def nan_at_3(spec):
            problem = build(spec)
            return dataclasses.replace(problem, g_cost=lambda p: math.nan) if spec.n == 3 else problem

        monkeypatch.setattr(bench, "logdet_dcproblem", nan_at_3)
        summary = run_dca_vs_dcppa(ExperimentConfig(out_dir=tmp_path, n_min=2, n_max=3))
        assert [result["n"] for result in summary["results"]] == [2]
        assert summary["failures"] == [{"n": 3, "error": "non-finite cost: nan"}]
        assert not (tmp_path / "dca_n3.csv").exists()
        code = main(["bench", "dca-vs-dcppa", "--n-min", "3", "--n-max", "3",
                     "--out", str(tmp_path / "cli")])
        assert code == 1
        out = capsys.readouterr().out
        assert json.loads(out)["failures"][0]["n"] == 3
        # a failed run still leaves its summary
        assert (tmp_path / "cli" / "summary.json").read_text(encoding="utf-8") == out


class TestRosenbrockRunner:
    def test_small_instance(self, tmp_path):
        # a mild curvature keeps the four runs fast; the full-scale run is
        # exercised by the acceptance suite
        config = ExperimentConfig(out_dir=tmp_path, a=100.0, b=1.0)
        summary = run_rosenbrock(config)
        assert summary["initial_cost"] == pytest.approx(
            100.0 * (0.1 ** 2 - 0.2) ** 2 + 0.81)
        assert list(summary["results"]) == [
            "euclidean_gd", "euclidean_dca", "riemannian_gd", "riemannian_dca"]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{name}.csv" for name in summary["results"])
        for name, result in summary["results"].items():
            trace_header, trace_rows = read_csv(tmp_path / f"{name}.csv")
            assert trace_header == ["i", "f"]
            assert len(trace_rows) == result["steps"] + 1
            fs = np.array([float(r[1]) for r in trace_rows])
            assert fs[0] == pytest.approx(summary["initial_cost"])
            assert np.all(np.diff(fs) <= 1e-10)
        assert summary["results"]["riemannian_dca"]["distance_to_solution"] <= 1e-6
        cap = ROSENBROCK_SUB.criterion.max_iter
        for name in ("euclidean_dca", "riemannian_dca"):
            result = summary["results"][name]
            # one sub-solve per step, plus the one that returns the current point
            subsolves = result["steps"] + (result["reason"] == "fixed point")
            assert 0 <= result["capped_subsolves"] <= subsolves
            assert cap * result["capped_subsolves"] <= result["inner_steps"] <= cap * subsolves
        assert "inner_steps" not in summary["results"]["riemannian_gd"]

    def test_gradient_descent_cap(self):
        # the Euclidean gradient descent stops as the other runs do, but after
        # 200,000 steps unless long_run lifts the cap to the outer stop's
        assert rosenbrock_gd_stop(False) == dataclasses.replace(ROSENBROCK_STOP, max_iter=200_000)
        assert rosenbrock_gd_stop(True) == ROSENBROCK_STOP
        assert ROSENBROCK_STOP.max_iter == 10_000_000


class TestFrechetRunner:
    def test_desk_scale(self, tmp_path):
        config = ExperimentConfig(out_dir=tmp_path, n=4, m=8, seed=0)
        summary = run_frechet(config)
        # the summary names the instance
        assert (summary["n"], summary["m"], summary["seed"]) == (4, 8, 0)
        for name in ("frechet_dca.csv", "frechet_fw.csv"):
            header, rows = read_csv(tmp_path / name)
            assert header == ["i", "h", "feas_slack"]
            h = np.array([float(r[1]) for r in rows])
            assert np.all(np.diff(h) >= -1e-12)
        assert summary["frank_wolfe"]["first_step_sizes"] == [1.0, 2.0 / 3.0]
        # row-aligned traces
        _, dca_rows = read_csv(tmp_path / "frechet_dca.csv")
        assert len(dca_rows) == summary["dca"]["steps"] + 1

    def test_rejects_tiny_sizes(self, tmp_path):
        # a float size would fail later, inside numpy, with TypeError
        for n, m in ((1, 8), (4, 1), (2.5, 8), (4, 3.5), (4.0, 8), (4, True)):
            with pytest.raises(ValueError, match="n >= 2 and m >= 2"):
                ExperimentConfig(out_dir=tmp_path / "out", n=n, m=m, seed=0)
        # True is an int to isinstance, and would run seed 1
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed must be nonnegative"):
                ExperimentConfig(out_dir=tmp_path / "out", seed=seed)
        assert not (tmp_path / "out").exists()

    def test_default_seed_counts_steps(self, tmp_path):
        # seed 42's DCA takes 2 steps (3 rows) and then finds no feasible
        # step; Frank-Wolfe is capped at as many steps
        summary = run_frechet(ExperimentConfig(out_dir=tmp_path))
        assert (summary["dca"]["steps"], summary["dca"]["reason"]) == (2, "no feasible step")
        assert (summary["frank_wolfe"]["steps"], summary["frank_wolfe"]["reason"]) == (
            2, "max iterations")
        assert "iterations" not in summary["dca"]

    def test_trace_determinism(self, tmp_path):
        logdet_traces = tuple(f"{tag}_n{n}.csv" for tag in ("dca", "dcppa") for n in (2, 3, 4))
        runs = {
            "dca-vs-dcppa": (
                lambda out: run_dca_vs_dcppa(ExperimentConfig(out_dir=out, n_min=2, n_max=4)),
                logdet_traces),
            "frechet": (lambda out: run_frechet(ExperimentConfig(out_dir=out, n=4, m=8, seed=5)),
                        ("frechet_dca.csv", "frechet_fw.csv")),
            "duality": (lambda out: run_duality_checks(ExperimentConfig(out_dir=out)),
                        ("sandwich.csv",)),
        }
        for tag, (run, names) in runs.items():
            a_dir = tmp_path / tag / "a"
            b_dir = tmp_path / tag / "b"
            run(a_dir)
            run(b_dir)
            for name in names:
                assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


class TestDualityRunner:
    def test_passes_and_writes_report(self, tmp_path):
        summary = run_duality_checks(ExperimentConfig(out_dir=tmp_path))
        assert summary["passed"]
        assert len(summary["checks"]) == 6
        assert all(check["passed"] for check in summary["checks"])
        header, rows = read_csv(tmp_path / "sandwich.csv")
        assert header == ["k", "primal", "dual", "primal_next",
                          "lower_residual", "upper_residual"]
        assert rows, "sandwich rows expected"
        for row in rows:
            assert float(row[4]) >= -1e-3
            assert float(row[5]) >= -1e-3

    def test_negative_control_fails(self, tmp_path):
        summary = run_duality_checks(ExperimentConfig(out_dir=tmp_path), tamper=True)
        assert not summary["passed"]


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "unknown-experiment"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        # an instance outside its valid range is a usage error, found before
        # the output directory is made
        out = tmp_path / "out"
        for argv in (["bench", "frechet", "--n", "1"], ["bench", "dca-vs-dcppa", "--n-min", "1"],
                     ["bench", "rosenbrock", "--a", "-1"], ["bench", "rosenbrock", "--a", "inf"],
                     ["bench", "frechet", "--seed", "-1"]):
            assert main([*argv, "--out", str(out)]) == 2, argv
            assert capsys.readouterr().err.startswith("rdcopt: error: ")
            assert not out.exists(), argv

    def test_defaults_are_the_configs(self, tmp_path, monkeypatch, capsys):
        # with only --out given, each command runs ExperimentConfig's defaults
        configs = []
        for command in cli.COMMANDS:
            monkeypatch.setitem(cli.COMMANDS, command,
                                (lambda config: configs.append(config) or {}, lambda summary: True))
        for command in cli.COMMANDS:
            out = tmp_path / "-".join(command)
            args = vars(build_parser().parse_args([*command, "--out", str(out)]))
            assert {name for name, value in args.items() if value is not None} == {
                "command", "target", "out_dir"}
            assert main([*command, "--out", str(out)]) == 0
            assert configs.pop() == ExperimentConfig(out_dir=out)


    def test_error_inside_a_run_is_not_a_usage_error(self, tmp_path):
        # a ValueError raised by a runner propagates: the console script
        # exits 1 with its traceback, not 2 with a usage message
        script = ("import sys\n"
                  "from rdcopt import cli\n"
                  "def run(config):\n"
                  "    raise ValueError('spectrum outside domain')\n"
                  "cli.COMMANDS['check', 'duality'] = (run, lambda summary: True)\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, "check", "duality",
                               "--out", str(tmp_path)], env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert "Traceback" in done.stderr
        assert "ValueError: spectrum outside domain" in done.stderr
        assert "rdcopt: error" not in done.stderr

    def test_check_duality_exit_zero(self, tmp_path, capsys):
        code = main(["check", "duality", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["passed"]
        # the summary holds no seconds, so a second run writes the same bytes
        assert main(["check", "duality", "--out", str(tmp_path / "again")]) == 0
        assert capsys.readouterr().out == out
        assert (tmp_path / "summary.json").read_bytes() == out.encode("utf-8")
        assert (tmp_path / "again" / "summary.json").read_bytes() == out.encode("utf-8")

    def test_bench_dca_vs_dcppa(self, tmp_path, capsys):
        code = main(["bench", "dca-vs-dcppa", "--n-min", "2", "--n-max", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        # stdout and summary.json are the same bytes
        out = capsys.readouterr().out
        assert (tmp_path / "summary.json").read_bytes() == out.encode("utf-8")
        assert [result["n"] for result in json.loads(out)["results"]] == [2, 3]

    def test_bench_rosenbrock_long_run(self, tmp_path, capsys, monkeypatch):
        out = ["--out", str(tmp_path)]
        assert build_parser().parse_args(["bench", "rosenbrock", "--long-run", *out]).long_run
        assert not build_parser().parse_args(["bench", "rosenbrock", *out]).long_run
        # main hands the flag to the runner, here one that solves nothing
        configs = []
        _, passed = cli.COMMANDS["bench", "rosenbrock"]
        monkeypatch.setitem(cli.COMMANDS, ("bench", "rosenbrock"),
                            (lambda config: configs.append(config) or {}, passed))
        assert main(["bench", "rosenbrock", "--long-run", *out]) == 0
        assert [config.long_run for config in configs] == [True]

    def test_bench_frechet_seed(self, tmp_path, capsys):
        code = main(["bench", "frechet", "--n", "4", "--m", "8", "--seed", "11",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert (summary["n"], summary["m"], summary["seed"]) == (4, 8, 11)

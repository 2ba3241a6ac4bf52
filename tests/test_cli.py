"""Command line interface tests.

Exit codes are part of the contract: 0 success, 1 bad input of any kind,
2 ran-but-failed (no convergence, failed verification). Most tests call
main() in process for speed; one subprocess test makes sure the installed
entry points actually launch.

Output files use repr-faithful float formatting, so reruns with identical
inputs must produce byte-identical CSVs; the determinism tests assert
exactly that, including the study mode.
"""

import argparse
import csv
import dataclasses
import json
import math
import runpy
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracpicard import cli, fractional_ops
from fracpicard.cli import _oracle_fn, main
from fracpicard.fractional_ops import Grid, SampledFunction
from fracpicard.picard_solver import solve
from fracpicard.problem_model import MultiTermProblem, load_problem, parse_rhs

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.json"))

RELAXATION = {
    "alpha": 0.5,
    "derivative_orders": [0.0],
    "initial_values": [1.0],
    "horizon": 1.0,
    "rhs": "-z1",
}

MANUFACTURED = {
    "alpha": 1.5,
    "derivative_orders": [0.5],
    "initial_values": [0.0, 0.0],
    "horizon": 1.0,
    "rhs": "2*t^0.5/0.88622692545275801 + 0*z1",
}


@pytest.fixture
def relaxation_cfg(tmp_path):
    path = tmp_path / "relaxation.json"
    path.write_text(json.dumps(RELAXATION))
    return path


@pytest.fixture
def manufactured_cfg(tmp_path):
    path = tmp_path / "manufactured.json"
    path.write_text(json.dumps(MANUFACTURED))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolveMode:
    def test_writes_trajectory_and_convergence(self, relaxation_cfg, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main([
            "--config", str(relaxation_cfg), "--n-points", "64",
            "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["t", "y", "z1", "phi"]
        assert len(rows) == 65
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 1.0
        ys = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(ys) < 0)  # relaxation decays

        conv_header, conv_rows = _read_csv(tmp_path / "traj_convergence.csv")
        assert conv_header == ["iteration", "delta"]
        deltas = [float(r[1]) for r in conv_rows]
        assert [int(r[0]) for r in conv_rows] == list(range(1, len(deltas) + 1))
        assert deltas[-1] <= 1e-10
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))

    def test_reports_windows_and_worst_ratio(self, relaxation_cfg, tmp_path, capsys):
        rc = main([
            "--config", str(relaxation_cfg), "--n-points", "1024",
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 0
        line = capsys.readouterr().out
        assert "converged after 12 iterations" in line
        assert "5 exact of 6 windows, 17 steps, worst ratio 0.221" in line

    def test_reports_the_windows_solved_exactly(self, tmp_path, capsys):
        # on T = 20 every 64-node window would halve; the first ends with
        # the exact step instead, after two updates and before a last one,
        # and each of the five segments after it takes one update
        path = tmp_path / "long.json"
        path.write_text(json.dumps(dict(RELAXATION, horizon=20.0)))
        rc = main(["--config", str(path), "--n-points", "1024",
                   "--output", str(tmp_path / "traj.csv")])
        assert rc == 0
        assert "6 exact of 6 windows, 8 steps" in capsys.readouterr().out

    def test_reports_the_diagonal_above_the_bound(self, tmp_path, capsys):
        # at N = 16 the diagonal of -9 z1 is above (1e-10)^(1/200) = 0.891:
        # the failing solve says so
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(dict(RELAXATION, rhs="-9*z1")))
        rc = main(["--config", str(path), "--n-points", "16",
                   "--output", str(tmp_path / "traj.csv")])
        assert rc == 2
        line = capsys.readouterr().out
        assert "NOT converged" in line and "largest diagonal 1.69 > 0.891" in line

    def test_default_output_name(self, relaxation_cfg, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["--config", str(relaxation_cfg), "--n-points", "64"])
        assert rc == 0
        assert (tmp_path / "fracpicard_solve.csv").exists()
        assert (tmp_path / "fracpicard_solve_convergence.csv").exists()

    def test_singular_phi_column_has_no_origin_value(self, tmp_path):
        cfg = tmp_path / "singular.json"
        cfg.write_text(json.dumps({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": 0.3, "rhs": "t^(-0.3) + 0*z1",
        }))
        out = tmp_path / "singular.csv"
        rc = main(["--config", str(cfg), "--n-points", "64", "--output", str(out)])
        assert rc == 0
        _, rows = _read_csv(out)
        assert rows[0][3] == "nan"
        assert math.isfinite(float(rows[1][3]))

    def test_exhausted_budget_returns_two(self, relaxation_cfg, tmp_path):
        rc = main([
            "--config", str(relaxation_cfg), "--n-points", "64",
            "--max-iter", "2", "--output", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_overflowing_problem_returns_two(self, tmp_path):
        cfg = tmp_path / "boom.json"
        cfg.write_text(json.dumps({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [800.0],
            "horizon": 1.0, "rhs": "exp(z1)",
        }))
        rc = main(["--config", str(cfg), "--n-points", "64",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("alpha, horizon", [(60.5, 1e6), (150.5, 1000.0)])
    def test_overflowing_operator_returns_two(self, tmp_path, capsys, alpha, horizon):
        # the weights of I^alpha overflow, so y would be nan past t_8
        cfg = tmp_path / "high.json"
        cfg.write_text(json.dumps({
            "alpha": alpha, "derivative_orders": [0.0],
            "initial_values": [1.0] + [0.0] * (math.ceil(alpha) - 1),
            "horizon": horizon, "rhs": "t",
        }))
        rc = main(["--config", str(cfg), "--n-points", "64", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        what = "y or an inner derivative took a non-finite value"
        assert capsys.readouterr().err == f"error: {what} at t = {horizon / 8:g}\n"  # nothing else
        assert not (tmp_path / "x.csv").exists()

    def test_deterministic_output_bytes(self, relaxation_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "--config", str(relaxation_cfg), "--n-points", "64",
                "--output", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_convergence.csv").read_bytes() == (
            tmp_path / "b_convergence.csv"
        ).read_bytes()


class TestVerifyMode:
    def test_all_checks_pass(self, relaxation_cfg, tmp_path, capsys):
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "verify",
            "--output", str(tmp_path / "v.csv"),
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "verify: 7/7 checks passed" in captured
        header, rows = _read_csv(tmp_path / "v.csv")
        assert header == ["check", "value", "threshold", "passed"]
        assert [r[0] for r in rows] == [
            "converged", "volterra_residual", "ode_residual", "ic_error_0",
            "initial_limit_0", "decay_slope_error", "decay_limit",
        ]
        assert [r[2] for r in rows] == [
            "1e-10", "0.001", "0.01", "0.10000000000000001", "0.050000000000000003",
            "0.050000000000000003", "0.001",
        ]
        assert all(r[3] == "1" for r in rows)
        # the other thresholds are fixed: no flag sets them
        for flag in ("--volterra-tol", "--ic-tol", "--limit-tol", "--slope-tol",
                     "--decay-limit-tol"):
            assert main([
                "--config", str(relaxation_cfg), "--mode", "verify", flag, "1",
                "--output", str(tmp_path / "w.csv"),
            ]) == 1
        assert not (tmp_path / "w.csv").exists()

    def test_corrupted_trajectory_fails(self, relaxation_cfg, tmp_path, capsys, monkeypatch):
        def corrupted(*args, **kwargs):
            traj = solve(*args, **kwargs)
            y = SampledFunction(traj.grid, traj.y.values * 1.1, 0.0)
            return dataclasses.replace(traj, y=y)

        monkeypatch.setattr(cli, "solve", corrupted)
        argv = ["--config", str(relaxation_cfg), "--mode", "verify",
                "--output", str(tmp_path / "v.csv")]
        rc = main(argv)
        captured = capsys.readouterr().out
        assert rc == 2
        assert "FAIL" in captured
        _, rows = _read_csv(tmp_path / "v.csv")
        assert any(r[3] == "0" for r in rows)
        # the CLI has no flag of its own for this
        assert main(argv + ["--self-test-corrupt"]) == 1

    def test_two_initial_conditions_reported(self, manufactured_cfg, tmp_path, capsys):
        rc = main([
            "--config", str(manufactured_cfg), "--mode", "verify",
            "--output", str(tmp_path / "v.csv"),
        ])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "v.csv")
        names = [r[0] for r in rows]
        assert "ic_error_1" in names
        assert "initial_limit_1" in names


class TestStudyMode:
    def test_ladder_and_orders(self, relaxation_cfg, tmp_path):
        out = tmp_path / "study.csv"
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "study",
            "--study-min", "16", "--n-points", "64",
            "--oracle", "ml:-1", "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["n_intervals", "sup_error", "observed_order", "iterations"]
        assert [int(r[0]) for r in rows] == [16, 32, 64]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2] > 0
        orders = [float(r[2]) for r in rows]
        assert all(o > 0.5 for o in orders[:-1])
        assert math.isnan(orders[-1])

    def test_bad_ladder_rejected(self, relaxation_cfg, tmp_path):
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "study",
            "--study-min", "16", "--n-points", "100",
            "--oracle", "ml:-1", "--output", str(tmp_path / "s.csv"),
        ])
        assert rc == 1

    def test_missing_oracle_rejected(self, relaxation_cfg, tmp_path, capsys):
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "study",
            "--output", str(tmp_path / "s.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: study mode needs --oracle\n"
        assert not (tmp_path / "s.csv").exists()

    def test_study_is_deterministic(self, relaxation_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "--config", str(relaxation_cfg), "--mode", "study",
                "--study-min", "16", "--n-points", "64",
                "--oracle", "ml:-1", "--output", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_term_graded_study_is_deterministic(self, tmp_path):
        # two nonzero initial values: two array series per grid
        cfg = tmp_path / "two_term.json"
        cfg.write_text(json.dumps(dict(RELAXATION, alpha=1.5, initial_values=[1.0, 0.5])))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "--config", str(cfg), "--mode", "study", "--grading", "2",
                "--study-min", "16", "--n-points", "256",
                "--oracle", "ml:-1", "--output", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_study_runs_in_the_calling_thread(self, relaxation_cfg, tmp_path, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the study built an executor")

        threads = []

        def traced_solve(*args, **kwargs):
            threads.append(threading.get_ident())
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(cli, "solve", traced_solve)
        assert main([
            "--config", str(relaxation_cfg), "--mode", "study",
            "--study-min", "16", "--n-points", "64",
            "--oracle", "ml:-1", "--output", str(tmp_path / "s.csv"),
        ]) == 0
        assert threads == [threading.get_ident()] * 3

    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_ladder_grids_share_nodes_and_oracle_values(self, grading):
        # every grid of a dyadic ladder holds the coarser grids' nodes bit for
        # bit, and the oracle, one array call per grid, agrees on them
        problem = MultiTermProblem(
            alpha=0.5, derivative_orders=(0.0,), initial_values=(1.0,),
            horizon=1.7, rhs=parse_rhs("-z1", 1),
        )
        oracle = _oracle_fn(argparse.Namespace(mode="study", oracle="ml:-2.5"), problem)
        sizes = [16 * 2**k for k in range(7)]
        grids = [Grid(problem.horizon, n, grading) for n in sizes]
        values = [oracle(g.nodes) for g in grids]
        fine, fine_values = grids[-1], values[-1]
        for n, coarse, coarse_values in zip(sizes, grids, values):
            s = sizes[-1] // n
            assert np.array_equal(fine.nodes[::s], coarse.nodes)
            assert np.array_equal(fine_values[::s], coarse_values)

    def test_study_evaluates_the_oracle_once(self, tmp_path, monkeypatch):
        # one mittag_leffler call per nonzero initial value, on the finest
        # grid, whatever the number of grids in the ladder
        cfg = tmp_path / "two_term.json"
        cfg.write_text(json.dumps(dict(RELAXATION, alpha=1.5, initial_values=[1.0, 0.0])))
        sizes = []

        def counting(params, z):
            sizes.append(np.size(z))
            return ml(params, z)

        ml = cli.mittag_leffler
        monkeypatch.setattr(cli, "mittag_leffler", counting)
        assert main([
            "--config", str(cfg), "--mode", "study", "--study-min", "16",
            "--n-points", "128", "--oracle", "ml:-1", "--output", str(tmp_path / "s.csv"),
        ]) == 0
        assert sizes == [129]


class TestOracleMode:
    def test_ml_oracle_matches_erfc_identity(self, relaxation_cfg, tmp_path):
        # E_(1/2)(-sqrt t) = exp(t) erfc(sqrt t)
        out = tmp_path / "oracle.csv"
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "oracle",
            "--oracle", "ml:-1", "--n-points", "64", "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["t", "y"]
        assert len(rows) == 65
        for t_str, y_str in rows:
            t = float(t_str)
            assert float(y_str) == pytest.approx(
                math.exp(t) * math.erfc(math.sqrt(t)), rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("rate", [-7.0, -50.0])
    def test_stiff_half_order_oracle_is_erfcx(self, tmp_path, rate):
        # E_(1/2)(rate sqrt t) = erfcx(|rate| sqrt t): the alternating series
        # was off by 1.7e8 relative at -7 and overflowed at -50
        erfcx = pytest.importorskip("scipy.special").erfcx
        cfg = ROOT / "configs" / "relaxation_half_order.json"
        out = tmp_path / "oracle.csv"
        rc = main([
            "--config", str(cfg), "--mode", "oracle",
            "--oracle", f"ml:{rate:g}", "--n-points", "64", "--output", str(out),
        ])
        assert rc == 0
        _, rows = _read_csv(out)
        t, y = np.array(rows, dtype=float).T
        np.testing.assert_allclose(y, erfcx(-rate * np.sqrt(t)), rtol=1e-13, atol=0.0)

    def test_expr_oracle(self, relaxation_cfg, tmp_path):
        out = tmp_path / "oracle.csv"
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "oracle",
            "--oracle", "expr:t^2", "--n-points", "32", "--output", str(out),
        ])
        assert rc == 0
        _, rows = _read_csv(out)
        for t_str, y_str in rows:
            assert float(y_str) == pytest.approx(float(t_str) ** 2, abs=1e-15)

    def test_requires_oracle_argument(self, relaxation_cfg, tmp_path, capsys):
        rc = main([
            "--config", str(relaxation_cfg), "--mode", "oracle",
            "--output", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: oracle mode needs --oracle\n"
        assert not (tmp_path / "o.csv").exists()


class TestEveryMode:
    @pytest.mark.parametrize("mode, sizes", [
        ("solve", [64]), ("verify", [64]), ("study", [16, 32, 64]), ("oracle", []),
    ])
    def test_one_load_and_every_solve_through_cli_solve(
        self, relaxation_cfg, tmp_path, monkeypatch, mode, sizes
    ):
        # main reads the config once for every mode, and each grid a mode
        # solves on goes through the module's solve, looked up at call
        # time: the benchmark patches cli.solve to keep each trajectory
        loads, solved = [], []

        def counting_load(path):
            loads.append(path)
            return load_problem(path)

        def counting_solve(problem, grid, **kwargs):
            solved.append((grid.n_intervals, kwargs))
            return solve(problem, grid, **kwargs)

        monkeypatch.setattr(cli, "load_problem", counting_load)
        monkeypatch.setattr(cli, "solve", counting_solve)
        assert main([
            "--config", str(relaxation_cfg), "--mode", mode, "--n-points", "64",
            "--oracle", "ml:-1", "--tol", "1e-9", "--max-iter", "50", "--ode-tol", "0.5",
            "--output", str(tmp_path / "out.csv"),
        ]) == 0
        assert loads == [str(relaxation_cfg)]
        assert solved == [(n, {"tol": 1e-9, "max_iter": 50}) for n in sizes]


class TestBadInput:
    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        assert main(["--config", str(cfg)]) == 1

    def test_validation_failure(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "alpha": -1.0, "derivative_orders": [], "initial_values": [1.0],
            "horizon": 1.0, "rhs": "t",
        }))
        assert main(["--config", str(cfg)]) == 1

    def test_syntax_error_in_rhs(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        for rhs, pos in (("1 +", 3), ("1e999*t - z1", 0)):
            cfg.write_text(json.dumps(dict(RELAXATION, rhs=rhs)))
            assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 1
            assert f"(at position {pos})" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_alpha_beyond_the_range_of_gamma(self, tmp_path, capsys):
        for alpha in (171.5, 172.5):
            cfg = tmp_path / "big.json"
            cfg.write_text(json.dumps(dict(
                RELAXATION, alpha=alpha, initial_values=[1.0] + [0.0] * int(alpha),
            )))
            assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err
            assert "alpha_range" in err and f"alpha = {alpha}" in err

    @pytest.mark.parametrize("config, grading, what", [
        ("singular_forcing", "1", "weighted table of I^0.5 on N = 512, which holds 1.2 MB"),
        ("relaxation_half_order", "2", "plain table of I^0.5 on N = 512, which holds 1.2 MB"),
    ])
    def test_table_out_of_memory_returns_one(self, tmp_path, capsys, monkeypatch,
                                            config, grading, what):
        # the first allocation of a table build fails, as at a large N
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(fractional_ops, "_panels", no_memory)
        rc = main(["--config", str(ROOT / "configs" / f"{config}.json"), "--n-points", "512",
                   "--grading", grading, "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no memory for the {what}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_grid_out_of_memory_returns_one(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)")

        monkeypatch.setattr(cli, "Grid", no_memory)
        rc = main(["--config", str(ROOT / "configs" / "singular_forcing.json"),
                   "--n-points", "100000000000", "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: no memory for the 100000000001 nodes of --n-points 100000000000\n"

    def test_unknown_mode(self, relaxation_cfg):
        assert main(["--config", str(relaxation_cfg), "--mode", "nope"]) == 1

    def test_missing_required_flag(self):
        assert main([]) == 1

    def test_parser_is_built_once(self, relaxation_cfg, tmp_path, capsys, monkeypatch):
        # main parses with the parser built at import and builds none of its
        # own; after a good call, a bad flag still exits 1 (CliInputError)
        monkeypatch.setattr(cli, "_build_parser", None)
        out = str(tmp_path / "x.csv")
        assert main(["--config", str(relaxation_cfg), "--n-points", "32", "--output", out]) == 0
        assert main(["--config", str(relaxation_cfg), "--output", out, "--no-such-flag"]) == 1
        assert "--no-such-flag" in capsys.readouterr().err

    def test_too_few_points(self, relaxation_cfg, tmp_path):
        assert main([
            "--config", str(relaxation_cfg), "--n-points", "8",
            "--output", str(tmp_path / "x.csv"),
        ]) == 1

    @pytest.mark.parametrize("key,value", [
        ("derivative_orders", 5),
        ("rhs", 3),
        ("alpha", None),
    ])
    def test_wrongly_typed_value(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(RELAXATION, **{key: value})))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,code", [
        ("initial_values", [float("nan")], "initial_finite"),
        ("horizon", float("inf"), "horizon_finite"),
        ("alpha", float("inf"), "alpha_finite"),
        ("horizon", float("nan"), "horizon_finite"),
        ("alpha", float("nan"), "alpha_finite"),
    ])
    def test_non_finite_value(self, tmp_path, capsys, key, value, code):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(RELAXATION, **{key: value})))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert code in err and key in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "--output", str(tmp_path / "x.csv")]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_output_in_missing_directory(self, relaxation_cfg, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main([
            "--config", str(relaxation_cfg), "--n-points", "64", "--output", str(out),
        ]) == 1
        assert str(out) in capsys.readouterr().err

    def test_singular_inner_derivative(self, tmp_path, capsys):
        # alpha - alpha_1 = 0.1 does not exceed gamma = 0.5
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(
            RELAXATION, alpha=1.0, derivative_orders=[0.9], gamma=0.5, rhs="-z1",
        )))
        assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 1
        assert "inner_singular" in capsys.readouterr().err

    def test_verify_grid_too_coarse_for_order(self, tmp_path, capsys):
        # verify differences y ceil(alpha) = 10 times, which needs 20 intervals
        cfg = tmp_path / "high.json"
        cfg.write_text(json.dumps(dict(RELAXATION, alpha=9.5, initial_values=[1.0] + [0.0] * 9)))
        assert main([
            "--config", str(cfg), "--mode", "verify", "--n-points", "16",
            "--output", str(tmp_path / "v.csv"),
        ]) == 1
        assert "--n-points" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--tol", "0"],
        ["--tol=-1e-10"],
        ["--tol", "nan"],
        ["--max-iter", "0"],
        ["--grading", "nan"],
        ["--grading", "inf"],
        ["--grading", "0.5"],
        ["--grading", "300"],
        ["--tol", "inf"],
        ["--ode-tol", "nan", "--mode", "verify"],
        ["--ode-tol", "0", "--mode", "verify"],
        ["--ode-tol", "inf", "--mode", "verify"],
        ["--oracle", "ml-1", "--mode", "oracle"],
        ["--study-min", "8", "--mode", "study", "--oracle", "ml:-1"],
    ])
    def test_bad_flag_values(self, relaxation_cfg, tmp_path, capsys, flags):
        assert main([
            "--config", str(relaxation_cfg), "--output", str(tmp_path / "x.csv"), *flags,
        ]) == 1
        assert flags[0].split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_oracle_kind(self, relaxation_cfg, tmp_path):
        assert main([
            "--config", str(relaxation_cfg), "--mode", "oracle",
            "--oracle", "foo:1", "--output", str(tmp_path / "o.csv"),
        ]) == 1

    def test_ml_oracle_needs_number(self, relaxation_cfg, tmp_path):
        assert main([
            "--config", str(relaxation_cfg), "--mode", "oracle",
            "--oracle", "ml:abc", "--output", str(tmp_path / "o.csv"),
        ]) == 1

    @pytest.mark.parametrize("mode", ["oracle", "study"])
    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_ml_oracle_needs_finite_rate(self, relaxation_cfg, tmp_path, capsys, mode, rate):
        assert main([
            "--config", str(relaxation_cfg), "--mode", mode, "--n-points", "32",
            "--oracle", f"ml:{rate}", "--output", str(tmp_path / "o.csv"),
        ]) == 1
        assert "--oracle" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_ml_oracle_overflowing_argument(self, tmp_path, capsys):
        # a finite rate, but lambda t^alpha overflows at t = 100
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(dict(RELAXATION, horizon=100.0)))
        assert main([
            "--config", str(cfg), "--mode", "oracle", "--n-points", "32",
            "--oracle", "ml:-1e308", "--output", str(tmp_path / "o.csv"),
        ]) == 1
        assert "--oracle" in capsys.readouterr().err

    def test_expr_oracle_overflowing_literal(self, relaxation_cfg, tmp_path, capsys):
        assert main([
            "--config", str(relaxation_cfg), "--mode", "oracle", "--n-points", "32",
            "--oracle", "expr:1e999", "--output", str(tmp_path / "o.csv"),
        ]) == 1
        assert "1e999 overflows a double (at position 0)" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("mode", ["oracle", "study"])
    def test_expr_oracle_overflowing_value(self, relaxation_cfg, tmp_path, capsys, mode):
        # every literal is finite, their product is not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([
                "--config", str(relaxation_cfg), "--mode", mode, "--n-points", "32",
                "--oracle", "expr:1e308*10", "--output", str(tmp_path / "o.csv"),
            ])
        assert rc == 1
        assert "--oracle expr:1e308*10: not finite at t = 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_error_goes_to_stderr(self, tmp_path, capsys):
        main(["--config", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""


class TestShippedConfigs:
    """Every shipped config solves and verifies, with the arguments the
    benchmark script gives it, without a warning of any kind."""

    @pytest.mark.parametrize("cfg", SHIPPED, ids=[c.stem for c in SHIPPED])
    def test_runs_without_warnings(self, cfg, tmp_path):
        extra = runpy.run_path(str(ROOT / "scripts" / "run_benchmarks.py"))["EXTRA_VERIFY"]
        runs = [["--mode", "solve"], ["--mode", "verify"] + extra.get(cfg.stem, [])]
        for args in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(["--config", str(cfg), "--output", str(tmp_path / "out.csv")] + args)
            assert rc == 0, args
            assert [str(w.message) for w in caught] == [], args


class TestEntryPoints:
    def test_module_invocation(self, relaxation_cfg, tmp_path):
        out = tmp_path / "traj.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fracpicard.cli",
             "--config", str(relaxation_cfg), "--n-points", "64",
             "--output", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_console_script(self, relaxation_cfg, tmp_path):
        exe = shutil.which("fracpicard")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = tmp_path / "traj.csv"
        proc = subprocess.run(
            [exe, "--config", str(relaxation_cfg), "--n-points", "64",
             "--output", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

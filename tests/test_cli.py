"""Tests for the command-line interface."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splr import experiments, linalg
from splr.altmin import alternating_minimization
from splr.cli import build_parser, main
from splr.core import ProblemInstance


def _write_matrix(path, A):
    linalg.write_matrix_csv(path, A)
    return str(path)


def _witness_file(tmp_path):
    return _write_matrix(tmp_path / "eye2.csv", np.eye(2))


class TestDecompose:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((5, 5)))
        out = str(tmp_path / "dec")
        code = main(["decompose", mat, "--k0", "2", "--k1", "3",
                     "--lam", "1.0", "--mu", "1.0", "--out", out])
        assert code == 0
        X = linalg.read_matrix_csv(out + "_X.csv")
        Y = linalg.read_matrix_csv(out + "_Y.csv")
        summary = json.loads((tmp_path / "dec_summary.json").read_text())
        assert summary["rank"] <= 2 and summary["nnz"] <= 3
        D = linalg.read_matrix_csv(mat)
        ref = (np.sum((D - X - Y) ** 2) + np.sum(X * X) + np.sum(Y * Y))
        assert summary["objective"] == pytest.approx(ref, abs=1e-9)

    def test_zeros_of_y_are_written_positive(self, tmp_path):
        inst = str(tmp_path / "inst")
        assert main(["synth", "--n", "8", "--k0", "1", "--k1", "4",
                     "--sigma", "1", "--seed", "0", "--out", inst]) == 0
        out = str(tmp_path / "dec")
        assert main(["decompose", inst + "_D.csv", "--k0", "1", "--k1", "4",
                     "--out", out]) == 0
        tokens = (tmp_path / "dec_Y.csv").read_text().split()
        tokens = ",".join(tokens).split(",")
        assert tokens.count("0.0") == 60 and "-0.0" not in tokens
        D = linalg.read_matrix_csv(inst + "_D.csv")
        sol, _ = alternating_minimization(ProblemInstance(D, 1, 4, 0.1, 0.1))
        assert not np.signbit(sol.Y[sol.Y == 0.0]).any()
        assert linalg.read_matrix_csv(out + "_Y.csv").tobytes() == \
            sol.Y.tobytes()

    def test_zero_matrix(self, tmp_path):
        mat = _write_matrix(tmp_path / "z.csv", np.zeros((3, 3)))
        out = str(tmp_path / "dec")
        assert main(["decompose", mat, "--k0", "1", "--k1", "0",
                     "--out", out]) == 0
        summary = json.loads((tmp_path / "dec_summary.json").read_text())
        assert summary["objective"] == 0.0
        assert summary["iterations"] == 0

    def test_accelerated_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((6, 6)))
        assert main(["decompose", mat, "--k0", "2", "--k1", "2",
                     "--mode", "accelerated", "--seed", "3",
                     "--out", str(tmp_path / "dec")]) == 0

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert main(["decompose", str(bad), "--k0", "1", "--k1", "0"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.csv"),
                     "--k0", "1", "--k1", "0"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--eps", "inf"), ("--eps", "nan"), ("--lam", "nan"),
        ("--mu", "inf")])
    def test_nonfinite_parameter_exit_2(self, tmp_path, capsys, flag, value):
        # --eps inf wrote X = Y = 0 after no iteration and exited 0
        mat = _witness_file(tmp_path)
        assert main(["decompose", mat, "--k0", "1", "--k1", "1", flag, value,
                     "--out", str(tmp_path / "dec")]) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "dec_X.csv").exists()

    def test_eps_below_float_resolution_exit_2(self, tmp_path, capsys):
        # 1 + 1e-17 rounds to 1, so the iteration bound divided by zero
        # and the command died with a ZeroDivisionError traceback
        mat = _witness_file(tmp_path)
        assert main(["decompose", mat, "--k0", "1", "--k1", "1", "--eps",
                     "1e-17", "--out", str(tmp_path / "dec")]) == 2
        assert "eps=1e-17 is too small" in capsys.readouterr().err


class TestBound:
    def test_witness_perspective(self, tmp_path, capsys):
        mat = _witness_file(tmp_path)
        assert main(["bound", mat, "--k0", "1", "--k1", "0",
                     "--lam", "1.0", "--mu", "1.0"]) == 0
        out = capsys.readouterr().out
        lb = float(out.splitlines()[0].split()[-1])
        assert lb == pytest.approx(1.5, abs=0.02)
        assert "bound gap" in out

    def test_witness_lee_zou(self, tmp_path, capsys):
        mat = _witness_file(tmp_path)
        assert main(["bound", mat, "--k0", "1", "--k1", "0", "--lam", "1.0",
                     "--mu", "1.0", "--variant", "leezou"]) == 0
        lb = float(capsys.readouterr().out.splitlines()[0].split()[-1])
        assert lb == pytest.approx(1.0, abs=0.02)

    def test_last_line_reports_status_and_certificate(self, tmp_path, capsys):
        mat = _witness_file(tmp_path)
        base = ["bound", mat, "--k0", "1", "--k1", "0", "--lam", "1.0",
                "--mu", "1.0"]
        assert main(base) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "solver status optimal, bound certified"
        lb, ub = (float(line.split()[2]) for line in lines[:2])
        assert lb <= ub
        assert main(base + ["--variant", "leezou"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "solver status optimal, bound certified"

    @pytest.mark.parametrize("variant", ["leezou"])
    def test_default_bounds_stay_below_the_upper_bound(self, tmp_path,
                                                       capsys, variant):
        # AM finds the optimum 0.0764 here; ||D||_2 and max |D_ij| as beta
        # and gamma gave lower bounds 0.2800 and 0.2625
        mat = _write_matrix(tmp_path / "d.csv", [[1.0, 1.0], [1.0, -1.0]])
        assert main(["bound", mat, "--k0", "1", "--k1", "1", "--lam", "0.01",
                     "--mu", "0.01", "--variant", variant]) == 0
        lines = capsys.readouterr().out.splitlines()
        lb, ub = (float(line.split()[2]) for line in lines[:2])
        assert ub == pytest.approx(0.076418, rel=1e-4)
        assert lb < ub

    @pytest.mark.parametrize("variant", ["perspective", "leezou"])
    def test_zero_matrix(self, tmp_path, capsys, variant):
        # the derived beta and gamma were 0 here, which the Lee-Zou
        # builder rejected
        mat = _write_matrix(tmp_path / "z.csv", np.zeros((3, 3)))
        assert main(["bound", mat, "--k0", "1", "--k1", "2",
                     "--variant", variant]) == 0
        lines = capsys.readouterr().out.splitlines()
        lb, ub = (float(line.split()[2]) for line in lines[:2])
        assert lb <= 0.0 <= ub
        assert lines[-1].endswith(", bound certified")

    def test_unknown_variant_usage_error(self, tmp_path):
        # strengthened, --beta and --gamma were removed: the strengthened
        # bound is never above the perspective one, and a given beta or
        # gamma could only weaken a bound or make it invalid
        mat = _witness_file(tmp_path)
        for extra in (["--variant", "magic"], ["--variant", "strengthened"],
                      ["--beta", "1"], ["--gamma", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["bound", mat, "--k0", "1", "--k1", "0"] + extra)
            assert exc.value.code == 2


class TestBnbCommand:
    def test_tight_root(self, tmp_path, capsys):
        mat = _witness_file(tmp_path)
        assert main(["bnb", mat, "--k0", "1", "--k1", "0",
                     "--lam", "1.0", "--mu", "1.0", "--eps", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "nodes explored 1" in out
        assert out.splitlines()[-1] == "stop reason gap"

    def test_trace_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((3, 3)))
        trace = tmp_path / "trace.csv"
        assert main(["bnb", mat, "--k0", "1", "--k1", "1",
                     "--lam", "1.0", "--mu", "1.0", "--eps", "0.01",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "node_index,ub,lb,time"
        assert len(lines) >= 2

    def test_node_limit_truncates(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((3, 3)))
        assert main(["bnb", mat, "--k0", "1", "--k1", "2",
                     "--eps", "0.0", "--node-limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "(truncated)" in out
        assert out.splitlines()[-1] == "stop reason node_limit"

    @pytest.mark.parametrize("args", [["--eps", "nan"],
                                      ["--node-limit", "-1"]])
    def test_bad_search_parameter_exit_2(self, tmp_path, capsys, args):
        # both ran and exited 0: a NaN eps never stopped on the gap, and
        # node limit -1 printed lower bound -inf after no node
        mat = _witness_file(tmp_path)
        assert main(["bnb", mat, "--k0", "1", "--k1", "0"] + args) == 2
        assert capsys.readouterr().out == ""


def _lapack_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("command,target", [
    ("decompose", "splr.linalg.truncated_svd"),
    ("bound", "splr.conic._project_psd"),
    ("bnb", "splr.conic._project_psd"),
])
def test_lapack_failure_is_a_solver_failure(tmp_path, capsys, monkeypatch,
                                            command, target):
    # LinAlgError subclasses ValueError, but it is not an input error
    mat = _write_matrix(tmp_path / "d.csv", [[2.0, 0.5], [0.5, 1.0]])
    monkeypatch.setattr(target, _lapack_fails)
    monkeypatch.chdir(tmp_path)
    assert main([command, mat, "--k0", "1", "--k1", "1"]) == 1
    assert capsys.readouterr().err == \
        "numerical failure: did not converge\n"


class TestSynth:
    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth", "--n", "4", "--k0", "1", "--k1", "2",
                         "--sigma", "1.0", "--seed", "7",
                         "--out", str(tmp_path / sub)]) == 0
        for part in ("_D.csv", "_L.csv", "_S.csv", "_N.csv"):
            assert (tmp_path / ("a" + part)).read_bytes() == \
                (tmp_path / ("b" + part)).read_bytes()

    def test_negative_k1_exit_2(self, tmp_path):
        for k1 in ("-1", "-2"):
            assert main(["synth", "--n", "4", "--k0", "1", "--k1", k1,
                         "--out", str(tmp_path / "inst")]) == 2
        assert not list(tmp_path.iterdir())

    def test_parts_sum(self, tmp_path):
        assert main(["synth", "--n", "5", "--k0", "2", "--k1", "4",
                     "--sigma", "2.0", "--seed", "1",
                     "--out", str(tmp_path / "inst")]) == 0
        D = linalg.read_matrix_csv(tmp_path / "inst_D.csv")
        L = linalg.read_matrix_csv(tmp_path / "inst_L.csv")
        S = linalg.read_matrix_csv(tmp_path / "inst_S.csv")
        N = linalg.read_matrix_csv(tmp_path / "inst_N.csv")
        np.testing.assert_array_equal(D, L + S + N)


class TestCv:
    def test_single_point_grid_echoes(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((8, 8)))
        assert main(["cv", mat, "--k0", "1", "--k1", "2",
                     "--grid", "0.5", "--folds", "3"]) == 0
        out = capsys.readouterr().out
        assert "best lam 0.5" in out
        assert "best mu 0.5" in out

    def test_scale_by_sqrt_n(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((9, 9)))
        assert main(["cv", mat, "--k0", "1", "--k1", "2",
                     "--grid", "3.0", "--folds", "2",
                     "--scale-by-sqrt-n"]) == 0
        out = capsys.readouterr().out
        assert f"best lam {3.0 / 3.0:.8g}" in out

    def test_nonpositive_folds_exit_2(self, tmp_path):
        rng = np.random.default_rng(6)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((8, 8)))
        for folds in ("0", "-1"):
            assert main(["cv", mat, "--k0", "1", "--k1", "2",
                         "--grid", "0.5", "--folds", folds]) == 2

    def test_defaults_are_the_experiments_constants(self):
        args = build_parser().parse_args(["cv", "d.csv", "--k0", "1",
                                          "--k1", "2"])
        assert args.folds == experiments.DEFAULT_CV_FOLDS
        assert (experiments.cv_grid(args.grid.split(","))
                == experiments.cv_grid(experiments.DEFAULT_CV_GRID))

    @pytest.mark.parametrize("k0,k1,message", [
        ("5", "4", "k0=5 out of range [1, 4]"),
        ("1", "100", "k1=100 out of range [0, 16]")])
    def test_budget_out_of_range_exit_2(self, tmp_path, capsys, k0, k1,
                                        message):
        # the fits clamped k0 to the block size and k1 to its cells, so
        # the command printed a table and exited 0
        mat = _write_matrix(tmp_path / "d.csv", np.eye(4))
        assert main(["cv", mat, "--k0", k0, "--k1", k1, "--grid", "0.5",
                     "--folds", "2"]) == 2
        assert message in capsys.readouterr().err

    def test_non_square_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        mat = _write_matrix(tmp_path / "d.csv", rng.standard_normal((6, 4)))
        assert main(["cv", mat, "--k0", "1", "--k1", "2",
                     "--grid", "0.5", "--folds", "2"]) == 2
        assert "square" in capsys.readouterr().err


class TestBench:
    def test_counting_and_plot(self, tmp_path, capsys):
        cfg = {
            "experiment_name": "cli-bench",
            "methods": ["godec"],
            "n": [5, 6],
            "k0": [1],
            "k1": [2],
            "sigma": [1.0],
            "trials": 2,
            "seed_base": 0,
            "epsilon": 0.001,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        svg = tmp_path / "res.svg"
        assert main(["bench", str(cfg_path), "--out", str(out),
                     "--plot", str(svg)]) == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        assert svg.read_text().startswith("<svg")

    def test_failure_rows_exit_1(self, tmp_path):
        cfg = {
            "experiment_name": "cli-bench",
            "methods": ["definitely-not-a-method"],
            "n": [4], "k0": [1], "k1": [1], "sigma": [1.0],
            "trials": 1, "seed_base": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", str(cfg_path),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["bench", str(cfg_path),
                     "--out", str(tmp_path / "r.csv")]) == 2


def _readme_commands():
    """The `splr ...` lines of the README's Command line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("splr ")]


class TestReadme:
    def test_command_line_examples_parse(self):
        commands = _readme_commands()
        assert [argv[0] for argv in commands] == [
            "decompose", "bound", "bnb", "synth", "cv", "bench"]
        for argv in commands:
            build_parser().parse_args(argv)


_IMPORT_PROBE = """
import sys
import numpy as np
import splr, splr.cli
assert "scipy.sparse" not in sys.modules, "import splr loaded scipy.sparse"
from splr.core import ProblemInstance
from splr.relaxations import build_perspective_relaxation
D = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
res = build_perspective_relaxation(ProblemInstance(D, 1, 2, 1.0, 1.0)).solve()
assert res.solver_status == "optimal", res.solver_status
assert np.isfinite(res.lower_bound)
"""


def test_import_loads_no_scipy_until_a_build():
    # decompose, synth, cv and bench never build a cone program, so
    # importing the package must not pay for scipy.sparse; the first
    # relaxation build loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""Tests for the synthetic benchmark harness."""

import csv
import json
import math

import numpy as np
import pytest

from splr.altmin import alternating_minimization
from splr.core import ProblemInstance
from splr.experiments import (CSV_HEADER, am_cv_fit, compute_metrics,
                              cross_validate, generate_instance, plot_results,
                              run_experiment, _run_method)


class TestGenerateInstance:
    def test_invariants(self):
        for seed in range(5):
            inst = generate_instance(8, 2, 7, 2.0, seed)
            np.testing.assert_array_equal(inst.D, inst.L + inst.S + inst.N)
            np.testing.assert_array_equal(inst.D, inst.D.T)
            np.testing.assert_array_equal(inst.S, inst.S.T)
            np.testing.assert_array_equal(inst.N, inst.N.T)
            assert np.linalg.matrix_rank(inst.L) <= 2
            assert np.count_nonzero(inst.S) == 7

    def test_noise_only_degenerate(self):
        inst = generate_instance(5, 1, 0, 0.0, 0)
        np.testing.assert_array_equal(inst.L, np.zeros((5, 5)))
        np.testing.assert_array_equal(inst.S, np.zeros((5, 5)))
        np.testing.assert_array_equal(inst.D, inst.N)

    def test_odd_k1_includes_diagonal(self):
        for seed in range(5):
            inst = generate_instance(6, 1, 5, 1.0, seed)
            assert np.count_nonzero(np.diag(inst.S)) >= 1

    def test_deterministic(self):
        a = generate_instance(6, 2, 4, 3.0, 42)
        b = generate_instance(6, 2, 4, 3.0, 42)
        np.testing.assert_array_equal(a.D, b.D)
        np.testing.assert_array_equal(a.S, b.S)

    def test_rejects_oversized_k1(self):
        with pytest.raises(ValueError):
            generate_instance(2, 1, 5, 1.0, 0)

    def test_rejects_negative_k1(self):
        for k1 in (-1, -2):
            with pytest.raises(ValueError, match="outside"):
                generate_instance(4, 1, k1, 1.0, 0)

    def test_lowrank_energy_monte_carlo(self):
        # mean ||L||_F^2 over fresh draws agrees with a larger
        # Monte-Carlo estimate of the same statistic
        n, k0, sigma = 20, 3, 2.0
        small = np.mean([np.sum(generate_instance(n, k0, 0, sigma, s).L ** 2)
                         for s in range(200)])
        rng = np.random.default_rng(12345)
        draws = []
        for _ in range(10000):
            V = rng.normal(0.0, sigma / math.sqrt(n), size=(n, k0))
            draws.append(np.sum((V @ V.T) ** 2))
        assert abs(small - np.mean(draws)) <= 0.1 * np.mean(draws)


class TestCrossValidate:
    def test_single_point_grid(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((6, 6))
        lam, mu, scores = cross_validate(D, lambda Dt, l, m: Dt, [(0.7, 1.3)],
                                         folds=3)
        assert (lam, mu) == (0.7, 1.3)
        assert set(scores) == {(0.7, 1.3)}

    def test_grid_order_invariance(self):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((8, 8))

        def fit(Dt, lam, mu):
            return Dt / (1.0 + lam + mu)

        grid = [(0.1, 0.1), (1.0, 0.1), (0.1, 1.0), (1.0, 1.0)]
        a = cross_validate(D, fit, grid, folds=5, seed=3)
        b = cross_validate(D, fit, list(reversed(grid)), folds=5, seed=3)
        assert a[:2] == b[:2]
        assert a[2] == b[2]

    def test_ties_go_to_lexicographically_smaller(self):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((6, 6))
        # method ignores the hyperparameters, so every score ties
        lam, mu, _ = cross_validate(D, lambda Dt, l, m: Dt,
                                    [(2.0, 1.0), (1.0, 3.0), (1.0, 2.0)],
                                    folds=3)
        assert (lam, mu) == (1.0, 2.0)

    def test_repeated_point_scored_once(self):
        # a repeated grid point is one candidate: its score is not summed
        # once per repeat, and it is fitted once per fold
        D = np.random.default_rng(4).standard_normal((8, 8))
        calls = []

        def fit(Dt, lam, mu):
            calls.append((lam, mu))
            return Dt / (1.0 + lam + mu)

        grid = [(0.1, 0.1), (1.0, 1.0)]
        once = cross_validate(D, fit, grid, folds=3)
        n_calls = len(calls)
        twice = cross_validate(D, fit, [(0.1, 0.1)] + grid + [(1, 1)],
                               folds=3)
        assert twice == once
        assert len(calls) == 2 * n_calls

    def test_rejects_small_n_and_empty_grid(self):
        with pytest.raises(ValueError):
            cross_validate(np.eye(3), lambda *a: None, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            cross_validate(np.eye(6), lambda *a: None, [])

    def test_rejects_fewer_than_one_fold(self):
        D = np.random.default_rng(3).standard_normal((6, 6))
        for folds in (0, -1):
            with pytest.raises(ValueError):
                cross_validate(D, lambda Dt, l, m: Dt, [(1.0, 1.0)],
                               folds=folds)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((7, 7))

        def fit(Dt, lam, mu):
            return Dt / (1.0 + lam)

        grid = [(0.5, 0.5), (2.0, 2.0)]
        assert cross_validate(D, fit, grid, seed=9) == \
            cross_validate(D, fit, grid, seed=9)


class TestAmCvFit:
    def test_scales_budgets_to_the_block(self):
        D = np.random.default_rng(12).standard_normal((6, 6))
        X = am_cv_fit(k0=8, k1=20, n=10, eps=1e-3)(D, 0.5, 0.25)
        # a 6 x 6 block of a 10 x 10 problem: k0 clamps to 6 and
        # k1 = round(20 * 0.36) = 7
        ref, _ = alternating_minimization(
            ProblemInstance(D, 6, 7, 0.5, 0.25), eps=1e-3)
        np.testing.assert_array_equal(X, ref.X)

    def test_cv_am_recovers_l_on_seed_20(self):
        # criterion 9's instance at seed 20: CV'd AM reads l_error 0.0156.
        # Warm-starting each CV fit from the previous grid point's (X, Y)
        # in the same fold read 0.147 here, outside criterion 9's range
        inst = generate_instance(60, 9, 540, 10, 20)
        sol, _ = _run_method("am", inst, 0.001, {"cv": True})
        assert 0.005 <= compute_metrics(sol, inst).l_error <= 0.06


class TestComputeMetrics:
    def test_perfect_recovery(self):
        inst = generate_instance(5, 1, 4, 1.0, 0)

        class Sol:
            X, Y = inst.L, inst.S

        met = compute_metrics(Sol, inst)
        assert met.l_error == 0.0
        assert met.s_error == 0.0
        assert met.discovery_rate == 1.0

    def test_zero_sparse_estimate(self):
        inst = generate_instance(5, 1, 4, 1.0, 1)

        class Sol:
            X, Y = inst.L, np.zeros((5, 5))

        assert compute_metrics(Sol, inst).discovery_rate == 0.0

    def test_hand_built_case(self):
        inst = generate_instance(4, 1, 2, 1.0, 2)

        class Sol:
            X = inst.L + 0.5
            Y = inst.S.copy()

        met = compute_metrics(Sol, inst)
        ref = np.sum((Sol.X - inst.L) ** 2) / np.sum(inst.L ** 2)
        assert met.l_error == pytest.approx(ref, abs=1e-12)
        assert met.s_error == 0.0


def _small_config(name="unit", methods=("godec",), trials=1):
    return {
        "experiment_name": name,
        "methods": list(methods),
        "n": [6],
        "k0": [1],
        "k1": [2],
        "sigma": [1.0],
        "trials": trials,
        "seed_base": 0,
        "epsilon": 0.001,
        "hyperparams": {"lam": 0.1, "mu": 0.1},
    }


def _read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestRunExperiment:
    def test_row_counting(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = run_experiment(_small_config(methods=("godec", "am"),
                                            trials=2), out)
        assert len(rows) == 4
        data = _read_rows(out)
        assert data[0] == CSV_HEADER.split(",")
        assert len(data) == 5

    def test_config_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_small_config()))
        rows = run_experiment(str(cfg), tmp_path / "r.csv")
        assert len(rows) == 1
        assert rows[0][-1] == "ok"

    def test_failures_recorded_not_raised(self, tmp_path):
        cfg = _small_config(methods=("godec", "no-such-method"))
        rows = run_experiment(cfg, tmp_path / "r.csv")
        statuses = [r[-1] for r in rows]
        assert "ok" in statuses
        assert any(s.startswith("error:") for s in statuses)

    def test_rerun_identical_modulo_runtime(self, tmp_path):
        cfg = _small_config(methods=("godec", "am", "scaledgd"))
        run_experiment(cfg, tmp_path / "a.csv")
        run_experiment(cfg, tmp_path / "b.csv")
        a = _read_rows(tmp_path / "a.csv")
        b = _read_rows(tmp_path / "b.csv")
        rt = a[0].index("runtime_s")
        for ra, rb in zip(a, b):
            assert ra[:rt] == rb[:rt]
            assert ra[rt + 1:] == rb[rt + 1:]

    def test_am_accelerated_and_spcp_run(self, tmp_path):
        cfg = _small_config(methods=("am_accelerated", "spcp"))
        rows = run_experiment(cfg, tmp_path / "r.csv")
        assert all(r[-1] == "ok" for r in rows)


class TestPlotResults:
    def test_writes_svg(self, tmp_path):
        cfg = _small_config(methods=("godec", "am"), trials=2)
        cfg["n"] = [5, 7]
        out = tmp_path / "r.csv"
        run_experiment(cfg, out)
        svg = tmp_path / "plot.svg"
        plot_results(out, svg, x_param="n", metric="l_error")
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2

    def test_rejects_empty(self, tmp_path):
        out = tmp_path / "r.csv"
        out.write_text(CSV_HEADER + "\n")
        with pytest.raises(ValueError):
            plot_results(out, tmp_path / "p.svg")

"""Tests for the comparator methods."""

import numpy as np
import pytest

from splr.altmin import solve_lowrank_subproblem, solve_sparse_subproblem
from splr.baselines import godec, scaled_gd, spcp


class TestGodec:
    def test_zero_input(self):
        sol, trace = godec(np.zeros((3, 3)), 1, 2)
        np.testing.assert_array_equal(sol.X, np.zeros((3, 3)))
        np.testing.assert_array_equal(sol.Y, np.zeros((3, 3)))
        assert sol.objective == 0.0
        assert sol.rank_of_X == 0 and sol.nnz_of_Y == 0

    def test_exact_recovery_disjoint_energy(self):
        n = 5
        L = np.zeros((n, n))
        L[0, 0] = 10.0                     # rank-1 part
        S = np.zeros((n, n))
        S[2, 3] = 5.0                      # sparse part off L's support
        D = L + S
        sol, _ = godec(D, 1, 1, eps=1e-12)
        np.testing.assert_allclose(sol.X, L, atol=1e-8)
        np.testing.assert_allclose(sol.Y, S, atol=1e-8)
        assert sol.objective <= 1e-12

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(0)
        _, trace = godec(rng.standard_normal((8, 8)), 2, 5)
        assert all(trace[i + 1] <= trace[i] + 1e-12
                   for i in range(len(trace) - 1))

    def test_matches_unregularized_subproblem_steps(self):
        # one GoDec sweep is exactly the two closed-form updates at
        # lam = mu = 0
        rng = np.random.default_rng(1)
        D = rng.standard_normal((5, 5))
        k0, k1 = 2, 3
        Y = np.zeros_like(D)
        X = solve_lowrank_subproblem(D - Y, k0, 0.0)
        Y = solve_sparse_subproblem(D - X, k1, 0.0)
        sol, _ = godec(D, k0, k1, max_iters=1)
        np.testing.assert_allclose(sol.X, X, atol=1e-12)
        np.testing.assert_allclose(sol.Y, Y, atol=1e-12)


class TestSpcp:
    def test_zero_input(self):
        sol, trace = spcp(np.zeros((3, 3)), 1.0)
        assert sol.objective == 0.0
        assert sol.rank_of_X == 0 and sol.nnz_of_Y == 0
        assert trace == [0.0, 0.0]

    def test_scalar_matches_grid_oracle(self):
        # 1x1 problem: min |x| + |y| + (1/(2 mu)) (d - x - y)^2
        d, mu_pen = 3.0, 0.5
        sol, trace = spcp(np.array([[d]]), mu_pen, tol=1e-10)
        grid = np.arange(-4.0, 4.0001, 0.001)
        vals = np.abs(grid[:, None]) + np.abs(grid[None, :]) \
            + (d - grid[:, None] - grid[None, :]) ** 2 / (2 * mu_pen)
        ref = vals.min()
        got = (abs(sol.X[0, 0]) + abs(sol.Y[0, 0])
               + (d - sol.X[0, 0] - sol.Y[0, 0]) ** 2 / (2 * mu_pen))
        assert got == pytest.approx(ref, abs=1e-4)
        # the trace holds SPCP's own objective, from the start X = Y = 0
        assert trace[0] == d * d / (2 * mu_pen)
        assert trace[-1] == pytest.approx(got, rel=1e-12)

    def test_self_consistent_long_run(self):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((6, 6))
        short, _ = spcp(D, 1.0, tol=1e-8, max_iters=2000)
        long, _ = spcp(D, 1.0, tol=1e-12, max_iters=20000)

        def total(sol):
            s = np.linalg.svd(sol.X, compute_uv=False)
            return (np.sum(s) + np.sum(np.abs(sol.Y)) / np.sqrt(6)
                    + np.sum((D - sol.X - sol.Y) ** 2) / 2.0)

        assert total(short) == pytest.approx(total(long), rel=1e-3)

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ValueError):
            spcp(np.eye(2), 0.0)


class TestScaledGd:
    def test_exact_lowrank_recovery(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
        sol, _ = scaled_gd(D, 2, gamma_frac=0.0)
        assert np.linalg.norm(sol.X - D) / np.linalg.norm(D) <= 1e-3

    def test_full_rank_psd_fixed_point(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((4, 4))
        D = G @ G.T + np.eye(4)
        sol, _ = scaled_gd(D, 4, gamma_frac=0.0)
        assert np.linalg.norm(sol.X - D) / np.linalg.norm(D) <= 1e-6

    def test_trace_eventually_non_increasing(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 10))
        D[1, 7] += 6.0
        _, trace = scaled_gd(D, 3, gamma_frac=0.01)
        tail = trace[10:]
        assert all(tail[i + 1] <= tail[i] + 1e-9 for i in range(len(tail) - 1))

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            scaled_gd(np.eye(3), 0)

    @pytest.mark.parametrize("frac", [np.nan, -1.0, 2.0, np.inf])
    def test_rejects_a_fraction_outside_the_unit_interval(self, frac):
        # NaN raised from math.ceil, -1.0 was read as 0 and 2.0 as 1
        with pytest.raises(ValueError, match="gamma_frac"):
            scaled_gd(np.eye(6), 1, gamma_frac=frac)

    def test_fraction_ends_keep_none_or_every_entry(self):
        D = np.arange(36.0).reshape(6, 6)
        assert scaled_gd(D, 1, gamma_frac=0.0)[0].nnz_of_Y == 0
        assert scaled_gd(D, 1, gamma_frac=1.0)[0].nnz_of_Y == 35

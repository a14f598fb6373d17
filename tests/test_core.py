"""Tests for the problem definition and analytic helper facts."""

import math

import numpy as np
import pytest

from splr.core import (ProblemInstance, convexity_constants,
                       matrix_completion_objective, objective,
                       reverse_huber_penalty, unconstrained_min_value,
                       worst_case_perturbations)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestProblemInstance:
    def test_valid(self):
        inst = ProblemInstance(np.eye(3), 2, 4, 0.5, 1.5)
        assert inst.n == 3

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ProblemInstance(np.ones((2, 3)), 1, 0, 1.0, 1.0)

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            ProblemInstance(np.eye(2), 0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ProblemInstance(np.eye(2), 3, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ProblemInstance(np.eye(2), 1, 5, 1.0, 1.0)

    def test_budgets_must_be_integers(self):
        # numpy integers pass as the ints they hold
        inst = ProblemInstance(np.eye(3), np.int64(2), np.int32(4), 1.0, 1.0)
        assert (inst.k0, inst.k1) == (2, 4)
        assert type(inst.k0) is int and type(inst.k1) is int
        for k0, k1 in ((1.5, 2), (1, 2.0), (2.0, 2), ("1", 2), (1, None)):
            with pytest.raises(ValueError, match="not an integer"):
                ProblemInstance(np.eye(3), k0, k1, 1.0, 1.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            ProblemInstance(np.eye(2), 1, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ProblemInstance(np.eye(2), 1, 0, 1.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ProblemInstance(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1, 0, 1, 1)

    @pytest.mark.parametrize("lam,mu,name", [
        (math.nan, 1.0, "lam"), (math.inf, 0.1, "lam"),
        (1.0, math.nan, "mu"), (1.0, math.inf, "mu"),
    ])
    def test_rejects_nonfinite_weights(self, lam, mu, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ProblemInstance(np.eye(2), 1, 2, lam, mu)


class TestObjective:
    def test_zero_candidates(self):
        D = _rng(0).standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 0, 1.0, 1.0)
        Z = np.zeros((3, 3))
        assert objective(inst, Z, Z) == pytest.approx(np.sum(D * D))

    def test_perfect_lowrank_fit(self):
        D = np.eye(2) * 2.0
        inst = ProblemInstance(D, 2, 0, 1.0, 1.0)
        assert objective(inst, D, np.zeros((2, 2))) == pytest.approx(np.sum(D * D))

    def test_matches_double_loop_oracle(self):
        rng = _rng(1)
        D, X, Y = (rng.standard_normal((3, 3)) for _ in range(3))
        lam, mu = 0.7, 1.3
        inst = ProblemInstance(D, 2, 3, lam, mu)
        ref = 0.0
        for i in range(3):
            for j in range(3):
                ref += (D[i, j] - X[i, j] - Y[i, j]) ** 2
                ref += lam * X[i, j] ** 2 + mu * Y[i, j] ** 2
        assert objective(inst, X, Y) == pytest.approx(ref, abs=1e-12)

    def test_shape_mismatch(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            objective(inst, np.eye(3), np.eye(2))

    def test_stack_gives_each_matrix_its_own_float(self):
        rng = _rng(2)
        for n in (3, 8, 51):
            D = rng.standard_normal((n, n))
            X, Y = rng.standard_normal((2, 4, n, n))
            inst = ProblemInstance(D, 1, 0, 0.3, 1.7)
            f = objective(inst, X, Y)
            assert f.shape == (4,)
            assert f.tolist() == [objective(inst, X[b], Y[b])
                                  for b in range(4)]
        with pytest.raises(ValueError):
            objective(inst, np.zeros((2, n, n - 1)), Y)


class TestConvexityConstants:
    @pytest.mark.parametrize("lam,mu,m,L,kappa", [
        (1.0, 1.0, 2.0, 8.0, 4.0),
        (1.0, 2.0, 2.0, 10.0, 5.0),
        (3.0, 3.0, 6.0, 12.0, 2.0),
    ])
    def test_values(self, lam, mu, m, L, kappa):
        c = convexity_constants(lam, mu)
        assert (c.m, c.L, c.kappa) == (m, L, kappa)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            convexity_constants(0.0, 1.0)

    def test_midpoint_strong_convexity_and_smoothness(self):
        # f is m-strongly convex and L-smooth jointly in (X, Y); both
        # show up as two-sided bounds on the midpoint defect
        rng = _rng(2)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            lam, mu = rng.uniform(0.1, 3.0, size=2)
            inst = ProblemInstance(rng.standard_normal((n, n)), 1, 1, lam, mu)
            X1, Y1, X2, Y2 = (rng.standard_normal((n, n)) for _ in range(4))
            c = convexity_constants(lam, mu)
            f1 = objective(inst, X1, Y1)
            f2 = objective(inst, X2, Y2)
            fm = objective(inst, (X1 + X2) / 2, (Y1 + Y2) / 2)
            dist2 = np.sum((X1 - X2) ** 2) + np.sum((Y1 - Y2) ** 2)
            defect = 0.5 * f1 + 0.5 * f2 - fm
            assert defect >= c.m / 8.0 * dist2 - 1e-9 * (1 + abs(f1) + abs(f2))
            assert defect <= c.L / 8.0 * dist2 + 1e-9 * (1 + abs(f1) + abs(f2))


class TestWorstCasePerturbations:
    def test_zero_candidates(self):
        D = _rng(3).standard_normal((2, 2))
        inst = ProblemInstance(D, 1, 0, 1.0, 1.0)
        Z = np.zeros((2, 2))
        d1, d2, degenerate = worst_case_perturbations(inst, Z, Z)
        assert not degenerate
        np.testing.assert_array_equal(d1, Z)
        np.testing.assert_array_equal(d2, Z)
        assert np.linalg.norm(D + d1 + d2) == pytest.approx(np.linalg.norm(D))

    def test_identity_example(self):
        inst = ProblemInstance(2.0 * np.eye(2), 1, 0, 1.0, 1.0)
        X, Y = np.eye(2), np.zeros((2, 2))
        d1, d2, degenerate = worst_case_perturbations(inst, X, Y)
        assert not degenerate
        np.testing.assert_allclose(d1, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(d2, np.zeros((2, 2)), atol=1e-12)
        perturbed = np.linalg.norm(inst.D + d1 + d2 - X - Y)
        assert perturbed == pytest.approx(2.0 * math.sqrt(2.0))

    def test_identity_postcondition(self):
        rng = _rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            lam, mu = rng.uniform(0.1, 3.0, size=2)
            inst = ProblemInstance(rng.standard_normal((n, n)), 1, 1, lam, mu)
            X, Y = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            d1, d2, degenerate = worst_case_perturbations(inst, X, Y)
            assert not degenerate
            lhs = np.linalg.norm(inst.D + d1 + d2 - X - Y)
            rhs = (np.linalg.norm(inst.D - X - Y)
                   + lam * np.linalg.norm(X) + mu * np.linalg.norm(Y))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_degenerate_zero_residual(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        d1, d2, degenerate = worst_case_perturbations(inst, np.eye(2),
                                                      np.zeros((2, 2)))
        assert degenerate
        np.testing.assert_array_equal(d1, np.zeros((2, 2)))


class TestUnconstrainedMin:
    def test_equal_weights(self):
        D = _rng(5).standard_normal((4, 4))
        inst = ProblemInstance(D, 1, 0, 1.0, 1.0)
        assert unconstrained_min_value(inst) == pytest.approx(np.sum(D * D) / 3)

    def test_zero_matrix(self):
        inst = ProblemInstance(np.zeros((2, 2)), 1, 0, 1.0, 1.0)
        assert unconstrained_min_value(inst) == 0.0

    def test_forced_arithmetic(self):
        # lam=2, mu=1, ||D||^2=6 -> (2/5)*6
        D = np.diag([math.sqrt(6.0), 0.0])
        inst = ProblemInstance(D, 1, 0, 2.0, 1.0)
        assert unconstrained_min_value(inst) == pytest.approx(2.4)


class TestMatrixCompletionObjective:
    def test_all_zero_support(self):
        rng = _rng(6)
        D, X = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 2, 0.8, 1.2)
        got = matrix_completion_objective(inst, X, np.zeros((3, 3)))
        ref = 0.8 * np.sum(X * X) + np.sum((D - X) ** 2)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_all_ones_support_at_zero(self):
        D = _rng(7).standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 9, 1.0, 2.0)
        got = matrix_completion_objective(inst, np.zeros((3, 3)), np.ones((3, 3)))
        assert got == pytest.approx(2.0 / 3.0 * np.sum(D * D), abs=1e-10)

    def test_equals_inner_minimum_over_y(self):
        rng = _rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            D, X = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            mu = rng.uniform(0.2, 3.0)
            inst = ProblemInstance(D, 1, n * n, 1.0, mu)
            Z = (rng.random((n, n)) < 0.5).astype(float)
            Ystar = Z * (D - X) / (1.0 + mu)
            got = matrix_completion_objective(inst, X, Z)
            assert got == pytest.approx(objective(inst, X, Ystar), abs=1e-10)
            # any other support-respecting Y does no better
            Yother = Ystar + Z * rng.standard_normal((n, n)) * 0.1
            assert objective(inst, X, Yother) >= got - 1e-12

    def test_rejects_non_binary(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            matrix_completion_objective(inst, np.eye(2), 0.5 * np.ones((2, 2)))


class TestReverseHuber:
    def test_zero(self):
        assert reverse_huber_penalty(0.0, 1.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        # z* capped at 1 for |y| >= sqrt(rho/mu)
        assert reverse_huber_penalty(2.0, 1.0, 1.0) == pytest.approx(5.0)

    def test_linear_branch(self):
        assert reverse_huber_penalty(0.5, 1.0, 1.0) == pytest.approx(1.0)

    def test_matches_grid_oracle(self):
        z = np.arange(1, 1_000_001) * 1e-6
        for mu in (0.5, 2.0):
            for rho in (0.5, 2.0):
                for y in (-1.7, -0.2, 0.05, 0.9, 3.0):
                    ref = float(np.min(mu * y * y / z + rho * z))
                    got = reverse_huber_penalty(y, mu, rho)
                    assert got == pytest.approx(ref, abs=1e-5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reverse_huber_penalty(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            reverse_huber_penalty(1.0, 1.0, -2.0)

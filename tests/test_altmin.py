"""Tests for the alternating-minimization module."""

import itertools
import math

import numpy as np
import pytest

from splr import altmin, linalg
from splr.altmin import (AmTrace, SparsityPattern, alternating_minimization,
                         fixed_pattern_certificate, iteration_bound,
                         multistart_alternating_minimization,
                         solve_lowrank_subproblem, solve_sparse_subproblem)
from splr.core import ProblemInstance, objective, unconstrained_min_value


def _rng(seed=0):
    return np.random.default_rng(seed)


def _full_pattern(n, support):
    cells = {(i, j) for i in range(n) for j in range(n)}
    keep = set(support)
    return SparsityPattern(n, frozenset(cells - keep), frozenset(keep))


class TestSparsityPattern:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SparsityPattern(2, {(0, 0)}, {(0, 0)})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparsityPattern(2, {(2, 0)}, set())

    def test_non_integer_cell_rejected(self):
        for cell in ((0, 1.5), (1.0, 0), (0, 1, 2), (1,), "ab", 3):
            with pytest.raises(ValueError, match="pair of integers"):
                SparsityPattern(3, I0={cell})
            with pytest.raises(ValueError, match="pair of integers"):
                SparsityPattern(3, I1=[cell])
        # numpy integers pass as the ints they hold
        pattern = SparsityPattern(3, I0=[(np.int64(0), np.int32(2))],
                                  I1=np.array([[1, 1]]))
        assert pattern.I0 == {(0, 2)} and pattern.I1 == {(1, 1)}
        assert all(type(i) is int for cell in pattern.I1 for i in cell)

    def test_size_must_be_a_positive_integer(self):
        for n in (2.5, "3", None):
            with pytest.raises(ValueError, match="not an integer"):
                SparsityPattern(n, I0={(0, 0)})
        for n in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                SparsityPattern(n)
        pattern = SparsityPattern(np.int64(2), I1={(1, 1)})
        assert type(pattern.n) is int and pattern.keep.shape == (2, 2)

    def test_is_complete(self):
        full = _full_pattern(2, [(0, 1)])
        assert full.is_complete(1)
        assert SparsityPattern(2, I1={(0, 1)}).is_complete(1)
        assert not SparsityPattern(2).is_complete(1)

    def test_check(self):
        SparsityPattern(2, I1={(0, 0)}).check(2, 1)
        with pytest.raises(ValueError, match="exceeds k1"):
            SparsityPattern(2, I1={(0, 0), (1, 1)}).check(2, 1)
        with pytest.raises(ValueError, match="exceeds n"):
            SparsityPattern(2, I0={(i, j) for i in range(2)
                                   for j in range(2)}).check(2, 1)
        with pytest.raises(ValueError, match="does not match"):
            SparsityPattern(2, I1={(0, 0)}).check(3, 1)

    def test_masks(self):
        pattern = SparsityPattern(3, I0={(0, 1), (2, 0)}, I1=[(1, 1)])
        np.testing.assert_array_equal(
            pattern.zero, [[0, 1, 0], [0, 0, 0], [1, 0, 0]])
        np.testing.assert_array_equal(
            pattern.keep, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert pattern.zero.dtype == bool and pattern.keep.dtype == bool
        # built once, on first use, and read-only
        assert pattern.zero is pattern.zero
        assert not pattern.keep.flags.writeable
        assert "keep" not in vars(SparsityPattern(3, I1={(0, 0)}))
        assert not SparsityPattern(2).zero.any()


class TestIterationBound:
    @pytest.mark.parametrize("lam,mu,eps,expected", [
        (1.0, 1.0, 2.0, 1.0),
        (1.0, 1.0, 0.1, math.log(3.0) / math.log(1.1)),
        (2.0, 2.0, 1.0, 1.0),
    ])
    def test_values(self, lam, mu, eps, expected):
        assert iteration_bound(lam, mu, eps) == pytest.approx(expected)

    def test_eps_below_float_resolution(self):
        # log(1 + 1e-17) is 0.0, so the bound divided by zero; the
        # smallest eps that still moves 1 keeps the log(1 + eps) formula
        with pytest.raises(ValueError, match="^eps=1e-17 is too small"):
            iteration_bound(1.0, 1.0, 1e-17)
        eps = math.nextafter(math.ulp(1.0) / 2, 1.0)
        assert iteration_bound(1.0, 1.0, eps) == (math.log1p(2.0)
                                                  / math.log(1.0 + eps))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            iteration_bound(0.0, 1.0, 0.1)

    def test_positive_at_any_finite_weights(self):
        # the old numerator log((mu+lam+mu*lam)/(mu*lam)) was NaN at
        # lam = mu = 1e200, divided by zero at 1e-200, and rounded to 0 at
        # 1e154; 1/lam overflows to inf below about 5.6e-309
        rng = np.random.default_rng(0)
        lam, mu = 10.0 ** rng.uniform(-320, 300, size=(2, 2000))
        extremes = [(1e200, 1e200), (1e-200, 1e-200), (1e-320, 1.0),
                    (1e154, 1e154), (1e300, 1e300), (5e-324, 5e-324)]
        for a, b in [*zip(lam.tolist(), mu.tolist()), *extremes]:
            for eps in (2.0, 1e-4, 1e-12):
                assert iteration_bound(a, b, eps) > 0
        assert iteration_bound(1e-320, 1.0, 1e-4) == math.inf

    @pytest.mark.parametrize("args,name", [
        ((math.nan, 1.0, 0.1), "lam"),
        ((1.0, math.inf, 0.1), "mu"),
        ((1.0, 1.0, math.inf), "eps"),
        ((1.0, 1.0, math.nan), "eps"),
    ])
    def test_rejects_nonfinite(self, args, name):
        # eps = inf gave a bound of 0.0 iterations
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            iteration_bound(*args)


class TestLowrankSubproblem:
    def test_diagonal(self):
        X = solve_lowrank_subproblem(np.diag([2.0, 0.0]), 1, 1.0)
        np.testing.assert_allclose(X, np.diag([1.0, 0.0]), atol=1e-12)

    def test_lambda_zero_full_rank(self):
        D = _rng(0).standard_normal((3, 3))
        np.testing.assert_allclose(solve_lowrank_subproblem(D, 3, 0.0), D,
                                   atol=1e-10)

    def test_spectral_closed_form(self):
        # objective at the minimizer:
        # lam/(1+lam)*sum_{i<=k0} phi_i^2 + sum_{i>k0} phi_i^2
        rng = _rng(1)
        G = rng.standard_normal((8, 8))
        Dbar = G + G.T
        phi = np.linalg.svd(Dbar, compute_uv=False)
        for lam in (0.3, 1.0, 4.0):
            for k0 in (1, 3, 8):
                X = solve_lowrank_subproblem(Dbar, k0, lam)
                got = np.sum((Dbar - X) ** 2) + lam * np.sum(X * X)
                ref = (lam / (1 + lam) * np.sum(phi[:k0] ** 2)
                       + np.sum(phi[k0:] ** 2))
                assert got == pytest.approx(ref, rel=1e-10)

    def test_beats_random_lowrank_competitors(self):
        rng = _rng(2)
        Dbar = rng.standard_normal((5, 5))
        lam, k0 = 0.7, 2
        X = solve_lowrank_subproblem(Dbar, k0, lam)
        best = np.sum((Dbar - X) ** 2) + lam * np.sum(X * X)
        for _ in range(50):
            W = rng.standard_normal((5, k0)) @ rng.standard_normal((k0, 5))
            val = np.sum((Dbar - W) ** 2) + lam * np.sum(W * W)
            assert val >= best - 1e-10


def _sparse_bruteforce(Dtilde, k1, mu, pattern=None):
    """Enumerate all admissible supports; inner closed form per entry."""
    n = Dtilde.shape[0]
    cells = [(i, j) for i in range(n) for j in range(n)]
    forced0 = set(pattern.I0) if pattern else set()
    forced1 = set(pattern.I1) if pattern else set()
    free = [c for c in cells if c not in forced0 and c not in forced1]
    best_val, best_Y = np.inf, None
    for extra in range(k1 - len(forced1) + 1):
        for pick in itertools.combinations(free, extra):
            supp = forced1 | set(pick)
            Y = np.zeros_like(Dtilde)
            for ij in supp:
                Y[ij] = Dtilde[ij] / (1.0 + mu)
            val = np.sum((Dtilde - Y) ** 2) + mu * np.sum(Y * Y)
            if val < best_val - 1e-15:
                best_val, best_Y = val, Y
    return best_val, best_Y


class TestSparseSubproblem:
    def test_unique_max(self):
        Y = solve_sparse_subproblem(np.array([[3.0, 1.0], [1.0, 2.0]]), 1, 1.0)
        np.testing.assert_allclose(Y, [[1.5, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_k1_zero(self):
        Y = solve_sparse_subproblem(np.ones((2, 2)), 0, 1.0)
        np.testing.assert_array_equal(Y, np.zeros((2, 2)))

    def test_matches_bruteforce_with_pattern(self):
        rng = _rng(3)
        Dtilde = rng.standard_normal((3, 3))
        pattern = SparsityPattern(3, I0={(2, 2)}, I1={(1, 1)})
        mu = 1.3
        Y = solve_sparse_subproblem(Dtilde, 3, mu, pattern)
        val = np.sum((Dtilde - Y) ** 2) + mu * np.sum(Y * Y)
        ref, _ = _sparse_bruteforce(Dtilde, 3, mu, pattern)
        assert val == pytest.approx(ref, rel=1e-12)
        assert Y[2, 2] == 0.0 and Y[1, 1] != 0.0

    def test_matches_bruteforce_unpatterned(self):
        rng = _rng(4)
        for n in (2, 3):
            for k1 in range(0, 5):
                if k1 > n * n:
                    continue
                Dtilde = rng.standard_normal((n, n))
                mu = float(rng.uniform(0.2, 2.0))
                Y = solve_sparse_subproblem(Dtilde, k1, mu)
                val = np.sum((Dtilde - Y) ** 2) + mu * np.sum(Y * Y)
                ref, _ = _sparse_bruteforce(Dtilde, k1, mu)
                assert val == pytest.approx(ref, rel=1e-10)

    def test_infeasible_pattern(self):
        with pytest.raises(ValueError):
            solve_sparse_subproblem(np.eye(2), 1, 1.0,
                                    SparsityPattern(2, I1={(0, 0), (1, 1)}))

    def test_pattern_size_mismatch(self):
        # a 3 x 3 pattern's cells all lie inside a 4 x 4 matrix, so only
        # the size check rejects it
        with pytest.raises(ValueError, match="does not match"):
            solve_sparse_subproblem(np.eye(4), 2, 1.0,
                                    SparsityPattern(3, I0={(0, 0)},
                                                    I1={(1, 1)}))

    def test_forcing(self):
        # (1, 1) is kept and (0, 0) never picked; the one slot left goes
        # to the largest free cell
        M = np.array([[5.0, 4.0], [3.0, 2.0]])
        pattern = SparsityPattern(2, I0={(0, 0)}, I1={(1, 1)})
        Y = solve_sparse_subproblem(M, 2, 1.0, pattern)
        np.testing.assert_array_equal(Y, [[0.0, 2.0], [0.0, 1.0]])

    def test_forced_cell_errors(self):
        # the pattern's checks are the only ones left on forced cells:
        # overlap, |I1| > k1 and a size mismatch have their own tests here;
        # fewer admissible cells than k1 is rejected, and a kept cell is
        # checked for finiteness even when no free slot is left
        with pytest.raises(ValueError, match="exceeds n"):
            solve_sparse_subproblem(np.ones((2, 2)), 4, 1.0,
                                    SparsityPattern(2, {(0, 0)}))
        with pytest.raises(ValueError, match="non-finite"):
            solve_sparse_subproblem(np.array([[np.nan, 1.0], [1.0, 1.0]]),
                                    1, 1.0, SparsityPattern(2, I1={(0, 0)}))

    def test_matches_bruteforce_with_forcing(self):
        # the reference support is I1 plus the first max-|D| pick of free
        # cells in lexicographic order, which is the row-major tie rule;
        # integer entries make the sums exact, so ties are real, and some
        # patterns leave no free cell
        rng = _rng(9)
        mu = 1.0
        for trial in range(60):
            n = int(rng.integers(2, 5))
            D = rng.integers(-3, 4, size=(n, n)).astype(float)
            cells = [(i, j) for i in range(n) for j in range(n)]
            order = rng.permutation(n * n)
            n1 = int(rng.integers(0, 3))
            n0 = int(rng.integers(0, n * n - n1 + 1))
            keep = [cells[c] for c in order[:n1]]
            zero = [cells[c] for c in order[n1:n1 + n0]]
            free = [c for c in cells if c not in keep and c not in zero]
            budget = int(rng.integers(0, min(len(free), 4) + 1))
            best, ref = -1.0, None
            for pick in itertools.combinations(free, budget):
                val = sum(abs(D[ij]) for ij in pick)
                if val > best:
                    best, ref = val, pick
            want = np.zeros((n, n), dtype=bool)
            for ij in keep + list(ref):
                want[ij] = True
            Y = solve_sparse_subproblem(D, n1 + budget, mu,
                                        SparsityPattern(n, zero, keep))
            assert Y.tobytes() == \
                np.where(want, D / (1.0 + mu), 0.0).tobytes()

    def test_repeated_forced_cells_count_once(self):
        # a pattern keeps each cell once, so its check and the budget left
        # for free cells count a repeated cell once
        M = np.array([[5.0, 4.0], [3.0, 2.0]])
        pattern = SparsityPattern(2, [(0, 0), (0, 0)], [(1, 1), (1, 1)])
        np.testing.assert_array_equal(
            solve_sparse_subproblem(M, 1, 1.0, pattern), [[0, 0], [0, 1]])
        np.testing.assert_array_equal(
            solve_sparse_subproblem(M, 2, 1.0, pattern), [[0, 2], [0, 1]])

    @pytest.mark.parametrize("n0, n1", [(0, 0), (1, 1), (3, 2), (5, 4),
                                        (9, 0), (0, 4)])
    def test_shared_pattern_on_stack(self, n0, n1):
        # one pattern's masks shared by a (B, n, n) stack give each matrix
        # the bits it gets alone; integer entries make ties real, and
        # n0 + n1 = n^2 leaves no free cell
        rng = _rng(21 + n0)
        n, B, mu = 3, 40, 0.7
        k1 = min(4, n * n - n0)
        cells = [(i, j) for i in range(n) for j in range(n)]
        order = rng.permutation(n * n)
        pattern = SparsityPattern(n, [cells[c] for c in order[n1:n1 + n0]],
                                  [cells[c] for c in order[:n1]])
        Dtilde = rng.integers(-2, 3, size=(B, n, n)).astype(float)
        Y = altmin._sparse_step(Dtilde, k1, mu, pattern.zero, pattern.keep)
        for b in range(B):
            ref = solve_sparse_subproblem(Dtilde[b], k1, mu, pattern)
            assert Y[b].tobytes() == ref.tobytes()
        assert not np.signbit(Y[Y == 0]).any()

    def test_no_free_cell(self):
        # every cell forced: the support is I1, and AM runs on it
        n, k1 = 3, 2
        D = _rng(12).standard_normal((n, n))
        kept = [(0, 1), (2, 2)]
        pattern = SparsityPattern(
            n, [(i, j) for i in range(n) for j in range(n)
                if (i, j) not in kept], kept)
        keep = np.zeros((n, n), dtype=bool)
        keep[tuple(zip(*kept))] = True
        Y = solve_sparse_subproblem(D, k1, 0.5, pattern)
        assert Y.tobytes() == np.where(keep, D / 1.5, 0.0).tobytes()
        sol, _ = alternating_minimization(
            ProblemInstance(D, 1, k1, 1.0, 0.5), pattern=pattern)
        assert sol.feasible
        assert np.array_equal(sol.Y != 0, keep)

    @pytest.mark.parametrize("k1", [0, 1, 4])
    def test_support_stack_matches_complete_patterns(self, k1):
        # a (B, n, n) keep stack gives each run its complete support, as
        # exhaustive_oracle passes it; negative entries off the support
        # must come out +0.0
        rng = _rng(5 + k1)
        n, B, mu = 3, 12, 0.7
        Dtilde = rng.standard_normal((B, n, n))
        keep = np.zeros((B, n * n), dtype=bool)
        for b in range(B):
            keep[b, rng.permutation(n * n)[:k1]] = True
        keep = keep.reshape(B, n, n)
        Y = altmin._sparse_step(Dtilde, k1, mu, None, keep)
        for b in range(B):
            support = list(zip(*np.nonzero(keep[b])))
            ref = solve_sparse_subproblem(Dtilde[b], k1, mu,
                                          _full_pattern(n, support))
            assert Y[b].tobytes() == ref.tobytes()
        assert (Dtilde[~keep] < 0).any()
        assert not np.signbit(Y[~keep]).any()


class TestAlternatingMinimization:
    def test_zero_matrix_terminates_immediately(self):
        inst = ProblemInstance(np.zeros((3, 3)), 1, 2, 1.0, 1.0)
        sol, trace = alternating_minimization(inst)
        assert trace.objective_values[0] == 0.0
        assert trace.iterations == 0
        assert trace.converged_reason == "zero-objective"
        assert sol.objective == 0.0

    def test_unconstrained_limit(self):
        rng = _rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            D = rng.standard_normal((n, n))
            lam, mu = rng.uniform(0.3, 2.0, size=2)
            inst = ProblemInstance(D, n, n * n, lam, mu)
            sol, _ = alternating_minimization(inst, eps=1e-9, max_iters=5000)
            assert sol.objective == pytest.approx(unconstrained_min_value(inst),
                                                  rel=1e-6)

    def test_trace_monotone_and_strictly_decreasing_until_gap(self):
        inst = ProblemInstance(_rng(6).standard_normal((10, 10)), 2, 10,
                               1.0, 1.0)
        sol, trace = alternating_minimization(inst, eps=1e-3)
        fv = trace.objective_values
        assert all(fv[i + 1] <= fv[i] for i in range(len(fv) - 1))
        # strict decrease everywhere except possibly the final step
        assert all(fv[i + 1] < fv[i] for i in range(len(fv) - 2))
        assert sol.feasible
        assert sol.rank_of_X <= 2 and sol.nnz_of_Y <= 10

    def test_iteration_cap_grid(self):
        rng = _rng(7)
        for lam in (0.1, 1.0, 10.0):
            for mu in (0.1, 1.0, 10.0):
                for eps in (0.1, 0.01):
                    D = rng.standard_normal((6, 6))
                    inst = ProblemInstance(D, 2, 4, lam, mu)
                    _, trace = alternating_minimization(inst, eps=eps,
                                                        max_iters=10 ** 6)
                    cap = math.ceil(iteration_bound(lam, mu, eps))
                    assert trace.iterations <= cap

    def test_objective_field_consistent(self):
        inst = ProblemInstance(_rng(8).standard_normal((5, 5)), 2, 3, 0.5, 1.5)
        sol, _ = alternating_minimization(inst)
        assert sol.objective == pytest.approx(
            objective(inst, sol.X, sol.Y), abs=1e-10)

    def test_randomized_mode_monotone_and_feasible(self):
        rng = _rng(9)
        for seed in range(5):
            inst = ProblemInstance(rng.standard_normal((12, 12)), 3, 8,
                                   0.5, 0.5)
            sol, trace = alternating_minimization(inst, svd_mode="randomized",
                                                  seed=seed)
            fv = trace.objective_values
            assert all(fv[i + 1] <= fv[i] for i in range(len(fv) - 1))
            assert sol.feasible

    def test_randomized_trace_monotone_to_convergence(self):
        # at eps=1e-12 the loop runs until successive sketched steps agree
        # to rounding; k1=0 keeps D - Y fixed, where they agree exactly
        rng = _rng(12)
        for seed in range(40):
            n = int(rng.integers(2, 16))
            k1 = 0 if seed % 2 else int(rng.integers(1, n * n + 1))
            inst = ProblemInstance(rng.standard_normal((n, n)),
                                   int(rng.integers(1, n + 1)), k1, 0.1, 0.1)
            _, trace = alternating_minimization(inst, eps=1e-12,
                                                svd_mode="randomized",
                                                seed=seed)
            fv = trace.objective_values
            assert all(b <= a for a, b in zip(fv, fv[1:])), seed

    def test_randomized_mode_svd_calls(self, monkeypatch):
        # one sketched SVD per iteration and one exact SVD per run: the
        # final pass after the loop
        calls = {}

        def count(name):
            svd = getattr(linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return svd(*args, **kwargs)
            monkeypatch.setattr(linalg, name, counted)
        count("randomized_svd")
        count("truncated_svd")
        rng = _rng(13)
        for seed in range(4):
            calls.update(randomized_svd=0, truncated_svd=0)
            inst = ProblemInstance(rng.standard_normal((30, 30)), 3, 40,
                                   0.1, 0.1)
            _, trace = alternating_minimization(inst, eps=1e-8,
                                                svd_mode="randomized",
                                                seed=seed)
            assert trace.iterations > 1
            assert calls == {"randomized_svd": trace.iterations,
                             "truncated_svd": 1}

    def test_pattern_respected(self):
        inst = ProblemInstance(_rng(10).standard_normal((4, 4)), 1, 2,
                               1.0, 1.0)
        pattern = SparsityPattern(4, I0={(0, 0), (0, 1)}, I1={(3, 3)})
        sol, _ = alternating_minimization(inst, pattern=pattern)
        assert sol.Y[0, 0] == 0.0 and sol.Y[0, 1] == 0.0
        assert sol.Y[3, 3] != 0.0

    def test_pattern_size_mismatch(self):
        inst = ProblemInstance(np.eye(3), 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            alternating_minimization(inst, pattern=SparsityPattern(2))

    def test_bad_eps(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            alternating_minimization(inst, eps=0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_nonfinite_eps_rejected(self, eps):
        # eps = inf made the iteration cap 0, so AM returned X = Y = 0
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        for svd_mode in ("exact", "randomized"):
            with pytest.raises(ValueError, match="^eps must be finite"):
                alternating_minimization(inst, eps=eps, svd_mode=svd_mode)
        with pytest.raises(ValueError, match="^eps must be finite"):
            multistart_alternating_minimization(inst, eps=eps)

    @pytest.mark.parametrize("max_iters,message", [
        (2.5, "^max_iters=2.5 is not an integer"),
        (-1, "^max_iters=-1 must be nonnegative")])
    def test_max_iters_is_a_nonnegative_integer(self, max_iters, message):
        # 2.5 ran 3 iterations and -1 ran none
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match=message):
            alternating_minimization(inst, max_iters=max_iters)
        with pytest.raises(ValueError, match=message):
            multistart_alternating_minimization(inst, max_iters=max_iters)
        sol, trace = alternating_minimization(inst, max_iters=np.int64(0))
        assert trace.iterations == 0 and sol.objective == 2.0

    def test_unknown_mode(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown svd_mode"):
            alternating_minimization(inst, svd_mode="fast")

    @pytest.mark.parametrize("svd_mode", ["exact", "randomized"])
    def test_rank_deficient_input_reports_its_rank(self, svd_mode):
        # the singular values kept beyond rank(D) are rounding, far below
        # the rank count's rtol 1e-9
        rng = _rng(12)
        D = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
        sol, _ = alternating_minimization(ProblemInstance(D, 4, 0, 0.1, 0.1),
                                          svd_mode=svd_mode)
        assert sol.rank_of_X == 2

    def test_deterministic(self):
        inst = ProblemInstance(_rng(11).standard_normal((6, 6)), 2, 4,
                               1.0, 1.0)
        s1, _ = alternating_minimization(inst)
        s2, _ = alternating_minimization(inst)
        np.testing.assert_array_equal(s1.X, s2.X)
        np.testing.assert_array_equal(s1.Y, s2.Y)


def _reference_am(inst, eps, init=None, pattern=None):
    """The exact-mode AM loop written with the public step functions."""
    D = inst.D
    if init is None:
        X, Y = np.zeros_like(D), np.zeros_like(D)
    else:
        X, Y = (np.asarray(M, dtype=float).copy() for M in init)
    cap = min(1000, math.ceil(iteration_bound(inst.lam, inst.mu, eps)))
    f = objective(inst, X, Y)
    values = [f]
    t = 0
    while t < cap and f != 0.0:
        t += 1
        Y_t = solve_sparse_subproblem(D - X, inst.k1, inst.mu, pattern)
        X_t = solve_lowrank_subproblem(D - Y_t, inst.k0, inst.lam)
        f_prev, f_t = f, objective(inst, X_t, Y_t)
        if t > 1 and f_t > f:
            break
        X, Y, f = X_t, Y_t, f_t
        values.append(f)
        if f == 0.0 or (f_prev - f) / f < eps:
            break
    return X, Y, values, t


def _reference_cases():
    rng = _rng(31)
    n = 6
    D = rng.standard_normal((n, n))
    partial = SparsityPattern(n, I0={(0, 0), (2, 3), (5, 1)},
                              I1={(1, 4), (3, 3)})
    complete = _full_pattern(n, [(0, 1), (2, 2), (4, 5), (5, 0)])
    zeros_only = SparsityPattern(n, I0={(0, 0), (1, 2)})
    init = (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    cases = [
        ("no-pattern", (2, 5, 0.3, 0.7), {}),
        ("partial", (2, 5, 0.3, 0.7), {"pattern": partial}),
        ("complete", (1, 4, 0.5, 0.2), {"pattern": complete}),
        ("k1-zero", (2, 0, 0.3, 0.7), {}),
        ("k1-zero-forced-zeros", (2, 0, 0.3, 0.7), {"pattern": zeros_only}),
        ("init", (2, 5, 0.3, 0.7), {"init": init}),
        ("init-partial", (3, 8, 1.5, 0.4),
         {"init": init, "pattern": partial}),
    ]
    return [pytest.param(ProblemInstance(D, *args), kwargs, id=name)
            for name, args, kwargs in cases]


class TestReferenceLoop:
    """alternating_minimization runs its steps without re-checking their
    arguments; it must still agree bit for bit with the checked public
    steps."""

    @pytest.mark.parametrize("inst,kwargs", _reference_cases())
    def test_bitwise_equal_to_reference(self, inst, kwargs):
        eps = 1e-6
        sol, trace = alternating_minimization(inst, eps=eps, **kwargs)
        X, Y, values, t = _reference_am(inst, eps, **kwargs)
        assert sol.X.tobytes() == X.tobytes()
        assert sol.Y.tobytes() == Y.tobytes()
        assert trace.objective_values == values
        assert trace.iterations == t
        assert sol.objective == values[-1]
        # entries off the support are +0.0: no 0 * negative entry leaks a
        # -0.0 into Y
        assert not np.signbit(sol.Y[sol.Y == 0.0]).any()
        if inst.k1 == 0:
            assert Y.tobytes() == np.zeros_like(Y).tobytes()


class TestPgdEquivalence:
    def test_fixed_pattern_iterates_coincide(self):
        # with a complete pattern, the alternating update on X equals a
        # projected-gradient step with step size 1/(2(1+lam))
        rng = _rng(12)
        for trial in range(5):
            n, k0, k1 = 8, 2, 6
            D = rng.standard_normal((n, n))
            lam, mu = rng.uniform(0.3, 2.0, size=2)
            cells = [(i, j) for i in range(n) for j in range(n)]
            idx = rng.choice(len(cells), size=k1, replace=False)
            support = [cells[i] for i in idx]
            pattern = _full_pattern(n, support)
            S = np.zeros((n, n))
            for ij in support:
                S[ij] = 1.0
            eta = 1.0 / (2.0 * (1.0 + lam))
            X_am = np.zeros((n, n))
            X_pgd = np.zeros((n, n))
            for _ in range(50):
                Y = solve_sparse_subproblem(D - X_am, k1, mu, pattern)
                X_am = solve_lowrank_subproblem(D - Y, k0, lam)
                grad = 2.0 * ((1.0 + lam) * X_pgd - D
                              + S * ((D - X_pgd) / (1.0 + mu)))
                X_pgd = linalg.truncated_svd(X_pgd - eta * grad,
                                             k0).reconstruct()
                assert np.abs(X_am - X_pgd).max() <= 1e-10


def _separate_starts(inst, n_starts, seed, **kwargs):
    """multistart's reference: one alternating_minimization call per start
    (the zero start, then default_rng(seed) Gaussian X0 with Y0 = 0); the
    first start with the least objective wins."""
    rng = _rng(seed)
    n = inst.n
    best = None
    for s in range(n_starts):
        X0 = np.zeros((n, n)) if s == 0 else rng.standard_normal((n, n))
        sol, trace = alternating_minimization(
            inst, init=(X0, np.zeros((n, n))), **kwargs)
        if best is None or sol.objective < best[0].objective:
            best = sol, trace
    return best


class TestMultistart:
    @pytest.mark.parametrize("pattern", ["none", "incomplete", "complete"])
    @pytest.mark.parametrize("n_starts,max_iters", [(1, 1000), (4, 1000),
                                                    (5, 3)])
    def test_equals_separate_runs(self, pattern, n_starts, max_iters):
        n = 6
        patterns = {
            "none": None,
            "incomplete": SparsityPattern(n, I0={(0, 0), (2, 3)},
                                          I1={(1, 4)}),
            "complete": _full_pattern(n, [(0, 1), (2, 2), (4, 5), (5, 0),
                                          (3, 3)]),
        }
        for seed in range(3):
            inst = ProblemInstance(_rng(40 + seed).standard_normal((n, n)),
                                   2, 5, 0.3, 0.6)
            kwargs = dict(eps=1e-6, max_iters=max_iters,
                          pattern=patterns[pattern])
            sol, trace = multistart_alternating_minimization(
                inst, n_starts=n_starts, seed=seed, **kwargs)
            ref, ref_trace = _separate_starts(inst, n_starts, seed, **kwargs)
            assert sol.X.tobytes() == ref.X.tobytes()
            assert sol.Y.tobytes() == ref.Y.tobytes()
            assert (sol.objective, sol.rank_of_X, sol.nnz_of_Y,
                    sol.feasible) == (ref.objective, ref.rank_of_X,
                                      ref.nnz_of_Y, ref.feasible)
            assert trace == ref_trace

    def test_first_least_start_wins(self):
        # D = 0: the zero start has objective 0 and stops at once, and no
        # other start can do better
        inst = ProblemInstance(np.zeros((3, 3)), 1, 2, 1.0, 1.0)
        sol, trace = multistart_alternating_minimization(inst, n_starts=3)
        assert sol.objective == 0.0
        assert trace == AmTrace([0.0], 0, "zero-objective")

    def test_never_worse_than_single_start(self):
        inst = ProblemInstance(_rng(13).standard_normal((6, 6)), 2, 4,
                               1.0, 1.0)
        single, _ = alternating_minimization(inst)
        multi, _ = multistart_alternating_minimization(inst, n_starts=4)
        assert multi.objective <= single.objective + 1e-12

    @pytest.mark.parametrize("n_starts", [0, -3])
    def test_needs_one_start(self, n_starts):
        inst = ProblemInstance(_rng(15).standard_normal((3, 3)), 1, 2,
                               0.5, 0.5)
        with pytest.raises(ValueError, match="n_starts"):
            multistart_alternating_minimization(inst, n_starts=n_starts)

    def test_deterministic(self):
        inst = ProblemInstance(_rng(14).standard_normal((5, 5)), 1, 3,
                               0.5, 0.5)
        a, _ = multistart_alternating_minimization(inst, n_starts=3, seed=5)
        b, _ = multistart_alternating_minimization(inst, n_starts=3, seed=5)
        assert a.objective == b.objective


class TestFixedPatternCertificate:
    def _certified_setup(self, seed=15):
        # strong regularization makes condition 1 positive; a clear
        # spectral gap satisfies condition 2
        rng = _rng(seed)
        n, k0, k1 = 4, 1, 2
        L = 10.0 * np.outer(rng.standard_normal(n), rng.standard_normal(n))
        D = L + 0.01 * rng.standard_normal((n, n))
        inst = ProblemInstance(D, k0, k1, 1.0, 1.0)
        sol, _ = alternating_minimization(inst, eps=1e-10, max_iters=5000)
        support = [tuple(map(int, ij)) for ij in zip(*np.nonzero(sol.Y))]
        while len(support) < k1:
            extra = [(i, j) for i in range(n) for j in range(n)
                     if (i, j) not in support]
            support.append(extra[0])
        pattern = _full_pattern(n, support)
        sol, _ = alternating_minimization(inst, eps=1e-12, max_iters=5000,
                                          pattern=pattern)
        return inst, pattern, sol

    def test_condition1_arithmetic(self):
        inst, pattern, sol = self._certified_setup()
        cert = fixed_pattern_certificate(inst, pattern, sol.X)
        assert cert.condition1_value == pytest.approx(1.0)

    def test_negative_condition1_uncertified(self):
        inst, pattern, sol = self._certified_setup()
        weak = ProblemInstance(inst.D, inst.k0, inst.k1, 0.1, 0.1)
        cert = fixed_pattern_certificate(weak, pattern, sol.X)
        assert cert.condition1_value < 0
        assert not cert.certified

    def test_certified_instance_multistart_agrees(self):
        inst, pattern, sol = self._certified_setup()
        cert = fixed_pattern_certificate(inst, pattern, sol.X)
        assert cert.certified
        best, _ = multistart_alternating_minimization(
            inst, n_starts=5, eps=1e-12, max_iters=5000, pattern=pattern)
        assert best.objective == pytest.approx(sol.objective, abs=1e-8)

    def test_linear_rate_on_certified_instance(self):
        inst, pattern, sol = self._certified_setup()
        cert = fixed_pattern_certificate(inst, pattern, sol.X)
        assert cert.certified
        _, trace = alternating_minimization(inst, eps=1e-14, max_iters=200,
                                            pattern=pattern)
        fstar = sol.objective
        lam, mu = inst.lam, inst.mu
        rate = 1.0 / ((2 * lam + 1) * (1 + mu) + mu)
        gaps = [f - fstar for f in trace.objective_values]
        ratios = [gaps[t + 1] / gaps[t] for t in range(len(gaps) - 1)
                  if gaps[t] > 1e-12]
        if ratios:
            assert min(ratios) <= rate + 0.05

    def test_pattern_complete_by_its_kept_cells(self):
        # |I1| = k1 fixes the support as |I0| = n^2 - k1 does, and
        # branch-and-bound settles such a leaf; both patterns of one
        # support give the same certificate
        D = np.random.default_rng(3).standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 2, 2.0, 2.0)
        kept = SparsityPattern(3, I1={(0, 0), (1, 2)})
        zeros = SparsityPattern(3, I0=_full_pattern(3, kept.I1).I0)
        assert kept.is_complete(2) and zeros.is_complete(2)
        sol, _ = alternating_minimization(inst, pattern=kept)
        cert = fixed_pattern_certificate(inst, kept, sol.X)
        assert cert.certified
        assert cert == fixed_pattern_certificate(inst, zeros, sol.X)

    def test_incomplete_pattern_rejected(self):
        inst = ProblemInstance(np.eye(3), 1, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            fixed_pattern_certificate(inst, SparsityPattern(3), np.eye(3))

    def test_pattern_size_mismatch(self):
        # a 5 x 5 pattern that forces 16 - k1 cells of the top-left 4 x 4
        # block to zero has the |I0| of a complete 4 x 4 pattern
        inst = ProblemInstance(np.eye(4), 1, 2, 1.0, 1.0)
        cells = [(i, j) for i in range(4) for j in range(4)]
        pattern = SparsityPattern(5, I0=cells[2:])
        with pytest.raises(ValueError, match="does not match"):
            fixed_pattern_certificate(inst, pattern, np.zeros((4, 4)))

    def test_degenerate_flag(self):
        # X* = 0 and D with a vanishing k0-th singular value of Dtilde
        inst = ProblemInstance(np.zeros((2, 2)), 1, 0, 1.0, 1.0)
        pattern = _full_pattern(2, [])
        cert = fixed_pattern_certificate(inst, pattern, np.zeros((2, 2)))
        assert cert.degenerate
        assert not cert.certified

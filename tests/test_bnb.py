"""Tests for branch-and-bound over sparsity patterns."""

import math
from itertools import combinations

import numpy as np
import pytest

from splr import bnb
from splr.altmin import SparsityPattern, alternating_minimization, \
    multistart_alternating_minimization, solve_lowrank_subproblem
from splr.bnb import branch_and_bound, exhaustive_oracle, select_branch_entry
from splr.conic import solve_conic
from splr.core import ProblemInstance, objective
from splr.experiments import generate_instance


class TestSelectBranchEntry:
    def test_unique_most_fractional(self):
        Z = np.array([[0.9, 0.5], [0.1, 0.8]])
        assert select_branch_entry(Z, SparsityPattern(2)) == (0, 1)

    def test_row_major_tie(self):
        Z = np.array([[0.9, 0.2], [0.2, 0.9]])
        assert select_branch_entry(Z, SparsityPattern(2)) == (0, 1)

    def test_single_free_entry(self):
        Z = np.zeros((2, 2))
        taken = {(0, 0), (0, 1), (1, 0)}
        pattern = SparsityPattern(2, I0=frozenset(taken))
        assert select_branch_entry(Z, pattern) == (1, 1)

    def test_forced_cells_skipped_in_both_sets(self):
        # the two most fractional cells are fixed, one in I0 and one in
        # I1; the remaining tie between (1, 0) and (2, 2) goes row-major
        Z = np.array([[0.5, 0.9, 1.0], [0.4, 0.5, 0.0], [0.0, 1.0, 0.6]])
        pattern = SparsityPattern(3, I0={(0, 0)}, I1={(1, 1)})
        assert select_branch_entry(Z, pattern) == (1, 0)

    def test_complete_pattern_rejected(self):
        cells = {(i, j) for i in range(2) for j in range(2)}
        pattern = SparsityPattern(2, I0=frozenset(cells))
        with pytest.raises(ValueError):
            select_branch_entry(np.zeros((2, 2)), pattern)


def _per_support_best(inst, n_starts, eps):
    """The oracle's reference: multistart AM on every complete pattern in
    enumeration order, the first least one winning."""
    n = inst.n
    cells = [(i, j) for i in range(n) for j in range(n)]
    best = None
    for support in combinations(cells, inst.k1):
        keep = frozenset(support)
        zero = frozenset(c for c in cells if c not in keep)
        sol, _ = multistart_alternating_minimization(
            inst, n_starts=n_starts, eps=eps,
            pattern=SparsityPattern(n, zero, keep))
        if best is None or sol.objective < best.objective:
            best = sol
    return best


class TestExhaustiveOracle:
    @pytest.mark.parametrize("k1", [0, 1, 3])
    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_equals_per_support_multistart(self, k1, n_starts):
        rng = np.random.default_rng(10 + k1)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 2, k1, 0.4, 0.8)
        sol, val = exhaustive_oracle(inst, n_starts=n_starts)
        ref = _per_support_best(inst, n_starts, 1e-8)
        assert val == sol.objective == ref.objective
        assert sol.X.tobytes() == ref.X.tobytes()
        assert sol.Y.tobytes() == ref.Y.tobytes()
        assert (sol.rank_of_X, sol.nnz_of_Y, sol.feasible) == \
            (ref.rank_of_X, ref.nnz_of_Y, ref.feasible)

    @pytest.mark.parametrize("entries", [1, 9 * 3 * 2, 9 * 3 * 5])
    def test_chunks_keep_the_first_minimum(self, monkeypatch, entries):
        # 1, 2 or 5 supports per chunk instead of all 84 in one
        inst = ProblemInstance(np.random.default_rng(5).standard_normal(
            (3, 3)), 1, 3, 0.5, 0.5)
        monkeypatch.setattr(bnb, "_STACK_ENTRIES", entries)
        sol, _ = exhaustive_oracle(inst, n_starts=3)
        ref = _per_support_best(inst, 3, 1e-8)
        assert sol.objective == ref.objective
        assert sol.X.tobytes() == ref.X.tobytes()
        assert sol.Y.tobytes() == ref.Y.tobytes()

    def test_k1_zero_reduces_to_lowrank(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 0, 1.0, 1.0)
        sol, val = exhaustive_oracle(inst)
        X = solve_lowrank_subproblem(D, 1, 1.0)
        assert val == pytest.approx(objective(inst, X, np.zeros((3, 3))),
                                    rel=1e-8)

    def test_full_sparsity_single_pattern(self):
        rng = np.random.default_rng(1)
        inst = ProblemInstance(rng.standard_normal((2, 2)), 1, 4, 1.0, 1.0)
        _, val = exhaustive_oracle(inst, am_eps=1e-10)
        free, _ = alternating_minimization(inst, eps=1e-10)
        assert val == pytest.approx(free.objective, rel=1e-6)

    def test_dominates_every_pattern(self):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 2, 1.0, 1.0)
        _, val = exhaustive_oracle(inst)
        import itertools
        cells = [(i, j) for i in range(3) for j in range(3)]
        for supp in itertools.combinations(cells, 2):
            keep = frozenset(supp)
            zero = frozenset(c for c in cells if c not in keep)
            sol, _ = alternating_minimization(
                inst, eps=1e-8, pattern=SparsityPattern(3, zero, keep))
            assert val <= sol.objective + 1e-9

    def test_guard(self):
        inst = ProblemInstance(np.eye(10), 1, 50, 1.0, 1.0)
        with pytest.raises(ValueError):
            exhaustive_oracle(inst, guard=1000)


@pytest.mark.parametrize("n_starts", [0, -3])
def test_oracle_needs_one_start(n_starts):
    inst = ProblemInstance(np.random.default_rng(2).standard_normal((3, 3)),
                           1, 2, 0.5, 0.5)
    with pytest.raises(ValueError, match="n_starts"):
        exhaustive_oracle(inst, n_starts=n_starts)


class TestBranchAndBound:
    def test_tight_root_witness(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        res = branch_and_bound(inst, eps=0.05)
        assert res.nodes_explored == 1
        assert res.upper_bound == pytest.approx(1.5, abs=0.02)
        assert res.lower_bound <= res.upper_bound
        assert res.gap <= 0.05
        assert not res.truncated

    def test_full_sparsity_equals_free_am(self):
        rng = np.random.default_rng(3)
        inst = ProblemInstance(rng.standard_normal((2, 2)), 1, 4, 1.0, 1.0)
        res = branch_and_bound(inst, eps=0.05)
        free, _ = alternating_minimization(inst, eps=1e-6)
        assert res.upper_bound <= free.objective + 1e-9

    def test_matches_oracle_n4(self):
        rng = np.random.default_rng(4)
        inst = ProblemInstance(rng.standard_normal((4, 4)), 1, 2, 0.5, 0.5)
        res = branch_and_bound(inst, eps=0.01)
        opt, val = exhaustive_oracle(inst)
        assert res.upper_bound <= val * 1.01 + 1e-9
        assert res.lower_bound <= val + 1e-4 * (1 + val)
        assert res.nodes_explored <= 2 * math.comb(16, 2) - 1
        assert res.incumbent.feasible

    def test_eps_optimality_sweep(self):
        rng = np.random.default_rng(5)
        for lm in (0.5, 1.0, 2.0):
            for k1 in (1, 2):
                D = rng.standard_normal((3, 3))
                inst = ProblemInstance(D, 1, k1, lm, lm)
                res = branch_and_bound(inst, eps=0.01)
                opt, val = exhaustive_oracle(inst)
                assert res.upper_bound <= val * 1.01 + 1e-9
                assert res.lower_bound <= val + 1e-4 * (1 + val)
                assert res.nodes_explored <= 2 * math.comb(9, k1) - 1

    def test_bound_history_monotone(self):
        rng = np.random.default_rng(6)
        runs = [(branch_and_bound(ProblemInstance(
            rng.standard_normal((3, 3)), 1, 2, 1.0, 1.0), eps=1e-4), None)]
        # the incumbent improves after the root on these three, and each
        # ends by a different stop reason; queued nodes made stale by an
        # improvement are dropped, not explored
        for seed, node_limit, reason, nodes in ((0, 100000, "exhausted", 43),
                                                (2, 100000, "gap", 29),
                                                (1, 40, "node_limit", 40)):
            inst = ProblemInstance(generate_instance(5, 1, 3, 3.0, seed).D,
                                   1, 3, 0.3, 0.3)
            res = branch_and_bound(inst, eps=0.001, node_limit=node_limit)
            assert res.nodes_explored == nodes
            runs.append((res, reason))
        for res, reason in runs:
            if reason is not None:
                assert res.stop_reason == reason
            assert [h[0] for h in res.bound_history] == list(
                range(1, res.nodes_explored + 1))
            ubs = [h[1] for h in res.bound_history]
            lbs = [h[2] for h in res.bound_history]
            if reason is not None:
                assert ubs[-1] < ubs[0]
            assert all(lb <= ub for lb, ub in zip(lbs, ubs))
            assert lbs[-1] == res.lower_bound
            assert all(ubs[i + 1] <= ubs[i] + 1e-12
                       for i in range(len(ubs) - 1))
            # lower bounds may wobble within solver tolerance only
            jitter = 1e-4 * (1 + abs(res.upper_bound))
            assert all(lbs[i + 1] >= lbs[i] - jitter
                       for i in range(len(lbs) - 1))

    def test_node_limit_truncates(self):
        rng = np.random.default_rng(7)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 1, 2, 1.0, 1.0)
        res = branch_and_bound(inst, eps=0.0, node_limit=1)
        assert res.truncated
        assert res.nodes_explored == 1
        assert res.stop_reason == "node_limit"

    def test_stop_reason_gap_on_the_witness(self):
        res = branch_and_bound(ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0),
                               eps=0.05)
        assert res.stop_reason == "gap"
        assert res.fathomed == 1
        assert not res.truncated

    def test_zero_matrix_stops_at_the_root(self):
        # AM's 0 is optimal, but each certificate is a few ulps below 0,
        # so no node was fathomed: 71 nodes, ending 'exhausted'
        res = branch_and_bound(ProblemInstance(np.zeros((3, 3)), 1, 2,
                                               0.1, 0.1))
        assert res.stop_reason == "gap"
        assert res.nodes_explored == 0
        assert res.lower_bound == res.upper_bound == res.gap == 0.0

    def test_certified_bounds_on_criterion_4(self):
        # runs ended by the gap test are within eps; lam=mu=0.5, sigma=1,
        # seed 0 empties its queue at gap 0.041, held open by a settled
        # complete-pattern leaf whose relaxation stays below the incumbent
        fathomed = 0
        for lm in (0.5, 1.0):
            for sigma in (1, 10):
                for seed in range(5):
                    inst = ProblemInstance(
                        generate_instance(4, 1, 2, sigma, seed).D,
                        1, 2, lm, lm)
                    res = branch_and_bound(inst, eps=0.01)
                    assert res.uncertified == 0
                    assert res.lower_bound <= res.upper_bound
                    assert res.stop_reason in ("gap", "exhausted")
                    if res.stop_reason == "gap":
                        assert res.gap <= 0.01
                    fathomed += res.fathomed
                    if (lm, sigma, seed) == (0.5, 1, 0):
                        assert res.stop_reason == "exhausted"
                        assert res.gap == pytest.approx(0.04117, abs=1e-3)
        assert fathomed > 0

    def test_children_start_warm_on_criterion_4(self, monkeypatch):
        # each child's solve starts from its parent's final iterate; the
        # 20 runs take 5,117 ADMM iterations over 128 nodes, where a start
        # that is already converged or fathomed stops at iteration 1 (67 of
        # the 108 children)
        from splr import relaxations
        solves = []

        def counted(problem, **kwargs):
            sol = solve_conic(problem, **kwargs)
            solves.append((kwargs["start"] is None, sol.iterations))
            return sol

        monkeypatch.setattr(relaxations, "solve_conic", counted)
        nodes = 0
        for lm in (0.5, 1.0):
            for sigma in (1, 10):
                for seed in range(5):
                    inst = ProblemInstance(
                        generate_instance(4, 1, 2, sigma, seed).D,
                        1, 2, lm, lm)
                    nodes += branch_and_bound(inst, eps=0.01).nodes_explored
        assert len(solves) == nodes
        assert sum(cold for cold, _ in solves) == 20    # the roots
        assert sum(its for _, its in solves) <= 5200

    def test_incumbent_objective_consistent(self):
        rng = np.random.default_rng(8)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 1, 1, 1.0, 1.0)
        res = branch_and_bound(inst, eps=0.01)
        got = objective(inst, res.incumbent.X, res.incumbent.Y)
        assert res.upper_bound == pytest.approx(got, abs=1e-10)
        assert res.gap == pytest.approx(
            (res.upper_bound - max(res.lower_bound, 0.0)) / res.upper_bound,
            abs=1e-12)

    def test_rejects_negative_eps(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            branch_and_bound(inst, eps=-0.1)

    def test_rejects_nan_eps(self):
        # a NaN eps never stopped the search on its gap
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^eps="):
            branch_and_bound(inst, eps=math.nan)

    def test_node_limit_is_a_nonnegative_integer(self):
        inst = ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^node_limit=-1"):
            branch_and_bound(inst, node_limit=-1)
        with pytest.raises(TypeError):
            branch_and_bound(inst, node_limit=2.5)
        res = branch_and_bound(inst, node_limit=np.int64(0))
        assert res.stop_reason == "node_limit" and res.nodes_explored == 0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 1, 2, 1.0, 1.0)
        r1 = branch_and_bound(inst, eps=0.01)
        r2 = branch_and_bound(inst, eps=0.01)
        assert r1.upper_bound == r2.upper_bound
        assert r1.lower_bound == r2.lower_bound
        assert r1.nodes_explored == r2.nodes_explored

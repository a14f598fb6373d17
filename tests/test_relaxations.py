"""Tests for the convex relaxation builders."""

import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splr import relaxations
from splr.altmin import SparsityPattern, _multistart, \
    alternating_minimization, multistart_alternating_minimization
from splr.core import ProblemInstance, unconstrained_min_value
from splr.bnb import exhaustive_oracle
from splr.conic import solve_conic
from splr.experiments import generate_instance
from splr.relaxations import (_capped_ridge_terms, bound_gap,
                              build_lee_zou_relaxation,
                              build_perspective_relaxation,
                              build_strengthened_relaxation,
                              solve_lowrank_sdp)

TOL = 1e-5


def _witness():
    return ProblemInstance(np.eye(2), 1, 0, 1.0, 1.0)


class TestWitnessValues:
    def test_perspective(self):
        res = build_perspective_relaxation(_witness()).solve()
        assert res.solver_status == "optimal"
        assert res.lower_bound == pytest.approx(1.5, abs=0.02)

    def test_strengthened(self):
        res = build_strengthened_relaxation(_witness(), beta=2.0,
                                            gamma=1.0).solve()
        assert res.solver_status == "optimal"
        assert res.lower_bound == pytest.approx(1.5, abs=0.02)

    def test_lee_zou(self):
        res = build_lee_zou_relaxation(_witness(), beta=2.0,
                                       gamma=1.0).solve()
        assert res.solver_status == "optimal"
        assert res.lower_bound == pytest.approx(1.0, abs=0.02)


class TestPerspective:
    def test_scalar_instance_unconstrained(self):
        # n=1, k0=1, k1=1: every constraint is slack
        inst = ProblemInstance(np.array([[2.0]]), 1, 1, 0.7, 1.3)
        res = build_perspective_relaxation(inst).solve()
        assert res.solver_status == "optimal"
        assert res.lower_bound == pytest.approx(
            unconstrained_min_value(inst), abs=1e-3)

    def test_lower_bounds_am(self):
        rng = np.random.default_rng(0)
        inst = ProblemInstance(rng.standard_normal((6, 6)), 2, 4, 1.0, 1.0)
        res = build_perspective_relaxation(inst).solve()
        sol, _ = alternating_minimization(inst, eps=1e-8)
        assert res.solver_status == "optimal"
        assert res.lower_bound <= sol.objective + TOL * (1 + sol.objective)

    def test_fractional_outputs_within_constraints(self):
        rng = np.random.default_rng(1)
        inst = ProblemInstance(rng.standard_normal((4, 4)), 2, 3, 1.0, 1.0)
        res = build_perspective_relaxation(inst).solve()
        slack = 1e-3
        assert np.all(res.Z_fractional >= -slack)
        assert np.all(res.Z_fractional <= 1 + slack)
        assert res.Z_fractional.sum() <= inst.k1 + slack * inst.n ** 2
        assert np.trace(res.P_fractional) <= inst.k0 + slack
        w = np.linalg.eigvalsh(res.P_fractional)
        assert w.min() >= -slack and w.max() <= 1 + slack

    def test_pattern_pinning(self):
        rng = np.random.default_rng(2)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 1, 2, 1.0, 1.0)
        pattern = SparsityPattern(3, I0={(0, 0)}, I1={(2, 2)})
        res = build_perspective_relaxation(inst, pattern).solve()
        assert res.solver_status == "optimal"
        assert abs(res.Z_fractional[0, 0]) <= 1e-3
        assert abs(res.Z_fractional[2, 2] - 1.0) <= 1e-3
        # pinning can only raise the bound
        free = build_perspective_relaxation(inst).solve()
        assert res.lower_bound >= free.lower_bound - 1e-3

    def test_pattern_size_mismatch(self):
        inst = ProblemInstance(np.eye(3), 1, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_perspective_relaxation(inst, SparsityPattern(2))


class TestStrengthened:
    def test_loose_bounds_match_perspective(self):
        rng = np.random.default_rng(4)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 1, 2, 1.0, 1.0)
        loose = build_strengthened_relaxation(inst, beta=1e3,
                                              gamma=1e3).solve()
        base = build_perspective_relaxation(inst).solve()
        assert loose.lower_bound == pytest.approx(base.lower_bound, abs=5e-3)

    def test_still_lower_bound_with_tight_constants(self):
        rng = np.random.default_rng(5)
        inst = ProblemInstance(rng.standard_normal((4, 4)), 1, 3, 1.0, 1.0)
        sol, _ = alternating_minimization(inst, eps=1e-8)
        beta = float(np.linalg.norm(sol.X, 2)) + 1e-9
        gamma = float(np.abs(sol.Y).max()) + 1e-9
        res = build_strengthened_relaxation(inst, beta=beta,
                                            gamma=gamma).solve()
        assert res.solver_status == "optimal"
        assert res.lower_bound <= sol.objective + TOL * (1 + sol.objective)

    def test_default_constants(self):
        rng = np.random.default_rng(6)
        inst = ProblemInstance(rng.standard_normal((3, 3)), 1, 2, 1.0, 1.0)
        res = build_strengthened_relaxation(inst).solve()
        assert res.solver_status == "optimal"

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            build_strengthened_relaxation(_witness(), beta=0.0, gamma=1.0)


class TestLeeZou:
    def test_dominated_by_strengthened(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            D = np.random.default_rng(seed).standard_normal((4, 4))
            inst = ProblemInstance(D, 1, 3, 1.0, 1.0)
            beta = float(np.linalg.norm(D, 2))
            gamma = float(np.abs(D).max())
            lz = build_lee_zou_relaxation(inst, beta, gamma).solve()
            st = build_strengthened_relaxation(inst, beta, gamma).solve()
            assert st.lower_bound >= lz.lower_bound - 5e-3 * (1 + abs(lz.lower_bound))

    def test_dominated_by_perspective_when_sparse_slack(self):
        rng = np.random.default_rng(8)
        D = rng.standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 9, 1.0, 1.0)
        lz = build_lee_zou_relaxation(inst, float(np.linalg.norm(D, 2)),
                                      1e4).solve()
        pe = build_perspective_relaxation(inst).solve()
        assert lz.lower_bound <= pe.lower_bound + 5e-3 * (1 + abs(pe.lower_bound))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_lee_zou_relaxation(_witness(), -1.0, 1.0)

    def test_default_bounds_build_the_explicit_program(self):
        D = np.random.default_rng(11).standard_normal((3, 3))
        inst = ProblemInstance(D, 1, 2, 0.5, 0.25)
        U = float(np.sum(D * D))
        beta = min((float(np.linalg.norm(D, 2)) + np.sqrt(U / 0.25)) / 1.5,
                   np.sqrt(U / 0.5))
        gamma = min((float(np.abs(D).max()) + beta) / 1.25, np.sqrt(U / 0.25))
        explicit = build_lee_zou_relaxation(inst, beta, gamma)
        assert _program_digest(build_lee_zou_relaxation(inst)) == \
            _program_digest(explicit)


def _capped_ridge_reference(w, lam, r):
    """max <w, v> - lam*||v||^2 over v >= 0, sum(v) <= r, by enumerating
    the KKT points: on each support, the unconstrained ridge maximizer
    and the one shifted down to meet the cap."""
    best = 0.0
    for size in range(1, len(w) + 1):
        for support in combinations(range(len(w)), size):
            ws = w[list(support)]
            for nu in (0.0, (ws.sum() - 2 * lam * r) / size):
                v = (ws - nu) / (2 * lam)
                if nu >= 0 and (v >= 0).all() and v.sum() <= r * (1 + 1e-12):
                    best = max(best, ws @ v - lam * v @ v)
    return best


class TestCappedRidgeConjugate:
    @pytest.mark.parametrize("w,lam,r", [
        ([3.0, 1.0, 0.5], 0.5, 0.0),          # no budget
        ([3.0, 1.0, 0.5], 0.5, 100.0),        # a cap that does not bind
        ([2.0, 2.0, 2.0, 1.0], 0.3, 1.5),     # ties at the level
        ([2.0, 2.0, 0.0, 0.0], 1.0, 0.5),
        ([1.7], 0.2, 0.4),                    # a single entry
        ([0.0, 0.0], 0.7, 1.0)])
    def test_matches_the_brute_force_maximum(self, w, lam, r):
        w = np.array(w)
        assert _capped_ridge_terms(w, lam, r).sum() == pytest.approx(
            _capped_ridge_reference(w, lam, r), rel=1e-12, abs=1e-15)

    def test_random(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            w = np.abs(rng.standard_normal(int(rng.integers(1, 7))))
            lam, r = rng.uniform(0.05, 2.0), rng.uniform(0.0, 3.0)
            assert _capped_ridge_terms(w, lam, r).sum() == pytest.approx(
                _capped_ridge_reference(w, lam, r), rel=1e-12, abs=1e-15)


class TestDefaultBounds:
    """With beta and gamma not given, the strengthened and Lee-Zou bounds
    stay below a feasible value. Here the optimum has ||X||_2 = 1.93 >
    ||D||_2 and |Y_22| = 1.90 > max |D_ij|, so those two as beta and gamma
    gave 0.2800 and 0.2625."""

    _INST = ProblemInstance(np.array([[1.0, 1.0], [1.0, -1.0]]), 1, 1,
                            0.01, 0.01)

    @pytest.mark.parametrize("build", [build_strengthened_relaxation,
                                       build_lee_zou_relaxation])
    def test_below_the_optimum(self, build):
        _, opt = exhaustive_oracle(self._INST, n_starts=2)
        assert opt == pytest.approx(0.076418, rel=1e-4)
        res = build(self._INST).solve()
        assert res.solver_status == "optimal"
        assert res.lower_bound <= opt + TOL * (1 + opt)


class TestLowrankSdp:
    def test_diagonal(self):
        val, X = solve_lowrank_sdp(np.diag([2.0, 0.0]), 1, 1.0)
        assert val == pytest.approx(2.0, abs=1e-3)

    def test_zero(self):
        val, _ = solve_lowrank_sdp(np.zeros((3, 3)), 1, 1.0)
        assert val == pytest.approx(0.0, abs=1e-5)

    def test_matches_spectral_closed_form(self):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((10, 10))
        Dbar = G + G.T
        phi = np.linalg.svd(Dbar, compute_uv=False)
        lam, k0 = 1.0, 3
        val, _ = solve_lowrank_sdp(Dbar, k0, lam)
        ref = lam / (1 + lam) * np.sum(phi[:k0] ** 2) + np.sum(phi[k0:] ** 2)
        assert val == pytest.approx(ref, rel=1e-3)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            solve_lowrank_sdp(np.array([[1.0, 2.0], [0.0, 1.0]]), 1, 1.0)


class TestBoundGap:
    def test_values(self):
        assert bound_gap(10.0, 10.0) == 0.0
        assert bound_gap(10.0, 5.0) == 0.5

    def test_solved_instance_in_unit_interval(self):
        rng = np.random.default_rng(10)
        inst = ProblemInstance(rng.standard_normal((4, 4)), 1, 2, 1.0, 1.0)
        res = build_perspective_relaxation(inst).solve()
        sol, _ = alternating_minimization(inst, eps=1e-8)
        g = bound_gap(sol.objective, res.lower_bound)
        assert 0.0 <= g < 1.0

    def test_rejects_nonpositive_upper(self):
        with pytest.raises(ValueError):
            bound_gap(0.0, -1.0)


def _support_values(inst):
    """Multistart AM value of every size-k1 support (exhaustive_oracle's
    enumeration, kept per support so that any partial pattern's optimum
    is bounded by the best support consistent with it)."""
    n = inst.n
    cells = [(i, j) for i in range(n) for j in range(n)]
    values = {}
    for support in combinations(cells, inst.k1):
        keep = frozenset(support)
        zero = frozenset(c for c in cells if c not in keep)
        sol, _ = multistart_alternating_minimization(
            inst, n_starts=2, eps=1e-8,
            pattern=SparsityPattern(n, zero, keep))
        values[keep] = sol.objective
    return values


def _random_pattern(rng, n, k1):
    cells = [(i, j) for i in range(n) for j in range(n)]
    picked = [cells[p] for p in rng.permutation(len(cells))[:5]]
    n1 = int(rng.integers(0, k1 + 1))
    n0 = int(rng.integers(0, 4))
    return SparsityPattern(n, frozenset(picked[n1:n1 + n0]),
                           frozenset(picked[:n1]))


def _consistent_best(inst, pattern):
    """The least AM value over the size-k1 supports that hold I1 and miss
    I0 (exhaustive_oracle's stacked enumeration, restricted to the
    pattern), with its solution: every relaxation of the pattern, and so
    every certificate of it, is at most this value."""
    n, k1 = inst.n, inst.k1
    cells = [(i, j) for i in range(n) for j in range(n)]
    supports = [s for s in combinations(cells, k1)
                if pattern.I1 <= set(s) and not pattern.I0 & set(s)]
    keep = np.zeros((len(supports), n, n), dtype=bool)
    for c, support in enumerate(supports):
        keep[c][tuple(np.array(support, dtype=int).reshape(-1, 2).T)] = True
    sol, _ = _multistart(inst, 2, 1e-8, keep=keep)
    return sol


def _bound_at(model, D, W):
    """The model's certificate at an x whose W = 2(D - X - Y) is the
    given unit-scale W, in the caller's units."""
    x = np.zeros(model.problem.A.shape[1])
    x[model.X] = D / model.scale - W / 2
    return (model.certify(x) + model.constant) * model.scale ** 2


class TestCertifiedBound:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_never_above_the_pattern_optimum(self, seed):
        # criterion-4 instances where c'x of an ADMM iterate stopped at 50
        # iterations, less tol*(1+|c'x|), exceeds the AM upper bound
        # (61.2418 vs 61.226 and 9272.67 vs 9268.3); the certificate holds
        # at every truncation
        inst = ProblemInstance(generate_instance(4, 1, 2, 10, seed).D,
                               1, 2, 1.0, 1.0)
        values = _support_values(inst)
        rng = np.random.default_rng(seed)
        patterns = [SparsityPattern(4)] + [_random_pattern(rng, 4, 2)
                                           for _ in range(4)]
        for pattern in patterns:
            best = min(v for keep, v in values.items()
                       if pattern.I1 <= keep and not pattern.I0 & keep)
            model = build_perspective_relaxation(inst, pattern)
            for max_iters in (1, 25, 50, 200):
                res = model.solve(max_iters=max_iters)
                assert res.certified_bound <= best
            res = model.solve()
            assert res.solver_status == "optimal"
            assert res.certified_bound <= best
            assert abs(res.certified_bound - res.lower_bound) \
                <= 1e-3 * res.lower_bound

    def test_lowrank_path_below_spectral_closed_form(self):
        rng = np.random.default_rng(11)
        cases = [(np.eye(2), 1, 1.0)]
        for n, k0 in ((3, 1), (4, 2)):
            A = rng.standard_normal((n, n))
            cases.append((A + A.T, k0, float(rng.uniform(0.2, 3.0))))
        for D, k0, lam in cases:
            phi = np.linalg.svd(D, compute_uv=False)
            ref = lam / (1 + lam) * np.sum(phi[:k0] ** 2) \
                + np.sum(phi[k0:] ** 2)
            model = build_perspective_relaxation(
                ProblemInstance(D, k0, 0, lam, 1.0))
            for max_iters in (1, 25, 50000):
                res = model.solve(max_iters=max_iters)
                assert ref - 1e-12 * ref <= res.certified_bound <= ref

    def test_strengthened_certificates(self):
        rng = np.random.default_rng(12)
        for D in (rng.standard_normal((3, 3)), np.diag([2.0, -1.0, 0.5])):
            inst = ProblemInstance(D, 1, 1, 1.0, 1.0)
            best = min(_support_values(inst).values())
            model = build_strengthened_relaxation(inst)
            for max_iters in (1, 25, 200, 50000):
                res = model.solve(max_iters=max_iters)
                assert np.isfinite(res.certified_bound)
                assert res.certified_bound <= best
            assert res.certified_bound == pytest.approx(res.lower_bound,
                                                        rel=1e-3)

    @pytest.mark.parametrize("case", [
        "budgets", "pattern", "full keep", "strengthened", "low rank",
        "low rank strengthened", "lee zou", "lee zou low rank",
        "lee zou binding"])
    def test_agrees_with_the_conic_value(self, case):
        # at a converged solve d(W) at the final iterate is the relaxation's
        # optimum: the dual is exact
        k1 = 0 if "low rank" in case else 3
        data = generate_instance(5, 2, 3, 3.0, 4)
        inst = ProblemInstance(data.D, 2, k1, 0.5, 0.7)
        cells = [(0, 1), (2, 2), (4, 0), (1, 3), (3, 3)]
        pattern = {"pattern": SparsityPattern(5, cells[:2], cells[2:3]),
                   "full keep": SparsityPattern(5, cells[:2], cells[2:])}
        if "strengthened" in case:
            model = build_strengthened_relaxation(inst)
        elif "lee zou" in case:
            # beta and gamma small enough that both norm budgets bind
            model = build_lee_zou_relaxation(
                inst, *((1.0, 0.5) if "binding" in case else (None, None)))
        else:
            model = build_perspective_relaxation(inst, pattern.get(case))
        res = model.solve(tol=1e-9)
        assert res.solver_status == "optimal"
        assert res.certified_bound == pytest.approx(res.lower_bound,
                                                    rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.sampled_from([3, 4]),
           k1=st.integers(0, 3), n_keep=st.integers(0, 3),
           n_zero=st.integers(0, 4), a=st.floats(0.0, 1.5),
           b=st.sampled_from([0.0, 0.01, 0.3, 3.0]), lee_zou=st.booleans())
    def test_never_above_the_oracle_at_any_w(self, seed, n, k1, n_keep,
                                             n_zero, a, b, lee_zou):
        # W mixes the AM residual of the pattern's best support, which
        # certifies within a few percent, with Gaussian noise; the Lee-Zou
        # model, with its default beta and gamma, takes no pattern
        if lee_zou:
            n_keep = n_zero = 0
        rng = np.random.default_rng(seed)
        lam, mu = rng.choice([0.3, 1.0], size=2)
        inst = ProblemInstance(3 * rng.standard_normal((n, n)), 1, k1,
                               lam, mu)
        cells = [divmod(int(c), n) for c in rng.permutation(n * n)]
        n_keep = min(n_keep, k1)
        n_zero = min(n_zero, n * n - k1)
        pattern = SparsityPattern(n, cells[n_keep:n_keep + n_zero],
                                  cells[:n_keep])
        if pattern.I0 or pattern.I1:
            sol = _consistent_best(inst, pattern)
        else:
            sol, _ = exhaustive_oracle(inst, n_starts=2)
        model = (build_lee_zou_relaxation(inst) if lee_zou else
                 build_perspective_relaxation(inst, pattern))
        W = (a * 2 * (inst.D - sol.X - sol.Y) / model.scale
             + b * rng.standard_normal((n, n)))
        assert _bound_at(model, inst.D, W) <= sol.objective

    def test_stop_target(self):
        inst = ProblemInstance(generate_instance(4, 1, 2, 10, 0).D,
                               1, 2, 1.0, 1.0)
        ub = alternating_minimization(inst, eps=1e-6)[0].objective
        model = build_perspective_relaxation(inst)
        full = model.solve()
        res = model.solve(stop_at=0.99 * ub)
        assert res.solver_status == "bound-reached"
        assert 0.99 * ub * (1 - 1e-12) <= res.certified_bound
        assert res.certified_bound <= full.lower_bound

    def test_every_model_certifies(self):
        inst = ProblemInstance(np.eye(2), 1, 1, 1.0, 1.0)
        best = min(_support_values(inst).values())
        for build in (build_perspective_relaxation,
                      build_strengthened_relaxation,
                      build_lee_zou_relaxation):
            res = build(inst).solve()
            assert np.isfinite(res.certified_bound)
            assert res.certified_bound <= best


def _program_digest(model):
    """sha256 of everything the cone solver reads from a built model."""
    prob = model.problem
    h = hashlib.sha256()
    for arr in (prob.A.indptr.astype(np.int64), prob.A.indices.astype(np.int64),
                prob.A.data, prob.b, prob.c,
                np.array([model.constant, model.scale])):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr([(cone.kind, cone.dim) for cone in prob.cones]).encode())
    return h.hexdigest()


# Dyadic data (entries k/8, max |D| = 1) with explicit beta and gamma: no
# LAPACK result and no rounding enters the programs, so the digests are
# platform independent.
_D_SYM = np.array([[1.0, -0.375, 0.5], [-0.375, 0.25, 0.125],
                   [0.5, 0.125, -0.625]])
_D_ASYM = np.array([[0.75, -0.375, 0.5], [0.125, -1.0, 0.25],
                    [-0.5, 0.625, 0.375]])
_ALL_ZERO = SparsityPattern(3, I0={(i, j) for i in range(3) for j in range(3)})


def _golden_cases():
    asym = ProblemInstance(_D_ASYM, 1, 3, 0.5, 0.25)
    sym = ProblemInstance(_D_SYM, 2, 2, 0.5, 1.0)
    lowrank_asym = ProblemInstance(_D_ASYM, 2, 0, 0.5, 0.25)
    lowrank_sym = ProblemInstance(_D_SYM, 1, 0, 0.25, 0.5)
    pins = SparsityPattern(3, I0={(0, 1), (2, 0)}, I1={(1, 1)})
    return {
        "perspective": lambda: build_perspective_relaxation(asym),
        "perspective_pins": lambda: build_perspective_relaxation(asym, pins),
        "perspective_k1_zero": lambda: build_perspective_relaxation(
            lowrank_asym),
        "perspective_all_zero": lambda: build_perspective_relaxation(
            lowrank_sym, _ALL_ZERO),
        "strengthened_sym": lambda: build_strengthened_relaxation(
            sym, beta=2.0, gamma=1.0),
        "strengthened_asym": lambda: build_strengthened_relaxation(
            asym, beta=1.5, gamma=0.75, pattern=pins),
        "strengthened_sym_lowrank": lambda: build_strengthened_relaxation(
            lowrank_sym, beta=2.0, gamma=1.0),
        "strengthened_asym_lowrank": lambda: build_strengthened_relaxation(
            lowrank_asym, beta=1.5, gamma=0.75),
        "lee_zou": lambda: build_lee_zou_relaxation(asym, 1.5, 0.75),
    }


_GOLDEN_DIGESTS = {
    "lee_zou":
        "b49b4beccec0d755c52f3e7abfc12debfe927644e7e188e5f467b7ad0746543b",
    "perspective":
        "f367377ec0b8cc03aaba46828ef38f8edc78fb2a243edd0cd7bf2668132b166e",
    "perspective_all_zero":
        "d83e733e95a5515b55604e396a8af32beb1667e8bb32999cf103abd7f16d9241",
    "perspective_k1_zero":
        "5c7b918564d0a3c3749bb8b7f852e1bfb5667ce2739674a19ed7d06edc5acc70",
    "perspective_pins":
        "6e5b7e7dfa70849edccf9d0757556b21cc6b432b419865bd8b0d64ee161cfc8c",
    "strengthened_asym":
        "696f4248b8920d83cf375c7bc3132428cf7b8dcd63a51f2dc0a0466a6c49388a",
    "strengthened_asym_lowrank":
        "d81f4922ae6babf4ad522d098651e47244449f182e9a862446a885c844f65db2",
    "strengthened_sym":
        "11340a338af09ea67fe31e9c7345530e8bc1ef055c50ce0de83475737005a30d",
    "strengthened_sym_lowrank":
        "9c29a1083b80bec3b225935dbca2ccdd11552f45d934a984ee37189112a6dc7e",
}


def _bound_row(model, cell):
    """The Z <= 1 row of a perspective program for Z at cell: one row per
    cell of Z, row-major, right after the rotated cones."""
    cones = model.problem.cones
    k = next(i for i, cone in enumerate(cones) if cone.kind != "rsoc")
    return sum(cone.dim for cone in cones[:k]) + np.ravel_multi_index(
        cell, model.Z.shape)


def _row_kinds(problem):
    return np.repeat([cone.kind for cone in problem.cones],
                     [cone.dim for cone in problem.cones])


_P = SparsityPattern(3, I0={(0, 1)}, I1={(2, 2)})
_CHILDREN = [
    (SparsityPattern(3), SparsityPattern(3, I0={(1, 0)}), (1, 0)),
    (_P, SparsityPattern(3, I0={(0, 1), (1, 0)}, I1={(2, 2)}), (1, 0)),
    (_P, SparsityPattern(3, I0={(0, 1)}, I1={(0, 0), (2, 2)}), (0, 0)),
]


class TestPatternRows:
    """Every pattern's perspective program over one instance has the same
    A and c: a pattern moves each pinned cell's Z <= 1 row to the zero
    cone, with constant 0 on I0. A child pattern with one more pinned cell
    fills in that cell's row, so a child's solve starts from its parent's
    final iterate as it is."""

    @staticmethod
    def _instance():
        return ProblemInstance(generate_instance(3, 1, 2, 1.0, 0).D,
                               1, 2, 1.0, 1.0)

    @pytest.mark.parametrize("parent, child, cell", _CHILDREN)
    def test_child_fills_in_the_free_cell_row(self, parent, child, cell):
        inst = self._instance()
        old = build_perspective_relaxation(inst, parent).problem
        new_model = build_perspective_relaxation(inst, child)
        new = new_model.problem
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(new.A, part),
                                          getattr(old.A, part))
        np.testing.assert_array_equal(new.c, old.c)
        row = _bound_row(new_model, cell)
        assert new.A[row].indices.tolist() == [new_model.Z[cell]]
        assert new.A[row].data.tolist() == [1.0]
        # free in the parent: 1 - Z >= 0; pinned in the child: 1 - Z = 0
        # on I1 and -Z = 0 on I0
        old_kinds, new_kinds = _row_kinds(old), _row_kinds(new)
        assert (old_kinds[row], new_kinds[row]) == ("nonneg", "zero")
        assert old.b[row] == 1.0
        assert new.b[row] == (1.0 if cell in child.I1 else 0.0)
        # nothing else differs
        np.testing.assert_array_equal(np.delete(new_kinds, row),
                                      np.delete(old_kinds, row))
        np.testing.assert_array_equal(np.delete(new.b, row),
                                      np.delete(old.b, row))

    @pytest.mark.parametrize("parent, child, cell", _CHILDREN)
    def test_child_starts_from_the_parent_iterate(self, parent, child, cell):
        inst = self._instance()
        res = build_perspective_relaxation(inst, parent).solve(max_iters=50)
        model = build_perspective_relaxation(inst, child)
        warm = model.solve(tol=1e-4, max_iters=50, start=res)
        sol = solve_conic(model.problem, tol=1e-4, max_iters=50,
                          start=res.iterate)
        for got, want in zip(warm.iterate, (sol.x, sol.s, sol.y, sol.rho)):
            np.testing.assert_array_equal(got, want)
        assert warm.solver_status == sol.status
        tau = model.scale
        assert warm.lower_bound == (sol.objective + model.constant) * tau * tau


class TestSkeletonMemo:
    """_build_perspective keeps the last pattern-free program and applies
    each pattern to it."""

    @staticmethod
    def _cold(build):
        relaxations._last_skeleton = None
        return build()

    @pytest.mark.parametrize("build", [
        lambda inst, pattern: build_perspective_relaxation(inst, pattern),
        lambda inst, pattern: build_strengthened_relaxation(
            inst, pattern=pattern),
    ], ids=["perspective", "strengthened"])
    def test_hit_builds_the_cold_program(self, build):
        inst = TestPatternRows._instance()
        first, second = _CHILDREN[1][0], _CHILDREN[1][1]
        cold = self._cold(lambda: build(inst, second))
        self._cold(lambda: build(inst, first))
        hit = build(inst, second)       # the memo holds first's skeleton
        assert _program_digest(hit) == _program_digest(cold)
        assert hit.problem.cones == cold.problem.cones
        for name in ("X", "P", "Z"):
            np.testing.assert_array_equal(getattr(hit, name),
                                          getattr(cold, name))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(cold.problem.c.size)
            assert hit.certify(x) == cold.certify(x)

    @pytest.mark.parametrize("change", [
        lambda D, k0, k1, lam, mu: build_perspective_relaxation(
            ProblemInstance(D[::-1], k0, k1, lam, mu)),   # the same scale
        lambda D, k0, k1, lam, mu: build_perspective_relaxation(
            ProblemInstance(D, k0 + 1, k1, lam, mu)),
        lambda D, k0, k1, lam, mu: build_perspective_relaxation(
            ProblemInstance(D, k0, k1 + 1, lam, mu)),
        lambda D, k0, k1, lam, mu: build_perspective_relaxation(
            ProblemInstance(D, k0, k1, 2 * lam, mu)),
        lambda D, k0, k1, lam, mu: build_perspective_relaxation(
            ProblemInstance(D, k0, k1, lam, 2 * mu)),
        lambda D, k0, k1, lam, mu: build_strengthened_relaxation(
            ProblemInstance(D, k0, k1, lam, mu), beta=2.0, gamma=1.0),
    ], ids=["D", "k0", "k1", "lam", "mu", "beta_gamma"])
    def test_another_argument_misses(self, change):
        inst = TestPatternRows._instance()
        args = (inst.D, inst.k0, inst.k1, inst.lam, inst.mu)
        build_perspective_relaxation(inst)
        hit = change(*args)
        cold = self._cold(lambda: change(*args))
        assert _program_digest(hit) == _program_digest(cold)
        x = np.random.default_rng(1).standard_normal(cold.problem.c.size)
        assert hit.certify(x) == cold.certify(x)

    def test_shared_arrays_are_read_only(self):
        inst = TestPatternRows._instance()
        one = build_perspective_relaxation(inst, _CHILDREN[1][0])
        two = build_perspective_relaxation(inst, _CHILDREN[1][1])
        assert np.shares_memory(one.problem.A.data, two.problem.A.data)
        for v in (two.problem.A.data, two.problem.A.indices,
                  two.problem.A.indptr, two.problem.c, two.Z):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = v[0]
        # b is each program's own
        two.problem.b[0] += 1.0
        assert one.problem.b[0] != two.problem.b[0]


class TestGoldenPrograms:
    """The built cone programs are pinned bit for bit: moving a row, a cone
    or a coefficient changes ADMM's rounding, and with it Z_fractional and
    the branching of branch-and-bound."""

    @pytest.mark.parametrize("case", sorted(_golden_cases()))
    def test_digest(self, case):
        assert _program_digest(_golden_cases()[case]()) == \
            _GOLDEN_DIGESTS[case]

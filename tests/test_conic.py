"""Tests for the first-order cone-program solver."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from splr import conic, experiments
from splr.conic import Cone, ConicProblem, solve_conic
from splr.core import ProblemInstance
from splr.relaxations import build_perspective_relaxation


def _problem(c, rows, b, cones):
    A = scipy.sparse.csr_matrix(np.asarray(rows, dtype=float))
    return ConicProblem(c=np.asarray(c, float), A=A,
                        b=np.asarray(b, float), cones=cones)


def _project_one(v, cone):
    """The solver's projection onto one cone: a single cone's layout
    order is the identity."""
    return conic._project(v, conic._ConeLayout([cone]))


def _one_cone_reference(v, cone):
    """Projection onto one cone, written out cone by cone (the formulas the
    grouped projection vectorizes), as a reference."""
    if cone.kind == "zero":
        return np.zeros_like(v)
    if cone.kind == "nonneg":
        return np.maximum(v, 0.0)
    if cone.kind == "rsoc":
        sq2 = np.sqrt(2.0)
        t = (v[0] + v[1]) / sq2
        z = np.r_[(v[0] - v[1]) / sq2, v[2:]]
        nz = np.linalg.norm(z)
        if nz <= t:
            return v.copy()
        if nz <= -t:
            return np.zeros_like(v)
        coef = 0.5 * (t + nz)
        pz = coef * z / nz
        return np.r_[(coef + pz[0]) / sq2, (coef - pz[0]) / sq2, pz[1:]]
    p = cone.side
    M = 0.5 * (v.reshape(p, p) + v.reshape(p, p).T)
    w, Q = np.linalg.eigh(M)
    return ((Q * np.maximum(w, 0.0)) @ Q.T).ravel()


class TestValidation:
    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            _problem([1.0], [[1.0], [1.0]], [0.0, 0.0], [Cone("nonneg", 1)])

    def test_b_size_mismatch(self):
        with pytest.raises(ValueError):
            _problem([1.0], [[1.0]], [0.0, 0.0], [Cone("nonneg", 1)])

    def test_no_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            _problem([1.0], np.zeros((0, 1)), [], [])

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            _problem([np.nan], [[1.0]], [0.0], [Cone("nonneg", 1)])

    def test_rsoc_min_dim(self):
        with pytest.raises(ValueError):
            Cone("rsoc", 1)

    @pytest.mark.parametrize("cone", [("exp", 2), ("psd", 5), ("rsoc", 1),
                                      ("nonneg", -1), ("psd", -4)])
    def test_malformed_cone_rejected_at_build(self, cone):
        # a Cone checks its kind and dim when it is made, so a malformed
        # one never reaches a problem
        with pytest.raises(ValueError):
            Cone(*cone)

    def test_cone_is_frozen(self):
        cone = Cone("rsoc", 3)
        with pytest.raises(AttributeError):
            cone.dim = 1

    def test_solve_leaves_A_unchanged(self):
        # the problem holds a float CSR matrix's arrays as they are, and
        # the solve scales and permutes copies of them
        data = experiments.generate_instance(3, 1, 2, 1.0, 0)
        built = build_perspective_relaxation(
            ProblemInstance(data.D, 1, 2, 0.5, 0.5)).problem
        A = built.A
        prob = ConicProblem(c=built.c, A=A, b=built.b, cones=built.cones)
        assert all(np.shares_memory(getattr(prob.A, f), getattr(A, f))
                   for f in ("data", "indices", "indptr"))
        before = [v.copy() for v in (A.data, A.indices, A.indptr)]
        solve_conic(prob, max_iters=30)
        for v, w in zip((A.data, A.indices, A.indptr), before):
            np.testing.assert_array_equal(v, w)


class TestProjections:
    def test_zero(self):
        np.testing.assert_array_equal(
            _project_one(np.array([1.0, -2.0]), Cone("zero", 2)), [0.0, 0.0])

    def test_nonneg(self):
        np.testing.assert_array_equal(
            _project_one(np.array([-1.0, 3.0]), Cone("nonneg", 2)), [0.0, 3.0])

    def test_psd_clip(self):
        v = np.diag([1.0, -2.0]).ravel()
        out = _project_one(v, Cone("psd", 4)).reshape(2, 2)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_psd_matches_numpy_eigh_bitwise(self):
        # the stacked LAPACK call is the one np.linalg.eigh makes
        rng = np.random.default_rng(4)
        for side in range(1, 9):
            for count in (1, 2, 5):
                V = rng.standard_normal(count * side * side)
                M = V.reshape(-1, side, side)
                M = 0.5 * (M + M.transpose(0, 2, 1))
                w, Q = np.linalg.eigh(M)
                w = np.maximum(w, 0.0)
                want = ((Q * w[:, None, :]) @ Q.transpose(0, 2, 1)).ravel()
                assert conic._project_psd(V, side).tobytes() == \
                    want.tobytes()
        # LAPACK cannot diagonalize a NaN block
        V = np.r_[np.eye(3).ravel(), np.full(9, np.nan)]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(V.reshape(-1, 3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            conic._project_psd(V, 3)

    def test_rsoc_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(5) * 3
            p = _project_one(v, Cone("rsoc", 5))
            p2 = _project_one(p, Cone("rsoc", 5))
            np.testing.assert_allclose(p, p2, atol=1e-12)
            a, b, w = p[0], p[1], p[2:]
            assert a >= -1e-12 and b >= -1e-12
            assert 2 * a * b >= np.dot(w, w) - 1e-10

    def test_rsoc_distance_minimality_grid(self):
        # dense grid search over the 3-d rotated cone
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 3.0, 61)
        ws = np.linspace(-3.0, 3.0, 121)
        pts = [(a, b, w) for a, b in itertools.product(grid, grid)
               for w in ws if 2 * a * b >= w * w]
        pts = np.array(pts)
        for _ in range(5):
            v = rng.standard_normal(3) * 1.5
            p = _project_one(v, Cone("rsoc", 3))
            d_proj = np.linalg.norm(p - v)
            d_grid = np.min(np.linalg.norm(pts - v, axis=1))
            assert d_proj <= d_grid + 0.05  # grid resolution slack

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for cone in (Cone("nonneg", 4), Cone("rsoc", 4), Cone("psd", 4),
                     Cone("zero", 4)):
            for _ in range(20):
                u, v = rng.standard_normal(4), rng.standard_normal(4)
                pu, pv = _project_one(u, cone), _project_one(v, cone)
                assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_one_row_linear_cones_in_mixed_order(self):
        # zero and nonneg rows form one group in the problem's order, with
        # the zero rows set to 0 after the clip
        cones = [Cone("nonneg", 1), Cone("zero", 1), Cone("zero", 1),
                 Cone("rsoc", 3), Cone("nonneg", 1), Cone("zero", 1),
                 Cone("psd", 4), Cone("nonneg", 1), Cone("zero", 1)]
        layout = conic._ConeLayout(cones)
        bounds = np.cumsum([0] + [co.dim for co in cones])
        rng = np.random.default_rng(4)
        for v in [rng.standard_normal(bounds[-1]) * 3 for _ in range(10)]:
            grouped = np.empty_like(v)
            grouped[layout.order] = conic._project(v[layout.order], layout)
            one_by_one = np.concatenate(
                [_one_cone_reference(v[lo:hi], co)
                 for co, lo, hi in zip(cones, bounds, bounds[1:])])
            np.testing.assert_allclose(grouped, one_by_one, rtol=0,
                                       atol=1e-12)
        # which linear rows are zero rows changes only the zero rows
        flipped = [Cone({"zero": "nonneg", "nonneg": "zero"}.get(
            co.kind, co.kind), co.dim) for co in cones]
        fresh, pinned = conic._ConeLayout(flipped), layout.pin(flipped)
        np.testing.assert_array_equal(pinned.order, layout.order)
        np.testing.assert_array_equal(pinned.order, fresh.order)
        np.testing.assert_array_equal(pinned.zero, fresh.zero)
        assert sorted([*pinned.zero, *layout.zero]) == list(range(7))

    def test_grouped_product_matches_per_cone(self):
        # kinds and sizes interleaved, so sorting moves every group
        cones = [Cone("psd", 16), Cone("rsoc", 3), Cone("zero", 3),
                 Cone("rsoc", 7), Cone("nonneg", 4), Cone("psd", 64),
                 Cone("rsoc", 2), Cone("rsoc", 3), Cone("rsoc", 18),
                 Cone("psd", 16)]
        rng = np.random.default_rng(3)

        def edge_points(cone):
            d = cone.dim
            if cone.kind == "rsoc":
                z, w = np.zeros(d - 2), np.eye(1, d - 2).ravel() * 2.0
                return [np.zeros(d),
                        np.r_[-1.0, -1.0, z],   # z = 0, t < 0
                        np.r_[1.0, 1.0, z],     # z = 0, t > 0
                        np.r_[1.0, 2.0, w],     # boundary: 2ab = |w|^2
                        np.r_[-1.0, -2.0, w],   # polar cone
                        np.r_[0.0, 3.0, z]]     # boundary face a = 0
            if cone.kind == "psd":
                p = cone.side
                B = np.linalg.qr(rng.standard_normal((p, p)))[0]
                ev = np.linspace(-1.0, 1.0, p)
                on_face = (B * np.maximum(ev, 0.0)) @ B.T
                return [np.zeros(d), on_face.ravel(), -on_face.ravel(),
                        ((B * ev) @ B.T).ravel()]
            return [np.zeros(d), -np.ones(d), np.ones(d)]

        edges = [edge_points(co) for co in cones]
        samples = [np.concatenate([pts[i % len(pts)] for pts in edges])
                   for i in range(6)]
        samples += [rng.standard_normal(sum(co.dim for co in cones)) * 3
                    for _ in range(10)]
        bounds = np.cumsum([0] + [co.dim for co in cones])
        layout = conic._ConeLayout(cones)
        with np.errstate(all="raise"):
            for v in samples:
                grouped = np.empty_like(v)
                grouped[layout.order] = conic._project(v[layout.order],
                                                       layout)
                one_by_one = np.concatenate(
                    [_one_cone_reference(v[lo:hi], co)
                     for co, lo, hi in zip(cones, bounds, bounds[1:])])
                np.testing.assert_allclose(grouped, one_by_one, rtol=0,
                                           atol=1e-12)


class TestSolveCorpus:
    def test_linear_bound(self):
        # min x s.t. x >= 1: row s = x - 1 in nonneg
        prob = _problem([1.0], [[-1.0]], [-1.0], [Cone("nonneg", 1)])
        sol = solve_conic(prob)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-4)

    def test_psd_trace(self):
        # min tr(X) s.t. X psd, X11 = 1; vars: x = vec(X) (4 entries)
        c = [1.0, 0.0, 0.0, 1.0]
        rows = [[-1.0, 0, 0, 0],       # zero cone: X11 - 1 = 0
                [-1.0, 0, 0, 0],       # psd block: s = vec(X)
                [0, -1.0, 0, 0],
                [0, 0, -1.0, 0],
                [0, 0, 0, -1.0]]
        b = [-1.0, 0, 0, 0, 0]
        prob = _problem(c, rows, b, [Cone("zero", 1), Cone("psd", 4)])
        sol = solve_conic(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-4)

    def test_rsoc_scalar(self):
        # min alpha s.t. y^2 <= alpha*z, z = 1, y = 2 -> alpha* = 4
        # vars (alpha, z, y); rsoc rows (alpha, z/2, y); zero rows pin z, y
        c = [1.0, 0.0, 0.0]
        rows = [[-1.0, 0, 0],
                [0, -0.5, 0],
                [0, 0, -1.0],
                [0, -1.0, 0],
                [0, 0, -1.0]]
        b = [0, 0, 0, -1.0, -2.0]
        prob = _problem(c, rows, b, [Cone("rsoc", 3), Cone("zero", 2)])
        sol = solve_conic(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(4.0, abs=10 * 1e-5 * 5)

    def test_accuracy_contract(self):
        # |objective - optimum| <= 10*tol*(1+|optimum|) across the corpus
        cases = []
        cases.append((_problem([1.0], [[-1.0]], [-1.0], [Cone("nonneg", 1)]),
                      1.0))
        cases.append((_problem([1.0, 0.0, 0.0],
                               [[-1.0, 0, 0], [0, -0.5, 0], [0, 0, -1.0],
                                [0, -1.0, 0], [0, 0, -1.0]],
                               [0, 0, 0, -1.0, -2.0],
                               [Cone("rsoc", 3), Cone("zero", 2)]), 4.0))
        tol = 1e-5
        for prob, opt in cases:
            sol = solve_conic(prob, tol=tol)
            assert sol.status == "optimal"
            assert abs(sol.objective - opt) <= 10 * tol * (1 + abs(opt))
            assert max(sol.primal_residual, sol.dual_residual,
                       sol.objective_gap) <= tol

    def test_deterministic(self):
        prob = _problem([1.0, 2.0],
                        [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]],
                        [-1.0, -1.0, -3.0],
                        [Cone("nonneg", 3)])
        s1 = solve_conic(prob)
        s2 = solve_conic(prob)
        np.testing.assert_array_equal(s1.x, s2.x)
        np.testing.assert_array_equal(s1.y, s2.y)
        assert s1.iterations == s2.iterations

    def test_setup_and_solve_times(self):
        prob = _problem([1.0, 0.0, 0.0],
                        [[-1.0, 0, 0], [0, -0.5, 0], [0, 0, -1.0],
                         [0, -1.0, 0], [0, 0, -1.0]],
                        [0, 0, 0, -1.0, -2.0],
                        [Cone("rsoc", 3), Cone("zero", 2)])
        start = time.perf_counter()
        sol = solve_conic(prob)
        wall = time.perf_counter() - start
        assert sol.setup_s >= 0.0 and sol.solve_s >= 0.0
        assert sol.setup_s + sol.solve_s <= wall

    def test_max_iters_below_one_rejected(self):
        prob = _problem([1.0], [[-1.0]], [-1.0], [Cone("nonneg", 1)])
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="max_iters"):
                solve_conic(prob, max_iters=max_iters)

    def test_max_iters_must_be_an_integer(self):
        # 2.5 ran 3 iterations and returned iteration 1's x as iteration
        # 3's; the loop ends at a check only for an integer count
        prob = _problem([1.0], [[-1.0]], [-1.0], [Cone("nonneg", 1)])
        for max_iters in (2.5, 60.5):
            with pytest.raises(TypeError):
                solve_conic(prob, max_iters=max_iters)
        for prob, _ in _corpus():
            numpy_int = solve_conic(prob, max_iters=np.int64(60))
            assert numpy_int.iterations == 60
            np.testing.assert_array_equal(
                numpy_int.x, solve_conic(prob, max_iters=60).x)

    def test_row_order_does_not_change_the_solve(self):
        # strictly feasible primal (s0 inside K) and dual (y0 inside K*),
        # so the optimum is attained; the cones interleave every kind
        cones = [Cone("psd", 4), Cone("zero", 2), Cone("rsoc", 3),
                 Cone("nonneg", 3), Cone("rsoc", 4), Cone("psd", 9)]
        rng = np.random.default_rng(0)
        inner = {"zero": lambda d: np.zeros(d), "nonneg": np.ones,
                 "rsoc": lambda d: np.r_[1.0, 1.0, np.full(d - 2, 0.3)],
                 "psd": lambda d: np.eye(round(d ** 0.5)).ravel()}
        s0 = np.concatenate([inner[co.kind](co.dim) for co in cones])
        y0 = np.concatenate([rng.standard_normal(co.dim) if co.kind == "zero"
                             else inner[co.kind](co.dim) for co in cones])
        m, n = s0.size, 6
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
        b = A @ rng.standard_normal(n) + s0
        mixed = _problem(-A.T @ y0, A, b, cones)
        # the same program with each cone's rows contiguous, kinds sorted
        starts = np.cumsum([0] + [co.dim for co in cones])
        by_kind = sorted(range(len(cones)),
                         key=lambda i: conic._KINDS.index(cones[i].kind))
        rows = np.concatenate([np.arange(starts[i], starts[i + 1])
                               for i in by_kind])
        assert not np.array_equal(rows, np.arange(m))
        tidy = _problem(mixed.c, A[rows], b[rows], [cones[i] for i in by_kind])
        one, two = (solve_conic(p, certify=lambda x: float(mixed.c @ x))
                    for p in (mixed, tidy))
        assert one.status == two.status == "optimal"
        np.testing.assert_allclose(one.x, two.x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(one.s[rows], two.s, rtol=0, atol=1e-9)
        np.testing.assert_allclose(one.y[rows], two.y, rtol=0, atol=1e-9)
        assert np.isfinite(one.certified_bound)
        assert one.certified_bound == pytest.approx(two.certified_bound,
                                                    rel=0, abs=1e-9)
        # s and y come back in the caller's rows: Ax + s = b, c + A'y = 0
        np.testing.assert_allclose(A @ one.x + one.s, b, atol=1e-3)
        np.testing.assert_allclose(mixed.c + A.T @ one.y, 0.0, atol=1e-3)

    def test_n30_perspective_within_memory(self):
        # a dense AA' + I of its 8,000+ rows alone would take over 500 MB
        inst = experiments.generate_instance(30, 2, 60, 10.0, 0)
        inst = ProblemInstance(inst.D, inst.k0, inst.k1, 1.0, 1.0)
        prob = build_perspective_relaxation(inst).problem
        tracemalloc.start()
        try:
            sol = solve_conic(prob, max_iters=25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.iterations == 25
        assert peak < 100e6

    def test_dual_feasibility_and_gap(self):
        prob = _problem([1.0], [[-1.0]], [-1.0], [Cone("nonneg", 1)])
        sol = solve_conic(prob)
        # dual of min c'x s.t. Ax+s=b: max -b'y, c + A'y = 0, y in K*
        assert sol.y[0] >= -1e-6
        assert abs(sol.objective - (-prob.b @ sol.y)) <= 1e-3


def _corpus():
    """(program, optimum) pairs: psd with a pinned entry, rsoc with pinned
    rows (their zero-cone duals are negative at the optimum) and a
    two-variable LP; each takes at least 75 iterations from a cold start."""
    psd = _problem([1.0, 0.0, 0.0, 1.0],
                   [[-1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0, -1.0, 0, 0],
                    [0, 0, -1.0, 0], [0, 0, 0, -1.0]],
                   [-1.0, 0, 0, 0, 0], [Cone("zero", 1), Cone("psd", 4)])
    rsoc = _problem([1.0, 0.0, 0.0],
                    [[-1.0, 0, 0], [0, -0.5, 0], [0, 0, -1.0],
                     [0, -1.0, 0], [0, 0, -1.0]],
                    [0, 0, 0, -1.0, -2.0], [Cone("rsoc", 3), Cone("zero", 2)])
    lp = _problem([1.0, 2.0], [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]],
                  [-1.0, -1.0, -3.0], [Cone("nonneg", 3)])
    return [(psd, 1.0), (rsoc, 4.0), (lp, 4.0)]


def _checks(iterations):
    """The iterations at which a solve that ran this many checked."""
    return {1, iterations} | set(range(25, iterations + 1, 25))


class _Recorder:
    """A stand-in certificate: it records each x it is given and returns
    values in turn (the call count, by default)."""

    def __init__(self, values=None):
        self.xs = []
        self.values = values

    def __call__(self, x):
        self.xs.append(x.copy())
        return (float(len(self.xs)) if self.values is None
                else self.values[len(self.xs) - 1])


def _ridge_case():
    """A perspective program whose budgets do not bind (k0 = n, k1 = n^2),
    so its optimum is the ridge value ||D||^2/(1 + 1/lam + 1/mu), with the
    model's certificate: (program, certify, optimum in model units)."""
    D = np.array([[1.0, -0.5], [0.25, 0.75]])
    model = build_perspective_relaxation(ProblemInstance(D, 2, 4, 1.0, 1.0))
    opt = np.sum((D / model.scale) ** 2) / 3
    return model.problem, model.certify, opt


class TestCertificate:
    def test_bound_at_every_truncation_and_tight_at_optimal(self):
        prob, certify, opt = _ridge_case()
        for max_iters in (1, 25, 50, 200):
            sol = solve_conic(prob, max_iters=max_iters, certify=certify)
            assert sol.certified_bound <= opt
        sol = solve_conic(prob, certify=certify)
        assert sol.status == "optimal"
        assert opt - 1e-3 * opt <= sol.certified_bound <= opt

    def test_certificate_never_changes_the_iterates(self):
        # with an unreachable target it is read at every check, without
        # one only at the returned x
        for prob, _ in _corpus():
            for max_iters in (30, 50000):
                plain = solve_conic(prob, max_iters=max_iters)
                for stop_at in (None, math.inf):
                    seen = _Recorder()
                    sol = solve_conic(prob, max_iters=max_iters,
                                      certify=seen, stop_at=stop_at)
                    for name in ("x", "s", "y"):
                        np.testing.assert_array_equal(getattr(plain, name),
                                                      getattr(sol, name))
                    assert plain.status == sol.status
                    assert plain.iterations == sol.iterations
                    assert plain.certified_bound == -np.inf
                    calls = (1 if stop_at is None
                             else len(_checks(sol.iterations)))
                    assert len(seen.xs) == calls
                    np.testing.assert_array_equal(seen.xs[-1], sol.x)
                    assert sol.certified_bound == calls

    def test_stop_target_ends_the_solve(self):
        # the third check (iteration 50) is the first whose bound reaches
        # the target
        for prob, _ in _corpus():
            sol = solve_conic(prob, certify=_Recorder(), stop_at=3.0)
            assert sol.status == "bound-reached"
            assert sol.iterations == 50
            assert sol.certified_bound == 3.0
            plain = solve_conic(prob, max_iters=50)
            np.testing.assert_array_equal(plain.x, sol.x)

    def test_bound_reached_at_the_first_check(self):
        prob, _ = _corpus()[0]
        sol = solve_conic(prob, certify=_Recorder([7.0]), stop_at=7.0)
        assert sol.status == "bound-reached" and sol.iterations == 1

    def test_stop_target_needs_a_certificate(self):
        prob, _ = _corpus()[0]
        with pytest.raises(ValueError, match="certificate"):
            solve_conic(prob, stop_at=0.0)

    def test_nan_stop_target_rejected(self):
        # a NaN target was never reached, so the solve ran to 'optimal'
        prob, _ = _corpus()[0]
        with pytest.raises(ValueError, match="stop_at"):
            solve_conic(prob, certify=_Recorder(), stop_at=math.nan)


def _bits(sol):
    """Everything a solution holds but its timings, as comparable bytes."""
    return [np.asarray(getattr(sol, name)).tobytes() for name in
            ("x", "s", "y", "objective", "certified_bound", "rho",
             "primal_residual", "dual_residual", "objective_gap")] + \
        [sol.status, sol.iterations]


class TestSetupMemo:
    """solve_conic keeps the last solve's setup, keyed on A's bytes and
    the rsoc/psd structure; a reused setup gives the bits of a fresh
    one."""

    @staticmethod
    def _cold(problem, **kwargs):
        conic._last_setup = None
        return solve_conic(problem, **kwargs)

    def test_node_programs_share_one_setup(self, splu_calls):
        # three patterns over one instance: the same A, c and rows, other
        # zero rows and b
        from splr.altmin import SparsityPattern
        inst = ProblemInstance(
            experiments.generate_instance(4, 1, 2, 1.0, 0).D, 1, 2, 0.5, 0.5)
        models = [build_perspective_relaxation(inst, pattern) for pattern in
                  (SparsityPattern(4),
                   SparsityPattern(4, I0={(0, 1)}, I1={(2, 2)}),
                   SparsityPattern(4, I0={(0, 1), (1, 1), (3, 0)}))]
        for prev, model in itertools.permutations(models, 2):
            cold = self._cold(model.problem, certify=model.certify,
                              max_iters=200)
            self._cold(prev.problem, max_iters=5)
            splu_calls.clear()
            hit = solve_conic(model.problem, certify=model.certify,
                              max_iters=200)
            assert splu_calls == []
            assert _bits(hit) == _bits(cold)

    def test_another_A_or_structure_misses(self, splu_calls):
        lp, _ = _corpus()[2]
        others = [
            # other data, the same pattern and cones
            _problem(lp.c, 2.0 * lp.A.toarray(), lp.b, lp.cones),
            # the same A under another rsoc/psd structure
            ConicProblem(c=lp.c, A=lp.A, b=np.array([1.0, 1.0, 3.0]),
                         cones=[Cone("rsoc", 3)]),
        ]
        for other in others:
            cold = self._cold(other, max_iters=60)
            solve_conic(lp, max_iters=5)
            splu_calls.clear()
            assert _bits(solve_conic(other, max_iters=60)) == _bits(cold)
            assert len(splu_calls) == 1

    def test_A_edited_in_place_misses(self, splu_calls):
        prob, _ = _corpus()[0]
        edited = _problem(prob.c, prob.A.toarray(), prob.b, prob.cones)
        edited.A.data[0] = 2.0
        cold = self._cold(edited)
        solve_conic(prob)
        prob.A.data[0] = 2.0    # now equal to edited by content
        splu_calls.clear()
        assert _bits(solve_conic(prob)) == _bits(cold)
        assert len(splu_calls) == 1


class TestWarmStart:
    def _solved(self):
        prob, opt = _corpus()[0]
        return prob, opt, solve_conic(prob)

    def test_start_with_wrong_sizes_rejected(self):
        prob, _, sol = self._solved()
        for start in ((sol.x[1:], sol.s, sol.y, sol.rho),
                      (sol.x, sol.s[1:], sol.y, sol.rho),
                      (sol.x, sol.s, np.r_[sol.y, 0.0], sol.rho)):
            with pytest.raises(ValueError, match="sizes"):
                solve_conic(prob, start=start)

    def test_nonfinite_start_rejected(self):
        prob, _, sol = self._solved()
        for k in range(3):
            start = [sol.x.copy(), sol.s.copy(), sol.y.copy(), sol.rho]
            start[k][0] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                solve_conic(prob, start=tuple(start))
        with pytest.raises(ValueError, match="non-finite"):
            solve_conic(prob, start=(sol.x, sol.s, sol.y, np.inf))

    def test_nonpositive_rho_rejected(self):
        prob, _, sol = self._solved()
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError, match="rho"):
                solve_conic(prob, start=(sol.x, sol.s, sol.y, rho))

    def test_restart_from_the_optimum_stops_at_the_first_check(self):
        tol = 1e-5
        for prob, opt in _corpus():
            full = solve_conic(prob, tol=tol)
            assert full.status == "optimal" and full.rho > 0
            again = solve_conic(prob, tol=tol,
                                start=(full.x, full.s, full.y, full.rho))
            assert again.status == "optimal"
            assert again.iterations == 1
            assert abs(again.objective - full.objective) <= \
                tol * (1 + abs(full.objective))

    def test_cold_start_is_the_zero_start(self):
        data = experiments.generate_instance(3, 1, 3, 2.0, 0)
        inst = ProblemInstance(data.D, 1, 3, 1.0, 1.0)
        model = build_perspective_relaxation(inst)
        cases = [(prob, certify) for prob, _ in _corpus()
                 for certify in (None, lambda x, c=prob.c: float(c @ x))]
        cases.append((model.problem, model.certify))
        for prob, certify in cases:
            m, n = prob.A.shape
            cold = solve_conic(prob, certify=certify)
            zero = solve_conic(prob, certify=certify, start=(
                np.zeros(n), np.zeros(m), np.zeros(m), 1.0))
            for name in ("x", "s", "y", "objective", "certified_bound",
                         "rho"):
                assert np.asarray(getattr(cold, name)).tobytes() == \
                    np.asarray(getattr(zero, name)).tobytes(), name
            assert cold.iterations == zero.iterations
            assert cold.status == zero.status

    def test_certificate_does_not_depend_on_the_start(self):
        prob, certify, opt = _ridge_case()
        m, n = prob.A.shape
        rng = np.random.default_rng(3)
        start = (10 * rng.standard_normal(n), rng.standard_normal(m),
                 10 * rng.standard_normal(m), 0.01)
        for max_iters in (1, 25, 200, 50000):
            sol = solve_conic(prob, certify=certify, max_iters=max_iters,
                              start=start)
            assert sol.certified_bound <= opt

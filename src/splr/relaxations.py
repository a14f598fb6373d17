"""Convex relaxations of the sparse-plus-low-rank problem in cone-program form.

Three families are provided:

* the perspective relaxation: per-entry cones Y_ij^2 <= alpha_ij * Z_ij with
  a fractional support matrix Z, plus a lifted trace term for the low-rank
  part through a projection-matrix variable P;
* a nuclear-norm / l1 relaxation (after Lee and Zou) parameterized by bounds
  beta on the spectral norm of X and gamma on the entries of Y;
* a strengthened variant combining both with coupling boxes -gamma*Z <= Y
  <= gamma*Z and spectral blocks built from row/column projection variables.

When k1 = 0 forces the sparse part to vanish, the residual quadratic in
X is replaced by its exact linearization
||D||^2 - 2<D, X> + (1+lam)*tr(Theta), which is tight for the pure low-rank
problem; keeping the quadratic there gives a strictly weaker bound.

Every perspective-family model (the strengthened one included) carries a
certificate: a map from any iterate of its cone program to a lower bound
on its optimum, valid whether or not the solve converged. With Theta, P,
alpha, Z and t minimized out, the relaxation is min ||D - X - Y||^2 +
lam*h_k0(sigma(X)) + mu*h_k1(Y), with h_k the squared k-support norm
(Argyriou, Foygel and Srebro, NeurIPS 2012), whose conjugate at u is the
sum of the k largest u_i^2 over 4. Fenchel-Young term by term gives

    d(W) = <D, W> - ||W||^2/4 - sum_{i<=k0} sigma_i(W)^2/(4 lam)
           - (sum_{I1} W_ij^2 + the top k1-|I1| free W_ij^2)/(4 mu)

at any W, read at W = 2(D - X - Y). The strengthened relaxation is at
least the perspective one, so d(W) bounds it too. The linearized low-rank
model is certified by its value ||D||^2 - sum_{i<=k0} sigma_i(D)^2/(1+lam).
The Lee-Zou model, whose budgets are ||X||_* <= beta*k0 and ||Y||_1 <=
gamma*k1, gets d(W) with the top-k sums replaced by
phi_{lam, beta*k0}(sigma(W)) and phi_{mu, gamma*k1}(|W_ij|), where
phi_{lam,r}(w) = max {<w, v> - lam*||v||^2 : v >= 0, sum(v) <= r}.

Programs are built from integer id matrices: the builder hands out each
matrix variable as an array of variable ids (a symmetric one numbers its
upper triangle row-major), and a whole cone is added at once from a
constant vector plus (rows, ids, coef) terms, so a PSD block is one
``np.block`` of id matrices. The terms collect into one COO triple that
becomes the CSR constraint matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .altmin import SparsityPattern
from .conic import Cone, ConicProblem, solve_conic
from .core import ProblemInstance, _as_matrix, check_finite


class _ConeProgramBuilder:
    """Accumulates variables, objective terms, and cone-tagged rows.

    Row semantics: each row r of a cone is a slack component
    s_r = const_r + sum of coef * x[id] over the terms touching r, and s
    must lie in the cone.
    """

    def __init__(self):
        self.nvars = 0
        self.rows = 0
        self.constant = 0.0
        self.cones = []
        self._obj = []
        self._coo = ([], [], [])
        self._b = []

    def new_vars(self, *shape):
        """Fresh variables as an id array of the given shape (() is one)."""
        size = math.prod(shape)
        self.nvars += size
        return np.arange(self.nvars - size, self.nvars).reshape(shape)

    def sym_vars(self, n):
        """Symmetric n x n id matrix over its upper triangle, row-major."""
        upper = np.triu(np.ones((n, n), dtype=bool))
        ids = np.empty((n, n), dtype=np.int64)
        ids[upper] = ids.T[upper] = self.new_vars(n * (n + 1) // 2)
        return ids

    def add_objective(self, ids, coef):
        self._obj.append((ids, coef))

    def add_cone(self, kind, const, *terms, count=1):
        """Append count equal cones over the len(const) rows. Each term
        (rows, ids, coef) adds coef * x[ids] to the given rows; rows=None
        pairs row r with the r-th id."""
        const = np.asarray(const, dtype=float)
        ri, rj, rv = self._coo
        for rows, ids, coef in terms:
            ids = np.ravel(ids)
            rows = np.arange(ids.size) if rows is None else rows
            ri.append(np.full(ids.size, rows + self.rows))
            rj.append(ids)
            rv.append(np.full(ids.size, np.ravel(coef), dtype=float))
        self._b.append(const)
        self.cones += [Cone(kind, const.size // count)] * count
        self.rows += const.size

    def build(self) -> ConicProblem:
        import scipy.sparse

        ri, rj, rv = (np.concatenate(part) for part in self._coo)
        keep = rv != 0.0
        A = scipy.sparse.csr_matrix((-rv[keep], (ri[keep], rj[keep])),
                                    shape=(self.rows, self.nvars))
        c = np.zeros(self.nvars)
        for ids, coef in self._obj:
            np.add.at(c, ids, coef)
        return ConicProblem(c=c, A=A, b=np.concatenate(self._b),
                            cones=self.cones)


@dataclass
class RelaxationResult:
    lower_bound: float
    Z_fractional: np.ndarray
    P_fractional: np.ndarray
    X_relax: np.ndarray
    solver_status: str
    # the model's certificate at the final iterate: a lower bound on the
    # relaxation's optimum whether or not the solve converged; -inf where
    # the iterate is not finite
    certified_bound: float
    # the final (x, s, y, rho) in model units: starts another pattern's solve
    iterate: tuple


@dataclass
class RelaxationModel:
    """A built cone program plus the id matrices of the variables to read
    back from its solution (None for a variable the program does not have,
    which reads as zero).

    The program is built on D/scale (unit-magnitude data keeps the ADMM
    iterates well conditioned); bounds scale back by scale^2 and the
    matrix variables by scale. certify maps any x to a lower bound on
    the optimal c'x (module docstring).

    A pattern moves each pinned cell's Z <= 1 row from the nonneg to the
    zero cone, with constant 0 on I0, so every pattern's program over one
    instance has the same variables, rows, A and c, and one's final
    iterate can start another's.
    """

    problem: ConicProblem
    constant: float
    X: np.ndarray
    certify: Callable[[np.ndarray], float]
    P: np.ndarray = None
    Z: np.ndarray = None
    scale: float = 1.0

    def solve(self, tol: float = 1e-5, max_iters: int = 50000,
              stop_at: float | None = None,
              start: RelaxationResult | None = None) -> RelaxationResult:
        """Solve the program and certify a lower bound at its final
        iterate. Given stop_at (in the caller's units), stop once the
        certified bound reaches it (status 'bound-reached'). start,
        another pattern's result, starts the solver from its final
        iterate."""
        tau2 = self.scale * self.scale
        if stop_at is not None:
            stop_at = stop_at / tau2 - self.constant    # model units
        sol = solve_conic(self.problem, tol=tol, max_iters=max_iters,
                          certify=self.certify, stop_at=stop_at,
                          start=None if start is None else start.iterate)
        x, tau = sol.x, self.scale

        def read(ids):
            return np.zeros(self.X.shape) if ids is None else x[ids]

        # rounding of the shift back to caller units: a few ulps
        cert = (sol.certified_bound + self.constant) * tau2 - 4 * tau2 * \
            math.ulp(abs(sol.certified_bound) + abs(self.constant))
        return RelaxationResult(
            lower_bound=float(sol.objective + self.constant) * tau * tau,
            Z_fractional=np.clip(read(self.Z), 0.0, 1.0),
            P_fractional=read(self.P), X_relax=tau * read(self.X),
            solver_status=sol.status,
            certified_bound=cert, iterate=(sol.x, sol.s, sol.y, sol.rho))


def _add_trace_budget(bld, P, k0):
    """tr(P) <= k0."""
    bld.add_cone("nonneg", [float(k0)], (0, np.diag(P), -1.0))


def _add_unit_box(bld, P):
    """0 <= P <= I in the PSD order."""
    bld.add_cone("psd", np.zeros(P.size), (None, P, 1.0))
    bld.add_cone("psd", np.eye(len(P)).ravel(), (None, P, -1.0))


def _add_psd_block(bld, A, X, B, scale=1.0):
    """2n x 2n block [[scale*A, X], [X', scale*B]] >= 0."""
    n = len(X)
    coef = np.ones((2 * n, 2 * n))
    coef[:n, :n] = coef[n:, n:] = scale
    bld.add_cone("psd", np.zeros(coef.size),
                 (None, np.block([[A, X], [X.T, B]]), coef))


def _add_square_epigraph(bld, t, const, *terms):
    """t >= ||const + sum of coef * x[ids]||^2 as the rotated cone
    [t; 1/2; const + sum of coef * x[ids]], one (ids, coef) per term."""
    rest = 2 + np.arange(np.size(const))
    bld.add_cone("rsoc", np.concatenate(([0.0, 0.5], np.ravel(const))),
                 (0, t, 1.0),
                 *[(rest, ids, coef) for ids, coef in terms])


def _abs_box_terms(W, Y, scale):
    """Terms of the rows scale*W_p - Y_p >= 0, scale*W_p + Y_p >= 0 (rows
    2p and 2p+1), i.e. |Y| <= scale*W entrywise."""
    r = 2 * np.arange(W.size)
    return [(r, W, scale), (r, Y, -1.0), (r + 1, W, scale), (r + 1, Y, 1.0)]


def _row_projection(bld, D, P, k0):
    """The row-space projection of the scaled block: P itself when D is
    symmetric, else a fresh Pr with its own trace budget and unit box."""
    if _is_symmetric(D):
        return P
    Pr = bld.sym_vars(len(P))
    _add_trace_budget(bld, Pr, k0)
    _add_unit_box(bld, Pr)
    return Pr


def _is_symmetric(D):
    return np.abs(D - D.T).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(D).max(initial=0.0))


def _bounds(instance, beta, gamma):
    """beta and gamma, by default bounds on ||X||_2 and max |Y_ij| at any
    optimum: it costs at most U = ||D||^2 (X = Y = 0), X is a truncated SVD
    of (D - Y)/(1+lam), and Y = (D - X)/(1+mu) on its support."""
    D, lam, mu = instance.D, instance.lam, instance.mu
    x_cap, y_cap = (math.sqrt(np.sum(D * D) / w) for w in (lam, mu))
    # D = 0 has the one optimum X = Y = 0, which any positive value bounds
    if beta is None:
        beta = min((float(np.linalg.norm(D, 2)) + y_cap) / (1 + lam),
                   x_cap) or 1.0
    if gamma is None:
        gamma = min((float(np.abs(D).max()) + beta) / (1 + mu), y_cap) or 1.0
    check_finite(beta=beta, gamma=gamma)
    return beta, gamma


def _normalized(D):
    """Unit-magnitude copy of D and the applied scale factor tau.

    The feasible set of every relaxation is covariant under D -> D/tau
    (X, Y scale by 1/tau; Theta, alpha by 1/tau^2; Z, P unchanged), so the
    optimal value on the normalized data times tau^2 is exact. Working at
    unit scale keeps the first-order solver's iterates well conditioned.
    """
    tau = float(np.abs(D).max())
    if tau <= 0 or tau == 1.0:
        return D, 1.0
    return D / tau, tau


def _fenchel_certificate(D, X, Y, lam, conjugates):
    """x -> d(W) at W = 2(D - X - Y) (module docstring), less a rounding
    slack, as a bound on c'x; -inf where W is not finite. conjugates(sigma(W),
    W) gives d(W)'s low-rank terms, which sum to at most n sigma_1^2/(4 lam),
    and its sparse ones. A partial SVD would overstate d(W)."""
    n = len(D)
    slack = 32 * n * np.finfo(float).eps   # a few ulps per summed entry

    def certify(x):
        W = 2.0 * (D - x[X] - x[Y])
        if not np.isfinite(W).all():
            return -math.inf
        sv = np.linalg.svd(W, compute_uv=False)
        x_terms, y_terms = conjugates(sv, W)
        fit, quad = D * W, np.sum(W * W) / 4
        size = (np.abs(fit).sum() + quad + n * (sv[0] * sv[0] / (4 * lam))
                + np.abs(y_terms).sum())
        return float(fit.sum() - quad - x_terms.sum() - y_terms.sum()
                     - slack * size)

    return certify


def _perspective_certificate(D, k0, k1, lam, mu, X, Y, pattern):
    """The certificate of _build_perspective's program over unit-scale D:
    d(W) with the top-k sums, or the linearized low-rank model's value."""
    if k1 == 0:
        top = np.sum(np.linalg.svd(D, compute_uv=False)[:k0] ** 2)
        slack = 32 * len(D) * np.finfo(float).eps
        bound = -top / (1 + lam) - slack * (float(np.sum(D * D)) + top)
        return lambda x: bound
    if pattern is None:
        pattern = SparsityPattern(len(D))
    keep, free = pattern.keep, ~(pattern.keep | pattern.zero)
    # the free cells' count less the budget they share
    skip = np.count_nonzero(free) - (k1 - len(pattern.I1))

    def conjugates(sv, W):
        sy = W * W / (4 * mu)
        return (sv[:k0] ** 2 / (4 * lam),
                np.r_[sy[keep], np.sort(sy[free])[skip:]])

    return _fenchel_certificate(D, X, Y, lam, conjugates)


def _capped_ridge_terms(w, lam, r):
    """Terms summing to phi_{lam,r}(w) >= 0 of the module docstring: nu*r
    and (w - nu)_+^2/(4 lam), nu >= 0 the least level where the maximizer
    (w - nu)_+/(2 lam) meets the cap r: the largest mean excess over 2 lam r
    of a prefix of w sorted down. Any nu >= 0 gives at least phi."""
    w = np.sort(np.ravel(w))[::-1]
    nu = max(np.max((np.cumsum(w) - 2 * lam * r)
                    / np.arange(1, w.size + 1)), 0.0)
    return np.r_[nu * r, np.maximum(w - nu, 0.0) ** 2 / (4 * lam)]


class _Skeleton(NamedTuple):
    """A pattern-free perspective program (A and c read-only), its id
    matrices, the first row and the cone index of its Z <= 1 rows (the
    cone is None without Z) and pattern -> its certificate."""

    problem: ConicProblem
    constant: float
    X: np.ndarray
    P: np.ndarray
    Z: np.ndarray
    bound_row: int
    bound_cone: int | None
    certificate: Callable


# the last _build_perspective call's (key, _Skeleton), replaced as one
# tuple
_last_skeleton = None


def _build_perspective(D, tau, k0, k1, lam, mu, pattern=None, strengthen=None):
    """The perspective relaxation of unit-scale D, optionally with the
    strengthening (beta, gamma). When k1 = 0 it is the linearized
    low-rank model: objective ||D||^2 - 2<D, X> + (1+lam)*tr(Theta) under
    the trace budget and the blocks, with no residual or Z.

    The pattern-free program of the last call is kept, keyed on all it is
    built from (D's bytes and every other argument but the pattern), and
    every model is that skeleton with the pattern applied by
    _with_pattern. Zero's sign never reaches the program (the builder
    drops zero coefficients and adds objective terms to 0.0), so keys
    that compare equal build equal programs."""
    global _last_skeleton
    if pattern is not None:
        pattern.check(len(D), k1)
    key = (D.shape, D.tobytes(), tau, k0, k1, lam, mu, strengthen)
    last = _last_skeleton
    if last is None or last[0] != key:
        last = _last_skeleton = (key, _perspective_skeleton(
            D, tau, k0, k1, lam, mu, strengthen))
    return _with_pattern(last[1], tau, pattern)


def _perspective_skeleton(D, tau, k0, k1, lam, mu, strengthen):
    """_build_perspective's pattern-free program."""
    n = len(D)
    D = D.copy()    # the certificate reads D; the caller's may change
    lowrank = k1 == 0   # only then can a pattern force every entry zero
    bld = _ConeProgramBuilder()
    if lowrank:
        X = bld.new_vars(n, n)
        Y = Z = None
    else:
        t = bld.new_vars()
        X, Y, Z, alpha = (bld.new_vars(n, n) for _ in range(4))
    Th, P = bld.sym_vars(n), bld.sym_vars(n)
    bound_row, bound_cone = 0, None

    if lowrank:
        bld.constant += float(np.sum(D * D))
        bld.add_objective(X, -2.0 * D)
        bld.add_objective(np.diag(Th), 1.0 + lam)
    else:
        bld.add_objective(t, 1.0)
        bld.add_objective(np.diag(Th), lam)
        bld.add_objective(alpha, mu)
        _add_square_epigraph(bld, t, D, (X, -1.0), (Y, -1.0))
        # per-entry perspective cones Y_ij^2 <= alpha_ij * Z_ij
        r = 3 * np.arange(n * n)
        bld.add_cone("rsoc", np.zeros(3 * n * n), (r, alpha, 1.0),
                     (r + 1, Z, 0.5), (r + 2, Y, 1.0), count=n * n)
        # Z <= 1, row-major (Z >= 0 is implied by the cones above); a
        # pattern moves a pinned cell's row to the zero cone
        bound_row, bound_cone = bld.rows, len(bld.cones)
        bld.add_cone("nonneg", np.ones(n * n), (None, Z, -1.0))
        bld.add_cone("nonneg", [float(k1)], (0, Z, -1.0))
    _add_trace_budget(bld, P, k0)
    _add_unit_box(bld, P)
    _add_psd_block(bld, Th, X, P)

    if strengthen is not None:
        beta, gamma = strengthen
        if not lowrank:
            bld.add_cone("nonneg", np.zeros(2 * n * n),
                         *_abs_box_terms(Z, Y, gamma))
        _add_psd_block(bld, _row_projection(bld, D, P, k0), X, P,
                       scale=beta)

    problem = bld.build()
    # every model of this skeleton shares these arrays
    for v in (problem.A.data, problem.A.indices, problem.A.indptr,
              problem.c, D, X, Y, P, Z):
        if v is not None:
            v.flags.writeable = False
    return _Skeleton(problem, bld.constant, X, P, Z, bound_row, bound_cone,
                     functools.partial(_perspective_certificate, D, k0, k1,
                                       lam, mu, X, Y))


def _with_pattern(skeleton, tau, pattern):
    """The skeleton's program for a pattern: each pinned cell's Z <= 1
    row in the zero cone, so Z_ij = 1, with constant 0 on I0, so Z_ij =
    0. The program shares the skeleton's A and c."""
    prob, k = skeleton.problem, skeleton.bound_cone
    cones, b = list(prob.cones), prob.b.copy()
    if pattern is not None and k is not None:
        pinned = (pattern.zero | pattern.keep).ravel()
        edges = np.flatnonzero(pinned[1:] != pinned[:-1]) + 1
        cuts = [0, *edges.tolist(), pinned.size]
        cones[k:k + 1] = [Cone("zero" if pinned[lo] else "nonneg", hi - lo)
                          for lo, hi in zip(cuts, cuts[1:])]
        b[skeleton.bound_row + np.flatnonzero(pattern.zero)] = 0.0
    return RelaxationModel(
        problem=ConicProblem(c=prob.c, A=prob.A, b=b, cones=cones),
        constant=skeleton.constant, X=skeleton.X, P=skeleton.P,
        Z=skeleton.Z, scale=tau, certify=skeleton.certificate(pattern))


def build_perspective_relaxation(instance: ProblemInstance,
                                 pattern: SparsityPattern | None = None) -> RelaxationModel:
    """Cone program for the perspective relaxation under the budgets
    tr(P) <= k0 and sum(Z) <= k1, honoring a partial pattern by pinning
    the corresponding Z entries."""
    D, tau = _normalized(instance.D)
    return _build_perspective(D, tau, instance.k0, instance.k1, instance.lam,
                              instance.mu, pattern)


def build_strengthened_relaxation(instance: ProblemInstance,
                                  beta: float | None = None,
                                  gamma: float | None = None,
                                  pattern: SparsityPattern | None = None) -> RelaxationModel:
    """Perspective relaxation plus coupling boxes -gamma*Z <= Y <= gamma*Z
    and the scaled projection block [[beta*Pr, X], [X', beta*Pc]] >= 0.

    beta and gamma must bound ||X||_2 and max |Y_ij| at every optimum;
    the defaults do, from U = ||D||^2, the objective at X = Y = 0:
    beta = min((||D||_2 + sqrt(U/mu))/(1+lam), sqrt(U/lam)) and
    gamma = min((max |D_ij| + beta)/(1+mu), sqrt(U/mu)). Given values
    must be finite and positive.
    """
    beta, gamma = _bounds(instance, beta, gamma)
    D, tau = _normalized(instance.D)
    return _build_perspective(D, tau, instance.k0, instance.k1, instance.lam,
                              instance.mu, pattern,
                              strengthen=(beta / tau, gamma / tau))


def build_lee_zou_relaxation(instance: ProblemInstance,
                             beta: float | None = None,
                             gamma: float | None = None) -> RelaxationModel:
    """Nuclear-norm / l1 relaxation: |Y| <= V entrywise with
    <E, V>/gamma <= k1, and (tr W1 + tr W2)/(2*beta) <= k0 with the block
    [[W1, X], [X', W2]] >= 0 bounding the nuclear norm of X.

    beta and gamma as for build_strengthened_relaxation.
    """
    beta, gamma = _bounds(instance, beta, gamma)
    D, tau = _normalized(instance.D)
    beta, gamma = beta / tau, gamma / tau
    n, n2 = instance.n, instance.n ** 2
    bld = _ConeProgramBuilder()
    t, tx, ty = bld.new_vars(3)
    X, Y, V = (bld.new_vars(n, n) for _ in range(3))
    W1, W2 = bld.sym_vars(n), bld.sym_vars(n)
    bld.add_objective(t, 1.0)
    bld.add_objective(tx, instance.lam)
    bld.add_objective(ty, instance.mu)

    _add_square_epigraph(bld, t, D, (X, -1.0), (Y, -1.0))
    _add_square_epigraph(bld, tx, np.zeros(n2), (X, 1.0))
    _add_square_epigraph(bld, ty, np.zeros(n2), (Y, 1.0))
    bld.add_cone("nonneg",
                 np.r_[np.zeros(2 * n2), instance.k1, instance.k0],
                 *_abs_box_terms(V, Y, 1.0), (2 * n2, V, -1.0 / gamma),
                 (2 * n2 + 1, np.r_[np.diag(W1), np.diag(W2)], -0.5 / beta))
    _add_psd_block(bld, W1, X, W2)
    return RelaxationModel(
        problem=bld.build(), constant=0.0, X=X, scale=tau,
        certify=_fenchel_certificate(D, X, Y, instance.lam, lambda sv, W: (
            _capped_ridge_terms(sv, instance.lam, beta * instance.k0),
            _capped_ridge_terms(np.abs(W), instance.mu, gamma * instance.k1))))


def solve_lowrank_sdp(Dbar, k0: int, lam: float, tol: float = 1e-5):
    """Semidefinite form of the regularized rank-k0 approximation problem.

    Minimizes ||Dbar||^2 + (1+lam)*tr(Theta) - 2<X, Dbar> over the lifted
    feasible set; the optimal value matches the spectral closed form
    lam/(1+lam)*sum_{i<=k0} phi_i^2 + sum_{i>k0} phi_i^2. Dbar must be
    finite and symmetric, lam finite and nonnegative. Returns (value, X).
    """
    Dbar = _as_matrix(Dbar, "Dbar", "square")
    if not _is_symmetric(Dbar):
        raise ValueError("Dbar must be symmetric")
    n = Dbar.shape[0]
    if not 1 <= k0 <= n:
        raise ValueError("k0 out of range")
    check_finite(positive=False, lam=lam)
    res = _build_perspective(*_normalized(Dbar), k0, 0, lam, 0.0).solve(
        tol=tol)
    return res.lower_bound, res.X_relax


def bound_gap(upper: float, lower: float) -> float:
    """Relative gap (upper - lower)/upper between a feasible value and a
    bound; upper must be finite and positive."""
    check_finite(upper=upper)
    return (upper - lower) / upper

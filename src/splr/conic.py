"""First-order solver for small cone programs.

Standard form:

    minimize    c'x
    subject to  Ax + s = b,  s in K,

where K is a product of zero, nonnegative, rotated second-order, and
positive-semidefinite cones (PSD blocks stored as full side*side row-major
vectors). Solved by two-block ADMM: alternate a projection onto the affine
constraint (cached Cholesky of AA' + I) with a projection onto K, carrying
a scaled dual. Deterministic.

Setup groups the rows of K once per solve: the zero and nonneg rows become
two index arrays, and the rotated-SOC and PSD cones become one
(count, dim) index array per cone size. A projection onto K is then a
fill, a ``np.maximum``, one vectorized rotated-SOC formula per size and one
stacked ``eigh`` per PSD side; ``project_cone`` runs the same code on a
single cone. Setup also Ruiz-equilibrates the data, scaling a copy of
``A.data`` in place on each pass, with uniform row scaling inside each
rsoc/psd block (so cone membership is preserved).

Given a box lo <= x <= hi that contains every point of interest, the
solver also certifies a lower bound from its current dual iterate, valid
whether or not ADMM has converged (Neumaier and Shcherbina, Math. Prog.
2004): with y projected onto K* (every cone here is self-dual; zero-cone
rows stay free) and r = c + A'y, any feasible x in the box has

    c'x = r'x - b'y + y's >= -b'y + sum_j min(r_j lo_j, r_j hi_j).

With a stop target the solve ends as soon as that bound reaches it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse


@dataclass
class Cone:
    kind: str  # zero | nonneg | rsoc | psd
    dim: int   # row count; for psd this is side*side

    @property
    def side(self) -> int:
        if self.kind != "psd":
            raise ValueError("side only defined for psd cones")
        return int(round(self.dim ** 0.5))


def zero_cone(dim):
    return Cone("zero", dim)


def nonneg_cone(dim):
    return Cone("nonneg", dim)


def rsoc_cone(dim):
    if dim < 2:
        raise ValueError("rotated SOC needs dimension >= 2")
    return Cone("rsoc", dim)


def psd_cone(side):
    return Cone("psd", side * side)


_KINDS = ("zero", "nonneg", "rsoc", "psd")


def _check_cone(cone: Cone) -> None:
    if cone.kind not in _KINDS:
        raise ValueError(f"unknown cone kind {cone.kind!r}")
    if cone.kind == "rsoc" and cone.dim < 2:
        raise ValueError("rotated SOC needs dimension >= 2")
    if cone.kind == "psd" and cone.side ** 2 != cone.dim:
        raise ValueError(f"psd cone dim {cone.dim} is not a perfect square")


@dataclass
class ConicProblem:
    c: np.ndarray
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    cones: list

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if not scipy.sparse.issparse(self.A):
            self.A = scipy.sparse.csr_matrix(np.asarray(self.A, dtype=float))
        else:
            self.A = self.A.tocsr().astype(float)
        m, n = self.A.shape
        if self.c.size != n:
            raise ValueError(f"c has size {self.c.size}, expected {n}")
        if self.b.size != m:
            raise ValueError(f"b has size {self.b.size}, expected {m}")
        for co in self.cones:
            _check_cone(co)
        total = sum(co.dim for co in self.cones)
        if total != m:
            raise ValueError(f"cone dims sum to {total}, expected {m} rows")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.A.data))):
            raise ValueError("problem data contains non-finite entries")


@dataclass
class ConicSolution:
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    status: str
    primal_residual: float
    dual_residual: float
    objective_gap: float
    objective: float
    iterations: int
    setup_s: float  # cone grouping, Ruiz scaling and the factorization
    solve_s: float  # the ADMM iterations
    # lower bound on c'x over the feasible points in the box; -inf
    # without a box or when the bound is not finite
    certified_bound: float


class _ConeLayout:
    """Rows of a cone product grouped by kind and size.

    zero, nonneg: row indices; rsoc: one (count, dim) row-index array per
    rotated-SOC size; psd: (side, (count, side*side) row indices) per PSD
    side. block and uniform give each row its cone index and whether the
    Ruiz scaling must be uniform over that cone. The cones must have
    passed _check_cone.
    """

    def __init__(self, cones):
        dims = np.array([co.dim for co in cones], dtype=int)
        kinds = np.array([_KINDS.index(co.kind) for co in cones], dtype=int)
        starts = np.cumsum(dims) - dims
        row_kind = np.repeat(kinds, dims)
        self.zero = np.flatnonzero(row_kind == 0)
        self.nonneg = np.flatnonzero(row_kind == 1)
        self.block = np.repeat(np.arange(len(cones)), dims)
        self.uniform = row_kind >= 2
        self.block_sizes = dims

        def groups(kind):
            of_kind = kinds == kind
            return [(dim, starts[of_kind & (dims == dim)][:, None]
                     + np.arange(dim)) for dim in np.unique(dims[of_kind])]

        self.rsoc = [idx for _, idx in groups(2)]
        self.psd = [(round(dim ** 0.5), idx) for dim, idx in groups(3)]


_SQ2 = np.sqrt(2.0)


def _project_rsoc(V):
    """Project each row (a, b, w) of V onto {2ab >= ||w||^2, a, b >= 0}.

    Rotating (a, b) -> (t, u) with 2ab = t^2 - u^2 turns the cone into a
    plain SOC on (t, [u, w]); the rotation is orthogonal, so the projection
    commutes with it.
    """
    t = (V[:, 0] + V[:, 1]) / _SQ2
    u = (V[:, 0] - V[:, 1]) / _SQ2
    w = V[:, 2:]
    nz = np.sqrt(u * u + np.einsum("ij,ij->i", w, w))
    inside = nz <= t
    # outside both the cone and its polar (NaN rows land here too) the
    # projection is coef * (1, z/nz), and there nz > |t| >= 0
    mid = ~(inside | (nz <= -t))
    coef = np.where(inside, t, np.where(mid, 0.5 * (t + nz), 0.0))
    k = np.where(inside, 1.0, coef / np.where(mid, nz, 1.0))
    ku = k * u
    out = np.empty_like(V)
    out[:, 0] = (coef + ku) / _SQ2
    out[:, 1] = (coef - ku) / _SQ2
    np.multiply(k[:, None], w, out=out[:, 2:])
    return out


def _project_psd(V, side):
    """Project each row of V, a row-major side x side block, onto the PSD
    cone: clip the eigenvalues of its symmetric part at zero."""
    M = V.reshape(-1, side, side)
    M = 0.5 * (M + M.transpose(0, 2, 1))
    w, Q = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return ((Q * w[:, None, :]) @ Q.transpose(0, 2, 1)).reshape(V.shape)


def _project(v, layout: _ConeLayout):
    """Euclidean projection of v onto the whole cone product."""
    out = np.empty_like(v)
    out[layout.zero] = 0.0
    out[layout.nonneg] = np.maximum(v[layout.nonneg], 0.0)
    for idx in layout.rsoc:
        out[idx] = _project_rsoc(v[idx])
    for side, idx in layout.psd:
        out[idx] = _project_psd(v[idx], side)
    return out


def project_cone(point, cone: Cone):
    """Exact Euclidean projection of a vector onto one tagged cone."""
    v = np.asarray(point, dtype=float)
    if v.size != cone.dim:
        raise ValueError(f"point has size {v.size}, cone dim {cone.dim}")
    _check_cone(cone)
    return _project(v.ravel(), _ConeLayout([cone]))


def _segment_max(vals, counts):
    """Max of each consecutive segment of vals (segment sizes in counts);
    1.0 for an empty or all-zero segment."""
    out = np.zeros(counts.size)
    full = counts > 0
    if vals.size:
        out[full] = np.maximum.reduceat(vals, (np.cumsum(counts) - counts)[full])
    out[out == 0] = 1.0
    return out


def _ruiz_equilibrate(A, b, c, layout: _ConeLayout, passes: int = 10):
    """Diagonal scaling D A E with uniform row scaling inside each
    rsoc/psd block (so cone membership is preserved)."""
    A = A.tocsr(copy=True)
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    row_counts = np.diff(A.indptr)
    rows = np.repeat(np.arange(m), row_counts)
    by_col = np.argsort(A.indices, kind="stable")
    col_counts = np.bincount(A.indices, minlength=n)
    block, uniform = layout.block, layout.uniform
    nblocks = layout.block_sizes.size
    for _ in range(passes):
        Aabs = np.abs(A.data)
        r = 1.0 / np.sqrt(_segment_max(Aabs, row_counts))
        # geometric mean within uniform blocks
        sums = np.bincount(block, weights=np.log(r), minlength=nblocks)
        gm = np.exp(sums / np.maximum(layout.block_sizes, 1))
        r = np.where(uniform, gm[block], r)
        s = 1.0 / np.sqrt(_segment_max(Aabs[by_col], col_counts))
        A.data *= r[rows]
        A.data *= s[A.indices]
        d *= r
        e *= s
    return A, d * b, e * c, d, e


# relative rounding slack of the certificate: its sums, the eigh inside
# the projection onto K* and the product A'y each lose a few ulps
_CERT_SLACK = 32 * np.finfo(float).eps


def _certifier(problem: ConicProblem, layout: _ConeLayout, box):
    """The map y -> certified lower bound on c'x over the feasible x with
    lo <= x <= hi (module docstring); -inf when it is not finite."""
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), problem.c.shape)
              for v in box)
    At = problem.A.T.tocsr()
    absAt = abs(At)
    reach = np.maximum(np.abs(lo), np.abs(hi))

    def certify(y):
        yp = _project(y, layout)
        yp[layout.zero] = y[layout.zero]
        r = problem.c + At @ yp
        by = problem.b * yp
        with np.errstate(invalid="ignore", over="ignore"):  # infinite box
            terms = np.minimum(r * lo, r * hi)
            size = (np.abs(by).sum()
                    + reach @ (np.abs(problem.c) + absAt @ np.abs(yp)))
            bound = float(terms.sum() - by.sum() - _CERT_SLACK * size)
        return bound if math.isfinite(bound) else -math.inf

    return certify


def solve_conic(problem: ConicProblem, tol: float = 1e-5,
                max_iters: int = 50000, box=None,
                stop_at: float | None = None) -> ConicSolution:
    """Solve a cone program by ADMM with Ruiz-equilibrated data.

    On status 'optimal' the relative primal/dual residuals and the
    normalized duality gap are all at most tol. No randomness: identical
    inputs give identical outputs. The solution records the setup time
    (grouping, Ruiz scaling and factorization) and the iteration time.

    box=(lo, hi) (arrays or scalars over x) adds certified_bound, a lower
    bound on c'x over the feasible points in the box that holds at any
    iterate; it only reads the solver state. With stop_at as well, every
    25-iteration check also certifies, and the solve ends with status
    'bound-reached' once the bound is at least stop_at.
    """
    t_start = time.perf_counter()
    A0, b0, c0 = problem.A, problem.b, problem.c
    layout = _ConeLayout(problem.cones)
    m, n = A0.shape
    if stop_at is not None and box is None:
        raise ValueError("a stop target needs a box")
    certify = None if box is None else _certifier(problem, layout, box)
    A, b, c, dscale, escale = _ruiz_equilibrate(A0, b0, c0, layout)
    # normalize rhs and objective scales (undone via sigb/sigc below)
    sigb = 1.0 + np.linalg.norm(b)
    sigc = 1.0 + np.linalg.norm(c)
    b = b / sigb
    c = c / sigc

    AAt = (A @ A.T).toarray()
    AAt[np.diag_indices_from(AAt)] += 1.0
    L, _ = scipy.linalg.cho_factor(AAt, lower=True, check_finite=False)
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (L,))
    At = A.T.tocsr()
    Ac = A @ c

    rho = 1.0
    x = np.zeros(n)
    s = np.zeros(m)
    st = np.zeros(m)   # cone-feasible copy of s
    ws = np.zeros(m)   # scaled dual for s = st
    nu = np.zeros(m)

    bnorm = 1.0 + np.linalg.norm(b0)
    cnorm = 1.0 + np.linalg.norm(c0)
    status = "max_iters"
    pres = dres = gap = np.inf
    it = 0
    check_every = 25
    t_iter = time.perf_counter()

    while it < max_iters:
        it += 1
        # affine step: min c'x + (rho/2)(||x - a||^2 + ||s - d||^2)
        # s.t. Ax + s = b, with a = x (x is unconstrained in the cone
        # block so its consensus copy and multiplier collapse into x).
        # The factored matrix AA' + I does not depend on rho.
        a = x
        dvec = st - ws
        rhs = rho * (A @ a + dvec - b) - Ac
        nu, _ = potrs(L, rhs, lower=1)
        x = a - (c + At @ nu) / rho
        s = dvec - nu / rho
        # cone step + dual update
        st_old = st
        st = _project(s + ws, layout)
        ws += s - st

        if it % check_every == 0 or it == max_iters:
            # residual balancing: rho starts at 1.0 and is doubled or
            # halved when the consensus and dual residuals drift apart
            rp = np.linalg.norm(s - st)
            rd = rho * np.linalg.norm(st - st_old)
            if rp > 10.0 * rd and rho < 1e6:
                rho *= 2.0
                ws *= 0.5
            elif rd > 10.0 * rp and rho > 1e-6:
                rho *= 0.5
                ws *= 2.0
            if not np.all(np.isfinite(x)):
                status = "numerical-failure"
                break
            # map back to the original scaling for termination tests
            xo = sigb * escale * x
            so = sigb * st / dscale
            yo = sigc * dscale * nu
            pres = np.linalg.norm(A0 @ xo + so - b0) / bnorm
            dres = np.linalg.norm(c0 + A0.T @ yo) / cnorm
            pobj = float(c0 @ xo)
            dobj = float(-b0 @ yo)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            if max(pres, dres, gap) <= tol:
                status = "optimal"
                break
            if stop_at is not None and certify(yo) >= stop_at:
                status = "bound-reached"
                break

    t_end = time.perf_counter()
    xo = sigb * escale * x
    so = sigb * st / dscale
    yo = sigc * dscale * nu
    if status == "max_iters" and not (np.isfinite(pres) and np.isfinite(dres)):
        status = "infeasible-suspected"
    return ConicSolution(x=xo, s=so, y=yo, status=status,
                         primal_residual=float(pres),
                         dual_residual=float(dres),
                         objective_gap=float(gap),
                         objective=float(c0 @ xo), iterations=it,
                         setup_s=t_iter - t_start, solve_s=t_end - t_iter,
                         certified_bound=(-math.inf if certify is None
                                          else certify(yo)))

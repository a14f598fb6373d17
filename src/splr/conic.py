"""First-order solver for small cone programs.

Standard form:

    minimize    c'x
    subject to  Ax + s = b,  s in K,

where K is a product of zero, nonnegative, rotated second-order, and
positive-semidefinite cones (PSD blocks stored as full side*side row-major
vectors). Solved by two-block ADMM: alternate a projection onto the affine
constraint (one sparse LU of AA' + I, kept while A stays the same) with a
projection onto K, carrying a scaled dual. Deterministic.

The solve checks its iterate after the first iteration, every 25th and
the last: it tests the residuals and the duality gap, rebalances the step
parameter rho and, with a stop target, asks the caller's certificate for
a lower bound on c'x at the current x (below). The check after iteration
1 lets a start that is already converged, or whose bound already reaches
its target, end there.

Setup sorts the rows of K so that each cone group is one contiguous
slice: the linear rows (zero and nonneg, in the problem's order), the
first and then the second row of every rotated SOC, the remaining
rotated-SOC rows, and the PSD blocks grouped by side. A projection onto K
is then one ``np.maximum`` with the zero rows set to 0, one vectorized
rotated-SOC formula for the cones of every size and one stacked LAPACK
eigendecomposition per PSD side. The solve permutes A and b and returns s
and y in the problem's row order. Setup also Ruiz-equilibrates A, scaling
a copy of ``A.data`` in place on each pass, with uniform row scaling
inside each rsoc/psd block (so cone membership is preserved), and factors
AA' + I. None of that depends on b, c or on which linear rows are zero
rows, so a solve reuses the last solve's setup when its A and its
rsoc/psd structure are the same (see solve_conic).

A certificate is the caller's map from an iterate x to a lower bound on
the optimal c'x that holds at any x, converged or not (the relaxations
build one from the program's structure). With a stop target the solve
ends as soon as that bound reaches it. The solver only reads the bound,
so a certificate never changes the iterates.

A solve can start from the final (x, s, y, rho) of an earlier solve over
the same variables, as SCS does (O'Donoghue, Chu, Parikh and Boyd, JOTA
2016): setup maps them into the scaled, sorted iterate, with the scaled
dual of s taken from ADMM's fixed-point relation ws = -nu/rho. A solve
without a start takes the same path from zero with rho = 1.
"""

from __future__ import annotations

import copy
import math
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .core import check_finite

if TYPE_CHECKING:
    import scipy.sparse


_KINDS = ("zero", "nonneg", "rsoc", "psd")


@dataclass(frozen=True)
class Cone:
    kind: str  # zero | nonneg | rsoc | psd
    dim: int   # row count: at least 2 for rsoc, side*side for psd

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.dim < 0:
            raise ValueError(f"cone dim {self.dim} is negative")
        if self.kind == "rsoc" and self.dim < 2:
            raise ValueError("rotated SOC needs dimension >= 2")
        if self.kind == "psd" and self.side ** 2 != self.dim:
            raise ValueError(f"psd dim {self.dim} is not a perfect square")

    @property
    def side(self) -> int:
        if self.kind != "psd":
            raise ValueError("side only defined for psd cones")
        return int(round(self.dim ** 0.5))


@dataclass
class ConicProblem:
    """A cone program; it holds a float CSR A's arrays without copying."""

    c: np.ndarray
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    cones: list

    def __post_init__(self):
        import scipy.sparse

        self.c = np.asarray(self.c, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.A = scipy.sparse.csr_matrix(self.A, dtype=float)
        m, n = self.A.shape
        if m == 0:
            raise ValueError("a cone program needs at least one row")
        if self.c.size != n:
            raise ValueError(f"c has size {self.c.size}, expected {n}")
        if self.b.size != m:
            raise ValueError(f"b has size {self.b.size}, expected {m}")
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
    # row sorting, Ruiz scaling and the factorization, or the check that
    # the last solve's setup serves and the scaling of b and c
    setup_s: float
    solve_s: float  # the ADMM iterations
    # the certificate at the returned x: a lower bound on the optimal
    # c'x; -inf without a certificate
    certified_bound: float
    rho: float  # the final ADMM step parameter, for a warm start


def _structure(cones):
    """The cones as (kind, dim) pairs with each run of consecutive zero
    and nonneg cones merged into one ("linear", dim): all that a layout
    but its zero rows depends on."""
    key = []
    for co in cones:
        if co.kind not in ("zero", "nonneg"):
            key.append((co.kind, co.dim))
        elif key and key[-1][0] == "linear":
            key[-1] = ("linear", key[-1][1] + co.dim)
        else:
            key.append(("linear", co.dim))
    return tuple(key)


class _ConeLayout:
    """One row order that makes each cone group of a product contiguous.

    order lists the problem's rows sorted as: the linear rows (zero and
    nonneg, in the problem's order), the first row of every rotated SOC,
    the second row of every rotated SOC, the remaining rotated-SOC rows
    cone by cone, and the PSD blocks grouped by side (ties keep the
    problem's order, so for a single cone order is the identity). In that
    sorted order linear and rsoc are slices, linear the leading one, and
    zero lists the sorted positions of the zero rows; rsoc_count is the
    number of rotated SOCs and owner gives each of their remaining rows
    its cone's rank among them; psd lists (side, slice) per PSD side.
    block and uniform give each sorted row its block of _structure(cones)
    and whether the Ruiz scaling must be uniform over that block;
    block_sizes gives each block's row count. Each Cone checks its kind
    and dim when it is made.

    Everything but zero depends on _structure(cones) alone, so a product
    that differs only in which linear rows are zero rows takes the same
    layout through pin.
    """

    def __init__(self, cones):
        structure = _structure(cones)
        dims = np.array([dim for _, dim in structure], dtype=int)
        kinds = np.array([("linear", "rsoc", "psd").index(kind)
                          for kind, _ in structure], dtype=int)
        sides = np.where(kinds == 2, np.round(np.sqrt(dims)), 0).astype(int)
        row_kind = np.repeat(kinds, dims)
        pos = np.arange(dims.sum()) - np.repeat(np.cumsum(dims) - dims, dims)
        # group keys 0..4: linear, rsoc first/second/other rows, psd
        group = np.where(row_kind == 1, 1 + np.minimum(pos, 2),
                         np.where(row_kind == 2, 4, 0))
        self.order = np.lexsort((np.repeat(sides, dims), group))
        self.block = np.repeat(np.arange(len(structure)), dims)[self.order]
        self.uniform = (row_kind >= 1)[self.order]
        self.block_sizes = dims

        ends = np.cumsum(np.bincount(group, minlength=5))
        self.linear = slice(0, ends[0])
        self.rsoc = slice(ends[0], ends[3])
        rsoc_dims = dims[kinds == 1]
        self.rsoc_count = rsoc_dims.size
        self.owner = np.repeat(np.arange(rsoc_dims.size), rsoc_dims - 2)
        self.psd = []
        start = ends[3]
        for side in np.unique(sides[kinds == 2]):
            stop = start + side * side * np.count_nonzero(sides == side)
            self.psd.append((int(side), slice(start, stop)))
            start = stop
        self.zero = self._zero_rows(cones)

    def _zero_rows(self, cones):
        is_zero = np.repeat([co.kind == "zero" for co in cones],
                            [co.dim for co in cones])
        return np.flatnonzero(is_zero[self.order[self.linear]])

    def pin(self, cones):
        """This layout with the zero rows of cones, whose _structure is
        this layout's."""
        out = copy.copy(self)
        out.zero = out._zero_rows(cones)
        return out


_SQ2 = np.sqrt(2.0)


def _project_rsoc(v, count, owner):
    """Project the rotated-SOC rows of a sorted vector: the first rows a
    of count cones, then their second rows b, then the remaining rows w of
    each cone in turn (owner maps each to its cone). Each cone's (a, b, w)
    goes onto {2ab >= ||w||^2, a, b >= 0}.

    Rotating (a, b) -> (t, u) with 2ab = t^2 - u^2 turns the cone into a
    plain SOC on (t, [u, w]); the rotation is orthogonal, so the projection
    commutes with it.
    """
    a, b, w = v[:count], v[count:2 * count], v[2 * count:]
    t = (a + b) / _SQ2
    u = (a - b) / _SQ2
    nz = np.sqrt(u * u + np.bincount(owner, w * w, minlength=count))
    inside = nz <= t
    # outside both the cone and its polar (NaN rows land here too) the
    # projection is coef * (1, z/nz), and there nz > |t| >= 0
    mid = ~(inside | (nz <= -t))
    coef = np.where(inside, t, np.where(mid, 0.5 * (t + nz), 0.0))
    k = np.where(inside, 1.0, coef / np.where(mid, nz, 1.0))
    ku = k * u
    out = np.empty_like(v)
    out[:count] = (coef + ku) / _SQ2
    out[count:2 * count] = (coef - ku) / _SQ2
    np.multiply(k[owner], w, out=out[2 * count:])
    return out


def _eigh_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _project_psd(V, side):
    """Project each consecutive side x side row-major block of V onto the
    PSD cone: clip the eigenvalues of its symmetric part at zero.

    The stacked eigendecomposition is numpy's own LAPACK gufunc behind
    np.linalg.eigh(M), called without that wrapper's per-call checks; it
    gives the same bits and still raises LinAlgError when LAPACK fails."""
    M = V.reshape(-1, side, side)
    M = 0.5 * (M + M.transpose(0, 2, 1))
    with np.errstate(call=_eigh_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        w, Q = _eigh_lo(M, signature="d->dd")
    w = np.maximum(w, 0.0)
    return ((Q * w[:, None, :]) @ Q.transpose(0, 2, 1)).reshape(V.shape)


def _project(v, layout: _ConeLayout):
    """Euclidean projection onto the whole cone product of v, given in
    the layout's sorted row order."""
    out = np.empty_like(v)
    np.maximum(v[layout.linear], 0.0, out=out[layout.linear])
    out[layout.zero] = 0.0
    if layout.rsoc_count:
        out[layout.rsoc] = _project_rsoc(v[layout.rsoc], layout.rsoc_count,
                                         layout.owner)
    for side, rows in layout.psd:
        out[rows] = _project_psd(v[rows], side)
    return out


def _segment_max(counts):
    """The map vals -> the max of each consecutive segment of vals, with
    segment sizes in counts; 1.0 for an empty or all-zero segment."""
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]

    def segment_max(vals):
        out = np.zeros(counts.size)
        if starts.size:
            out[full] = np.maximum.reduceat(vals, starts)
        out[out == 0] = 1.0
        return out

    return segment_max


def _ruiz_equilibrate(A, layout: _ConeLayout, passes: int = 10):
    """Diagonal scaling D A E with uniform row scaling inside each
    rsoc/psd block (so cone membership is preserved): the scaled copy of A
    and the diagonals d and e."""
    A = A.tocsr(copy=True)
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    row_counts = np.diff(A.indptr)
    rows = np.repeat(np.arange(m), row_counts)
    by_col = np.argsort(A.indices, kind="stable")
    row_max = _segment_max(row_counts)
    col_max = _segment_max(np.bincount(A.indices, minlength=n))
    block, uniform = layout.block, layout.uniform
    nblocks = layout.block_sizes.size
    block_sizes = np.maximum(layout.block_sizes, 1)
    for _ in range(passes):
        Aabs = np.abs(A.data)
        r = 1.0 / np.sqrt(row_max(Aabs))
        # geometric mean within uniform blocks
        sums = np.bincount(block, weights=np.log(r), minlength=nblocks)
        r = np.where(uniform, np.exp(sums / block_sizes)[block], r)
        s = 1.0 / np.sqrt(col_max(Aabs[by_col]))
        A.data *= r[rows]
        A.data *= s[A.indices]
        d *= r
        e *= s
    return A, d, e


def _setup(problem: ConicProblem):
    """What a solve of problem needs of A and the cones alone: the
    layout, A and A' in sorted rows, the Ruiz-scaled A and A', the sparse
    LU of AA' + I (scaled) and the Ruiz diagonals d and e."""
    # scipy is imported where a cone program is built or solved, so the
    # numpy-only commands (decompose, synth, cv, bench) never load it
    import scipy.sparse
    from scipy.sparse.linalg import splu

    layout = _ConeLayout(problem.cones)
    # the solve runs on the rows in sorted order; s and y are put back in
    # the problem's order on return
    A0 = problem.A[layout.order]
    A, dscale, escale = _ruiz_equilibrate(A0, layout)
    # sparse LU of the SPD matrix AA' + I, by SuperLU itself (`factorized`
    # would switch to UMFPACK where installed). Minimum degree on its
    # symmetric pattern gave the least fill of SuperLU's orderings on the
    # relaxations: 13k L+U nonzeros at n=16 against 82k for the natural
    # order and 275k for COLAMD, where a dense factor holds m^2 = 8M.
    # AA' + I is symmetric, so the transpose of its CSR form is the CSC
    # form splu takes
    At = A.T.tocsr()
    AAt = A @ At + scipy.sparse.identity(A.shape[0], format="csr")
    lu = splu(AAt.T, permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True})
    return layout, A0, A0.T, A, At, lu, dscale, escale


# the last solve's (key, _setup(problem)), replaced as one tuple
_last_setup = None


def solve_conic(problem: ConicProblem, tol: float = 1e-5,
                max_iters: int = 50000,
                certify: Callable[[np.ndarray], float] | None = None,
                stop_at: float | None = None, start=None) -> ConicSolution:
    """Solve a cone program by ADMM with Ruiz-equilibrated data.

    On status 'optimal' the relative primal/dual residuals and the
    normalized duality gap are all at most tol, which must be finite and
    positive; max_iters is an integer of at least 1. No randomness:
    identical inputs give identical outputs. The solution records the
    setup time (row sorting, Ruiz scaling and factorization, or their
    reuse) and the iteration time.

    certify, a map from x (in the problem's units) to a lower bound on
    the optimal c'x, fills certified_bound at the returned x. With
    stop_at (not NaN) as well, every check (after iteration 1, every 25th
    and the last) also certifies, and the solve ends with status
    'bound-reached' once the bound is at least stop_at. Each exit
    certifies its iterate once.

    start=(x, s, y, rho) starts the iterates from an earlier solve over
    the same variables: x, s and y in the problem's row order and original
    units (as a ConicSolution holds them), rho its finite, positive step
    parameter. The default start is zero with rho = 1.

    The module keeps the last solve's setup, one entry. A solve whose A
    has the same shape and the same indptr, indices and data bytes, and
    whose cones have the same _structure, reuses it and computes only the
    zero rows and the scaled b and c: the setup is a function of exactly
    that key, which is compared by content, so an A edited in place or
    another program misses, and a reused setup gives the bits of a fresh
    one. The entry is never modified, only replaced.
    """
    global _last_setup
    check_finite(tol=tol)
    if (max_iters := operator.index(max_iters)) < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if stop_at is not None and certify is None:
        raise ValueError("a stop target needs a certificate")
    if stop_at is not None and math.isnan(stop_at):
        raise ValueError("stop_at must not be NaN")
    m, n = problem.A.shape
    if start is None:
        start = (np.zeros(n), np.zeros(m), np.zeros(m), 1.0)
    x0, s0, y0, rho = start
    x0, s0, y0 = (np.asarray(v, dtype=float).ravel() for v in (x0, s0, y0))
    if (x0.size, s0.size, y0.size) != (n, m, m):
        raise ValueError(f"start has sizes {(x0.size, s0.size, y0.size)}"
                         f", expected {(n, m, m)}")
    if not all(np.all(np.isfinite(v)) for v in (x0, s0, y0, rho)):
        raise ValueError("start contains non-finite entries")
    check_finite(rho=rho)
    rho = float(rho)
    t_start = time.perf_counter()
    key = (_structure(problem.cones), problem.A.shape,
           *((v.dtype.str, v.tobytes()) for v in
             (problem.A.indptr, problem.A.indices, problem.A.data)))
    last = _last_setup
    if last is None or last[0] != key:
        last = _last_setup = (key, _setup(problem))
    layout, A0, A0t, A, At, lu, dscale, escale = last[1]
    layout = layout.pin(problem.cones)
    order = layout.order
    b0, c0 = problem.b[order], problem.c
    b, c = dscale * b0, escale * c0
    # normalize rhs and objective scales (undone via sigb/sigc below)
    sigb = 1.0 + np.linalg.norm(b)
    sigc = 1.0 + np.linalg.norm(c)
    b = b / sigb
    c = c / sigc
    Ac = A @ c

    # the inverse of the map back to original units below; st is the
    # cone-feasible copy of s and ws the scaled dual for s = st. At a fixed
    # point s = st, so the affine step's s = st - ws - nu/rho gives ws
    x = x0 / (sigb * escale)
    st = _project(dscale * s0[order] / sigb, layout)
    nu = y0[order] / (sigc * dscale)
    ws = -nu / rho

    bnorm = 1.0 + np.linalg.norm(b0)
    cnorm = 1.0 + np.linalg.norm(c0)
    status = "max_iters"
    pres = dres = gap = np.inf
    it = 0
    check_every = 25
    t_iter = time.perf_counter()

    while it < max_iters:
        it += 1
        # affine step: min c'x + (rho/2)(||x - x_k||^2 + ||s - d||^2)
        # s.t. Ax + s = b, x_k the current x (x is unconstrained in the
        # cone block so its consensus copy and multiplier collapse into x).
        # The factored matrix AA' + I does not depend on rho.
        dvec = st - ws
        rhs = rho * (A @ x + dvec - b) - Ac
        nu = lu.solve(rhs)
        x = x - (c + At @ nu) / rho
        s = dvec - nu / rho
        # cone step + dual update
        st_old = st
        st = _project(s + ws, layout)
        ws += s - st

        if it == 1 or it % check_every == 0 or it == max_iters:
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
            # map back to the original scaling; the loop always ends at a
            # check, so this is also the returned iterate
            xo = sigb * escale * x
            so = sigb * st / dscale
            yo = sigc * dscale * nu
            bound = None    # certify(xo), once the check computes it
            if not np.all(np.isfinite(x)):
                status = "numerical-failure"
                break
            pres = np.linalg.norm(A0 @ xo + so - b0) / bnorm
            dres = np.linalg.norm(c0 + A0t @ yo) / cnorm
            pobj = float(c0 @ xo)
            dobj = float(-b0 @ yo)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            if max(pres, dres, gap) <= tol:
                status = "optimal"
                break
            if stop_at is not None:
                bound = certify(xo)
                if bound >= stop_at:
                    status = "bound-reached"
                    break

    t_end = time.perf_counter()
    if bound is None:
        bound = -math.inf if certify is None else certify(xo)
    if status == "max_iters" and not (np.isfinite(pres) and np.isfinite(dres)):
        status = "infeasible-suspected"
    s_out, y_out = np.empty(m), np.empty(m)
    s_out[order], y_out[order] = so, yo
    return ConicSolution(x=xo, s=s_out, y=y_out, status=status,
                         primal_residual=float(pres),
                         dual_residual=float(dres),
                         objective_gap=float(gap),
                         objective=float(c0 @ xo), iterations=it,
                         setup_s=t_iter - t_start, solve_s=t_end - t_iter,
                         certified_bound=bound, rho=rho)

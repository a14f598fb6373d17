"""Alternating minimization for sparse-plus-low-rank decomposition.

Both subproblems have closed forms: the low-rank step is a scaled truncated
SVD and the sparse step is a scaled hard threshold. The main driver supports
partial sparsity patterns (forced zero / forced nonzero entries), randomized
SVD acceleration, and an a-posteriori global-optimality certificate for
complete patterns; forced cells are handled only here. One loop, _am_stack,
runs AM on a stack of starts that share D (a single run, multistart's
starts, or the exhaustive oracle's supports x starts).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .core import (ProblemInstance, SlrSolution, _as_matrix, check_finite,
                   objective)


@dataclass(frozen=True)
class SparsityPattern:
    """Index sets forcing entries of Y to zero (I0) or into the support (I1),
    and their boolean n x n masks zero and keep, each built on first use."""

    n: int
    I0: frozenset = frozenset()
    I1: frozenset = frozenset()

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n={self.n!r} is not an integer") from None
        if self.n < 1:
            raise ValueError(f"n={self.n} must be positive")
        for name in ("I0", "I1"):
            cells = frozenset(map(self._cell, getattr(self, name)))
            object.__setattr__(self, name, cells)
        if self.I0 & self.I1:
            raise ValueError("I0 and I1 overlap")

    def _cell(self, ij) -> tuple:
        """ij as a pair (i, j) of ints inside the n x n matrix."""
        try:
            i, j = map(operator.index, ij)
        except (TypeError, ValueError):
            raise ValueError(f"{ij!r} is not a pair of integers") from None
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"index ({i},{j}) out of range for n={self.n}")
        return i, j

    def _mask(self, cells) -> np.ndarray:
        mask = np.zeros((self.n, self.n), dtype=bool)
        for ij in cells:
            mask[ij] = True
        mask.flags.writeable = False    # shared by every reader
        return mask

    @cached_property
    def zero(self) -> np.ndarray:
        return self._mask(self.I0)

    @cached_property
    def keep(self) -> np.ndarray:
        return self._mask(self.I1)

    def is_complete(self, k1: int) -> bool:
        return len(self.I0) == self.n * self.n - k1 or len(self.I1) == k1

    def check(self, n: int, k1: int) -> None:
        """ValueError unless the pattern fits n x n with <= k1 nonzeros."""
        if self.n != n:
            raise ValueError(f"pattern size {self.n} does not match n={n}")
        if len(self.I1) > k1:
            raise ValueError(f"|I1|={len(self.I1)} exceeds k1={k1}")
        if len(self.I0) > n * n - k1:
            raise ValueError(f"|I0|={len(self.I0)} exceeds "
                             f"n^2-k1={n * n - k1}")


@dataclass
class AmTrace:
    objective_values: list = field(default_factory=list)
    iterations: int = 0
    converged_reason: str = ""


def iteration_bound(lam: float, mu: float, eps: float) -> float:
    """Worst-case iteration count log(1 + 1/lam + 1/mu)/log(1 + eps).

    A positive real, +inf where 1/lam overflows, that loop guards compare
    an integer count with. lam, mu and eps must be finite and positive,
    and eps large enough that 1 + eps > 1.
    """
    check_finite(lam=lam, mu=mu, eps=eps)
    if 1.0 + eps == 1.0:
        raise ValueError(f"eps={eps!r} is too small: 1 + eps rounds to 1")
    return math.log1p(1.0 / lam + 1.0 / mu) / math.log(1.0 + eps)


def solve_lowrank_subproblem(Dbar, k0: int, lam: float):
    """Minimize ||Dbar - X||_F^2 + lam*||X||_F^2 over rank(X) <= k0.

    The minimizer is the rank-k0 truncation of Dbar scaled by 1/(1+lam);
    lam must be finite and nonnegative.
    """
    check_finite(positive=False, lam=lam)
    return _lowrank_step(Dbar, k0, lam, "exact")[0]


def _lowrank_step(Dbar, k0: int, lam: float, svd_mode: str, seed: int = 0,
                  start=None):
    """Low-rank update of a float Dbar, a matrix or a stack, returning X
    and the truncated factorization of Dbar; the one place that picks the
    SVD kernel. Randomized mode sketches from seed over a row space that
    contains the columns of start."""
    if svd_mode == "randomized":
        fact = linalg.randomized_svd(Dbar, k0, seed=seed, start=start)
    else:
        fact = linalg.truncated_svd(Dbar, k0)
    return fact.reconstruct() / (1.0 + lam), fact


def solve_sparse_subproblem(Dtilde, k1: int, mu: float,
                            pattern: SparsityPattern | None = None):
    """Minimize ||Dtilde - Y||_F^2 + mu*||Y||_F^2 over ||Y||_0 <= k1.

    The support is the k1 largest |Dtilde| entries (respecting any pattern
    forcing) and each kept entry equals Dtilde_ij/(1+mu); mu must be
    finite and nonnegative.
    """
    check_finite(positive=False, mu=mu)
    Dtilde = _as_matrix(Dtilde, stack=True)
    zero, keep = _pattern_masks(pattern, len(Dtilde), k1)
    return _sparse_step(Dtilde, k1, mu, zero, keep)


def _sparse_step(Dtilde, k1: int, mu: float, zero, keep):
    """Sparse update of a float Dtilde (a matrix or a stack) with forced
    cells None, one pattern's (n, n) masks, or a (B, n, n) keep stack of
    complete supports with zero None; the top-k kernel fills the k1 - |keep|
    slots left from the free cells, ties in row-major order. Entries off
    the support are +0.0 (a 0/1 product would write -0.0 there)."""
    if keep is None:
        S = linalg.top_k_abs_select(Dtilde, k1)
    elif keep.ndim == 3:
        S = keep
    else:
        S = np.broadcast_to(keep, Dtilde.shape).copy()
        # the pattern's check leaves at least budget free cells
        budget = k1 - int(np.count_nonzero(keep))
        if budget:
            free = ~(zero | keep)
            S[..., free] = linalg.top_k_abs_select(
                Dtilde[..., free][..., None, :], budget)[..., 0, :]
    return np.where(S, Dtilde / (1.0 + mu), 0.0)


def _pattern_masks(pattern: SparsityPattern | None, n: int, k1: int):
    """The pattern's (zero, keep) masks once it is checked against an
    n x n matrix with budget k1; (None, None) for no pattern."""
    if pattern is None:
        return None, None
    pattern.check(n, k1)
    return pattern.zero, pattern.keep


_REASONS = ("max-iters", "relative-gap", "zero-objective")


def _am_stack(instance: ProblemInstance, X, Y, eps: float, max_iters: int,
              zero=None, keep=None, svd_mode: str = "exact",
              seed: int = 0):
    """Run AM on D from each start (X[b], Y[b]) of a (B, n, n) stack;
    return the (SlrSolution, AmTrace) of the first least run.

    Every run follows alternating_minimization's rules on its own and gets
    the bits it would get alone; a run leaves the stack when it stops, and
    the runs still going share each step's SVD call. zero and keep are
    forced cells as _sparse_step takes them: None or (n, n) masks shared
    by every run, or a (B, n, n) keep stack of complete supports, one per
    run, with zero None; only that stack follows the runs still going.
    Each entry of history is (runs, objectives) after one iteration, the
    first for the starts; runs lists the runs still going, in order, and
    run b's trace is its objective in the first n_values[b] entries.
    Randomized mode takes B = 1: a run's right vectors start its next
    sketch and are not cut down when runs stop. X and Y are overwritten.
    """
    stacked = keep is not None and keep.ndim == 3
    D = instance.D
    k0, k1 = instance.k0, instance.k1
    lam, mu = instance.lam, instance.mu
    B = X.shape[0]
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters={max_iters!r} is not an integer") \
            from None
    if max_iters < 0:
        raise ValueError(f"max_iters={max_iters} must be nonnegative")
    # a real, so t >= cap is t >= ceil(bound) and an infinite bound works
    cap = min(max_iters, iteration_bound(lam, mu, eps))
    f = objective(instance, X, Y)
    # per run: the singular values kept by its last accepted SVD step, its
    # iterations, its trace length and its stop reason, an index of _REASONS
    sv = np.zeros((B, k0))
    iterations = np.zeros(B, dtype=int)
    n_values = np.ones(B, dtype=int)
    reason = np.where((f == 0.0) & (cap > 0), 2, 0)
    history = [(range(B), f.copy())]
    # the runs still going, in order, and their current state; while every
    # run goes that is the stack itself, which the first iteration reads
    # before it writes a stopped run's result into it
    run = np.flatnonzero(f) if cap > 0 else np.arange(0)
    runs = run.tolist()
    Xr, Yr, fr, svr = X, Y, f, sv
    if run.size < B:
        Xr, Yr, fr, svr = X[run], Y[run], f[run], sv[run]
        if stacked:
            keep = keep[run]
    V = None
    t = 0
    # a run going has f > 0, so only a step to f = 0 divides by 0 below,
    # and that run stops on f = 0, not on its relative decrease
    with np.errstate(divide="ignore"):
        while runs:
            t += 1
            Y_t = _sparse_step(D - Xr, k1, mu, zero, keep)
            X_t, fact = _lowrank_step(D - Y_t, k0, lam, svd_mode, seed + t,
                                      V)
            sv_t, V = fact.singular_values, fact.right_vectors
            f_t = objective(instance, X_t, Y_t)
            history.append((runs, f_t))
            small = (fr - f_t) / f_t < eps   # a rise in f counts too
            stop = small | (f_t == 0.0)
            if t >= cap:
                stop[:] = True
            if not stop.any():
                Xr, Yr, fr, svr = X_t, Y_t, f_t, sv_t
                continue
            done = run[stop]
            X[done], Y[done], f[done], sv[done] = (X_t[stop], Y_t[stop],
                                                  f_t[stop], sv_t[stop])
            iterations[done] = t
            n_values[done] = t + 1
            reason[done] = np.where(f_t[stop] == 0.0, 2, small[stop])
            if t > 1:
                # after the first iteration the current (X, Y) is a
                # candidate for both steps, so only rounding can raise f:
                # such a run keeps its current pair
                up = stop & (f_t > fr)
                if up.any():
                    back = run[up]
                    X[back], Y[back], f[back], sv[back] = (
                        Xr[up], Yr[up], fr[up], svr[up])
                    n_values[back] = t
            if done.size == run.size:
                break
            go = ~stop
            run, Xr, Yr, fr, svr = (run[go], X_t[go], Y_t[go], f_t[go],
                                    sv_t[go])
            runs = run.tolist()
            if stacked:
                keep = keep[go]

    if svd_mode == "randomized" and iterations[0] > 0:
        # one exact step makes X a true minimizer for the final Y
        X_exact, fact = _lowrank_step(D - Y[0], k0, lam, "exact")
        f_exact = objective(instance, X_exact, Y[0])
        if f_exact <= f[0]:
            X[0], sv[0], f[0] = X_exact, fact.singular_values, f_exact
            history[n_values[0]:] = [(range(1), f[:1].copy())]
            n_values[0] += 1
    b = int(np.argmin(f))
    # after an SVD step X is a positive multiple of a truncated SVD, so the
    # singular values it kept give its rank without another SVD
    rank = linalg.rank_count(sv[b] if iterations[b] else X[b], rtol=1e-9)
    nnz = int(np.count_nonzero(Y[b]))
    sol = SlrSolution(X[b], Y[b], float(f[b]), rank, nnz,
                      rank <= k0 and nnz <= k1)
    values = [float(f_t[bisect_left(runs, b)])
              for runs, f_t in history[:n_values[b]]]
    return sol, AmTrace(values, int(iterations[b]), _REASONS[reason[b]])


def alternating_minimization(instance: ProblemInstance, eps: float = 1e-4,
                             max_iters: int = 1000, init=None,
                             pattern: SparsityPattern | None = None,
                             svd_mode: str = "exact", seed: int = 0):
    """Alternate the sparse and low-rank closed-form updates on D.

    Starting from (X0, Y0) = init, finite matrices of D's shape, or (0, 0),
    each iteration sets Y from D - X (hard threshold) then X from D - Y
    (truncated SVD), and stops when the relative objective decrease drops below
    eps, the objective hits zero, or the iteration cap is reached. The cap is
    the smaller of max_iters, an integer of at least 0, and the analytic
    worst-case bound. After the first iteration a step that raises the
    objective (by rounding) is not taken. It runs the package's one AM
    loop on a stack of one start.

    svd_mode 'randomized' fits X over a sketched row space that contains
    the previous X's right vectors, so the previous X stays a candidate and
    the objective cannot rise; one exact pass after the loop makes the
    returned X a true minimizer for the final Y.

    Returns (SlrSolution, AmTrace). The trace is non-increasing.
    """
    if svd_mode not in ("exact", "randomized"):
        raise ValueError(f"unknown svd_mode {svd_mode!r}")
    zero, keep = _pattern_masks(pattern, instance.n, instance.k1)
    # _am_stack overwrites its starts, so init is copied
    X, Y = (np.zeros((2, 1) + instance.D.shape) if init is None else
            _as_matrix(init, "init", (2,) + instance.D.shape)[:, None].copy())
    return _am_stack(instance, X, Y, eps, max_iters, zero, keep, svd_mode,
                     seed)


def multistart_alternating_minimization(instance: ProblemInstance,
                                        n_starts: int = 5, eps: float = 1e-4,
                                        max_iters: int = 1000,
                                        pattern: SparsityPattern | None = None,
                                        seed: int = 0):
    """Best exact-mode AM solution over the zero start plus n_starts - 1
    Gaussian starts (Y0 = 0) drawn from default_rng(seed), run as one
    stack. The first start with the least objective wins, with its trace.
    """
    zero, keep = _pattern_masks(pattern, instance.n, instance.k1)
    return _multistart(instance, n_starts, eps, max_iters, zero, keep, seed)


def _multistart(instance: ProblemInstance, n_starts: int, eps: float,
                max_iters: int = 1000, zero=None, keep=None, seed: int = 0):
    """multistart_alternating_minimization's runs for one pattern's (n, n)
    masks, or for C complete supports at once given as a (C, n, n) keep
    stack with zero None: every support x start is one run of a single
    stack, and the first least one in support-major order is returned as
    (SlrSolution, AmTrace)."""
    if n_starts < 1:
        raise ValueError(f"n_starts={n_starts} must be at least 1")
    n = instance.n
    rng = np.random.default_rng(seed)
    X = np.stack([np.zeros((n, n))] + [rng.standard_normal((n, n))
                                       for _ in range(n_starts - 1)])
    if keep is not None and keep.ndim == 3:
        # one run per support x start, support-major
        X = np.tile(X, (len(keep), 1, 1))
        keep = np.repeat(keep, n_starts, axis=0)
    return _am_stack(instance, X, np.zeros_like(X), eps, max_iters, zero,
                     keep)


@dataclass(frozen=True)
class PatternCertificate:
    certified: bool
    condition1_value: float
    gamma_value: float
    threshold: float
    degenerate: bool = False


def fixed_pattern_certificate(instance: ProblemInstance,
                              pattern: SparsityPattern,
                              Xstar) -> PatternCertificate:
    """Check sufficient conditions for global optimality on a fixed support.

    With S* the complete support indicator and
    Dtilde = (1/(1+lam)) * [D - S* o ((D - X*)/(1+mu))], the fixed point X*
    is the unique global optimum when

        condition1 = lam + 2*mu/(1+mu) - 1 > 0

    and, if rank(X*) = k0, additionally the spectral-gap ratio
    sigma_{k0+1}(Dtilde)/sigma_{k0}(Dtilde) < condition1/(1+lam). Xstar
    must be a finite matrix of D's shape.
    """
    n, k0, k1 = instance.n, instance.k0, instance.k1
    lam, mu = instance.lam, instance.mu
    pattern.check(n, k1)
    if not pattern.is_complete(k1):
        raise ValueError("pattern is not complete")
    Xstar = _as_matrix(Xstar, "Xstar", (n, n))
    full = len(pattern.I0) == n * n - k1
    S = np.where(~pattern.zero if full else pattern.keep, 1.0, 0.0)
    Dtilde = (instance.D - S * ((instance.D - Xstar) / (1.0 + mu))) / (1.0 + lam)
    cond1 = lam + 2.0 * mu / (1.0 + mu) - 1.0
    threshold = cond1 / (1.0 + lam)
    s = np.linalg.svd(Dtilde, compute_uv=False)
    if k0 >= n:
        gamma = 0.0
    elif s[k0 - 1] <= 0:
        return PatternCertificate(False, cond1, float("nan"), threshold,
                                  degenerate=True)
    else:
        gamma = float(s[k0] / s[k0 - 1])
    if linalg.rank_count(Xstar, rtol=1e-9) < k0:
        certified = cond1 > 0
    else:
        certified = cond1 > 0 and gamma < threshold
    return PatternCertificate(bool(certified), float(cond1), float(gamma),
                              float(threshold))

"""Alternating minimization for sparse-plus-low-rank decomposition.

Both subproblems have closed forms: the low-rank step is a scaled truncated
SVD and the sparse step is a scaled hard threshold. The main driver supports
partial sparsity patterns (forced zero / forced nonzero entries), randomized
SVD acceleration, and an a-posteriori global-optimality certificate for
complete patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import ProblemInstance, SlrSolution, objective


@dataclass(frozen=True)
class SparsityPattern:
    """Index sets forcing entries of Y to zero (I0) or into the support (I1)."""

    n: int
    I0: frozenset = frozenset()
    I1: frozenset = frozenset()

    def __post_init__(self):
        I0 = frozenset(map(tuple, self.I0))
        I1 = frozenset(map(tuple, self.I1))
        object.__setattr__(self, "I0", I0)
        object.__setattr__(self, "I1", I1)
        if I0 & I1:
            raise ValueError("I0 and I1 overlap")
        for (i, j) in I0 | I1:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"index ({i},{j}) out of range for n={self.n}")

    def is_complete(self, k1: int) -> bool:
        return len(self.I0) == self.n * self.n - k1 or len(self.I1) == k1

    def check_against(self, k1: int) -> None:
        n2 = self.n * self.n
        if len(self.I1) > k1:
            raise ValueError(f"|I1|={len(self.I1)} exceeds k1={k1}")
        if len(self.I0) > n2 - k1:
            raise ValueError(f"|I0|={len(self.I0)} exceeds n^2-k1={n2 - k1}")


@dataclass
class AmTrace:
    objective_values: list = field(default_factory=list)
    iterations: int = 0
    converged_reason: str = ""


def iteration_bound(lam: float, mu: float, eps: float) -> float:
    """Worst-case iteration count log((mu+lam+mu*lam)/(mu*lam))/log(1+eps).

    Returned as a real; loop guards take the ceiling.
    """
    if lam <= 0 or mu <= 0 or eps <= 0:
        raise ValueError("lam, mu, eps must be positive")
    return math.log((mu + lam + mu * lam) / (mu * lam)) / math.log(1.0 + eps)


def solve_lowrank_subproblem(Dbar, k0: int, lam: float,
                             svd_mode: str = "exact", seed: int = 0):
    """Minimize ||Dbar - X||_F^2 + lam*||X||_F^2 over rank(X) <= k0.

    The minimizer is the rank-k0 truncation of Dbar scaled by 1/(1+lam).
    svd_mode 'randomized' uses the sketched SVD (seed-deterministic).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    _check_svd_mode(svd_mode)
    return _lowrank_step(np.asarray(Dbar, dtype=float), k0, lam, svd_mode,
                         seed)[0]


def _check_svd_mode(svd_mode: str) -> None:
    if svd_mode not in ("exact", "randomized"):
        raise ValueError(f"unknown svd_mode {svd_mode!r}")


def _lowrank_step(Dbar, k0: int, lam: float, svd_mode: str, seed: int = 0,
                  start=None):
    """Low-rank update of a checked float Dbar, returning (X, kept singular
    values of Dbar, right vectors of X). In randomized mode the row space
    searched contains the columns of start."""
    if svd_mode == "randomized":
        fact = linalg.randomized_svd(Dbar, k0, seed=seed, start=start)
    else:
        fact = linalg.truncated_svd(Dbar, k0)
    return (fact.reconstruct() / (1.0 + lam), fact.singular_values,
            fact.right_vectors)


def solve_sparse_subproblem(Dtilde, k1: int, mu: float,
                            pattern: SparsityPattern | None = None):
    """Minimize ||Dtilde - Y||_F^2 + mu*||Y||_F^2 over ||Y||_0 <= k1.

    The support is the k1 largest |Dtilde| entries (respecting any pattern
    forcing) and each kept entry equals Dtilde_ij/(1+mu).
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if pattern is not None:
        pattern.check_against(k1)
    return _sparse_step(np.asarray(Dtilde, dtype=float), k1, mu, pattern)


def _sparse_step(Dtilde, k1: int, mu: float,
                 pattern: SparsityPattern | None):
    """Sparse update of a float Dtilde for a pattern checked against k1."""
    if k1 == 0 and (pattern is None or not pattern.I1):
        # not S * Dtilde: 0 times a negative entry would be -0.0
        return np.zeros_like(Dtilde)
    fz, fk = ((), ()) if pattern is None else (pattern.I0, pattern.I1)
    S = linalg.top_k_abs_select(Dtilde, k1, forced_zero=fz, forced_keep=fk)
    return S * Dtilde / (1.0 + mu)


def alternating_minimization(instance: ProblemInstance, eps: float = 1e-4,
                             max_iters: int = 1000, init=None,
                             pattern: SparsityPattern | None = None,
                             svd_mode: str = "exact", seed: int = 0):
    """Alternate the sparse and low-rank closed-form updates on D.

    Starting from (X0, Y0) = (0, 0) unless init is given, each iteration
    sets Y from D - X (hard threshold) then X from D - Y (truncated SVD),
    and stops when the relative objective decrease drops below eps, the
    objective hits zero, or the iteration cap is reached. The cap is the
    smaller of max_iters and the analytic worst-case bound.

    svd_mode 'randomized' fits X over a sketched row space that contains
    the previous X's right vectors, so the previous X stays a candidate and
    the objective cannot rise; one exact pass after the loop makes the
    returned X a true minimizer for the final Y.

    Returns (SlrSolution, AmTrace). The trace is non-increasing.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_svd_mode(svd_mode)
    D = instance.D
    k0, k1 = instance.k0, instance.k1
    lam, mu = instance.lam, instance.mu
    if pattern is not None:
        if pattern.n != instance.n:
            raise ValueError("pattern size does not match instance")
        pattern.check_against(k1)

    if init is None:
        X = np.zeros_like(D)
        Y = np.zeros_like(D)
    else:
        X = np.asarray(init[0], dtype=float).copy()
        Y = np.asarray(init[1], dtype=float).copy()

    cap = min(max_iters, math.ceil(iteration_bound(lam, mu, eps)))
    trace = AmTrace()
    f = objective(instance, X, Y)
    trace.objective_values.append(f)
    # rank_count reads X itself until an SVD step gives its spectrum
    sv, V = X, None
    t = 0
    while t < cap and f != 0.0:
        t += 1
        Y_t = _sparse_step(D - X, k1, mu, pattern)
        X_t, sv_t, V_t = _lowrank_step(D - Y_t, k0, lam, svd_mode,
                                       seed + t, V)
        f_prev, f_t = f, objective(instance, X_t, Y_t)
        # after the first iteration the current (X, Y) is a candidate for
        # both steps, so only rounding can raise f: keep the current pair
        if t > 1 and f_t > f:
            break
        X, Y, sv, V, f = X_t, Y_t, sv_t, V_t, f_t
        trace.objective_values.append(f)
        if f == 0.0 or (f_prev - f) / f < eps:
            break
    trace.iterations = t
    if f == 0.0 and cap > 0:
        trace.converged_reason = "zero-objective"
    elif t and (f_prev - f) / f < eps:
        trace.converged_reason = "relative-gap"
    else:
        trace.converged_reason = "max-iters"

    if svd_mode == "randomized" and t > 0:
        X_exact, sv_exact, _ = _lowrank_step(D - Y, k0, lam, "exact")
        f_exact = objective(instance, X_exact, Y)
        if f_exact <= f:
            X, sv, f = X_exact, sv_exact, f_exact
            trace.objective_values.append(f)

    # after an SVD step X is a positive multiple of a truncated SVD, so the
    # kept singular values give its rank without another SVD
    sol = SlrSolution(X=X, Y=Y, objective=f,
                      rank_of_X=linalg.rank_count(sv, rtol=1e-9),
                      nnz_of_Y=int(np.count_nonzero(Y)))
    sol.feasible = sol.rank_of_X <= k0 and sol.nnz_of_Y <= k1
    return sol, trace


def multistart_alternating_minimization(instance: ProblemInstance,
                                        n_starts: int = 5, eps: float = 1e-4,
                                        max_iters: int = 1000,
                                        pattern: SparsityPattern | None = None,
                                        seed: int = 0):
    """Best AM solution over the zero start plus random Gaussian starts."""
    best, best_trace = alternating_minimization(
        instance, eps=eps, max_iters=max_iters, pattern=pattern)
    rng = np.random.default_rng(seed)
    n = instance.n
    for _ in range(max(0, n_starts - 1)):
        X0 = rng.standard_normal((n, n))
        Y0 = np.zeros((n, n))
        sol, tr = alternating_minimization(
            instance, eps=eps, max_iters=max_iters, init=(X0, Y0),
            pattern=pattern)
        if sol.objective < best.objective:
            best, best_trace = sol, tr
    return best, best_trace


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
    sigma_{k0+1}(Dtilde)/sigma_{k0}(Dtilde) < condition1/(1+lam).
    """
    n, k0, k1 = instance.n, instance.k0, instance.k1
    lam, mu = instance.lam, instance.mu
    if len(pattern.I0) != n * n - k1:
        raise ValueError("pattern is not complete (|I0| != n^2 - k1)")
    Xstar = np.asarray(Xstar, dtype=float)
    S = np.ones((n, n))
    for (i, j) in pattern.I0:
        S[i, j] = 0.0
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

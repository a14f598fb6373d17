"""Problem definition, objective evaluation, and analytic helper facts.

The central problem: given an n x n matrix D, find X (rank at most k0)
and Y (at most k1 nonzeros) minimizing

    ||D - X - Y||_F^2 + lam*||X||_F^2 + mu*||Y||_F^2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


def check_finite(positive: bool = True, **values) -> None:
    """The package's one rule for a real-valued parameter (a weight, a
    penalty or a tolerance): each value must be finite and above zero, or
    at least zero when positive is False. Raises ValueError("<name> must
    be finite and positive"), or "... nonnegative", for the first value
    outside the range; NaN is outside every range."""
    for name, value in values.items():
        if not (0 < value < math.inf or (not positive and value == 0)):
            raise ValueError(f"{name} must be finite and "
                             + ("positive" if positive else "nonnegative"))


def _as_matrix(A, name: str = "matrix", shape=None, stack: bool = False):
    """The package's one rule for a matrix argument: A as a float array of
    finite entries; with shape "square" an n x n matrix, with a tuple shape
    that shape, else a matrix or, with stack, a stack (..., m, n) of them."""
    A = np.asarray(A, dtype=float)
    if shape == "square" and (A.ndim != 2 or A.shape[0] != A.shape[1]):
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if isinstance(shape, tuple) and A.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {A.shape}")
    if shape is None and A.ndim != 2 and not (stack and A.ndim > 2):
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True)
class ProblemInstance:
    """Data matrix D with rank/sparsity targets and ridge weights."""

    D: np.ndarray
    k0: int
    k1: int
    lam: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "D", _as_matrix(self.D, "D", "square"))
        n = self.D.shape[0]
        for name in ("k0", "k1"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name}={value!r} is not an integer") \
                    from None
        if not 1 <= self.k0 <= n:
            raise ValueError(f"k0={self.k0} out of range [1, {n}]")
        if not 0 <= self.k1 <= n * n:
            raise ValueError(f"k1={self.k1} out of range [0, {n * n}]")
        check_finite(lam=self.lam, mu=self.mu)

    @property
    def n(self) -> int:
        return self.D.shape[0]


@dataclass
class SlrSolution:
    """A candidate decomposition (X, Y) with bookkeeping."""

    X: np.ndarray
    Y: np.ndarray
    objective: float
    rank_of_X: int
    nnz_of_Y: int
    feasible: bool = True


@dataclass(frozen=True)
class ConvexityConstants:
    m: float
    L: float
    kappa: float


def objective(instance: ProblemInstance, X, Y):
    """Evaluate ||D-X-Y||_F^2 + lam*||X||_F^2 + mu*||Y||_F^2.

    X and Y may be stacks (..., n, n) of matrices; the result is then an
    array with one value per matrix, each the float the matrix gets on its
    own.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[-2:] != instance.D.shape or Y.shape[-2:] != instance.D.shape:
        raise ValueError("X and Y must match the shape of D")
    R = instance.D - X - Y
    axes = (-2, -1)
    f = ((R * R).sum(axis=axes) + instance.lam * (X * X).sum(axis=axes)
         + instance.mu * (Y * Y).sum(axis=axes))
    return float(f) if f.ndim == 0 else f


def convexity_constants(lam: float, mu: float) -> ConvexityConstants:
    """Strong-convexity and smoothness constants of the objective.

    m = 2*min(lam, mu), L = 2*max(lam, mu) + 6, kappa = L/m; lam and mu
    must be finite and positive.
    """
    check_finite(lam=lam, mu=mu)
    m = 2.0 * min(lam, mu)
    L = 2.0 * max(lam, mu) + 6.0
    return ConvexityConstants(m=m, L=L, kappa=L / m)


def worst_case_perturbations(instance: ProblemInstance, X, Y):
    """Adversarial data perturbations attaining the robust-regularization bound.

    Returns (Delta1, Delta2, degenerate). With R = D - X - Y nonzero,
    Delta1 = lam*||X||_F * R/||R||_F and Delta2 = mu*||Y||_F * R/||R||_F, so

        ||D + Delta1 + Delta2 - X - Y||_F
            = ||R||_F + lam*||X||_F + mu*||Y||_F.

    A zero residual is degenerate (any direction attains the bound); then
    both perturbations are returned as zero with degenerate=True. X and Y
    must be finite matrices of D's shape.
    """
    X = _as_matrix(X, "X", instance.D.shape)
    Y = _as_matrix(Y, "Y", instance.D.shape)
    R = instance.D - X - Y
    rnorm = float(np.linalg.norm(R))
    if rnorm == 0.0:
        Z = np.zeros_like(R)
        return Z, Z.copy(), True
    unit = R / rnorm
    d1 = instance.lam * float(np.linalg.norm(X)) * unit
    d2 = instance.mu * float(np.linalg.norm(Y)) * unit
    return d1, d2, False


def unconstrained_min_value(instance: ProblemInstance) -> float:
    """Minimum of the objective with the rank and sparsity constraints dropped.

    Equals mu*lam/(mu + lam + mu*lam) * ||D||_F^2, computed as
    ||D||_F^2/(1 + 1/lam + 1/mu) so that no product of weights overflows.
    """
    d2 = float(np.sum(instance.D * instance.D))
    return d2 / (1.0 + 1.0 / instance.lam + 1.0 / instance.mu)


def matrix_completion_objective(instance: ProblemInstance, X, Z) -> float:
    """Objective after minimizing out Y on a fixed support.

    Z is the binary support indicator for Y (1 = Y may be nonzero). With
    Omega the zero positions of Z, the value is

        lam*||X||_F^2 + sum_{Omega} (D-X)_ij^2
            + mu/(1+mu) * sum_{not Omega} (D-X)_ij^2,

    attained at Y_ij = (D-X)_ij/(1+mu) on the support. X must be a finite
    matrix of D's shape.
    """
    X = _as_matrix(X, "X", instance.D.shape)
    Z = _as_matrix(Z, "Z", instance.D.shape)
    if not np.all((Z == 0) | (Z == 1)):
        raise ValueError("Z must be binary")
    R = instance.D - X
    mu = instance.mu
    on = float(np.sum((Z * R) ** 2))
    off = float(np.sum(((1 - Z) * R) ** 2))
    return instance.lam * float(np.sum(X * X)) + off + mu / (1 + mu) * on


def reverse_huber_penalty(y: float, mu: float, rho: float) -> float:
    """Per-entry penalty min over z in (0, 1] of mu*y^2/z + rho*z.

    The minimizer is z* = min(1, sqrt(mu/rho)*|y|), giving 2*sqrt(mu*rho)*|y|
    in the small-|y| regime and mu*y^2 + rho otherwise. penalty(0) = 0 by
    continuity (the z -> 0 limit). mu and rho must be finite and positive.
    """
    check_finite(mu=mu, rho=rho)
    ay = abs(float(y))
    if ay == 0.0:
        return 0.0
    zstar = min(1.0, math.sqrt(mu / rho) * ay)
    return mu * ay * ay / zstar + rho * zstar

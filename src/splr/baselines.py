"""Comparator methods: GoDec, stable principal component pursuit, and a
preconditioned factored gradient method (ScaledGD-style).

All take a finite matrix D of any shape, with finite positive tolerances
and steps, and return SlrSolution objects whose `objective` field is the
method's own (unregularized) fit ||D - X - Y||_F^2 unless noted; rank and
sparsity are reported honestly from the returned iterates.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .core import SlrSolution, _as_matrix, check_finite


def _fit(D, X, Y):
    R = D - X - Y
    return float(np.sum(R * R))


def godec(D, k0: int, k1: int, eps: float = 1e-4, max_iters: int = 1000):
    """Unregularized alternating truncation/thresholding.

    Alternates the rank-k0 SVD truncation of D - Y with top-k1 hard
    thresholding of D - X (no shrinkage on either step), stopping when the
    relative decrease of ||D - X - Y||_F^2 drops below eps.

    Returns (SlrSolution, trace of objective values).
    """
    D = _as_matrix(D, "D")
    check_finite(eps=eps)
    X = np.zeros_like(D)
    Y = np.zeros_like(D)
    f_prev = _fit(D, X, Y)
    trace = [f_prev]
    for _ in range(max_iters):
        if f_prev == 0.0:
            break
        X = linalg.truncated_svd(D - Y, k0).reconstruct()
        if k1 > 0:
            S = linalg.top_k_abs_select(D - X, k1)
            Y = S * (D - X)
        f_old, f_prev = f_prev, _fit(D, X, Y)
        trace.append(f_prev)
        if f_prev == 0.0 or (f_old - f_prev) / f_prev < eps:
            break
    sol = SlrSolution(X=X, Y=Y, objective=f_prev,
                      rank_of_X=min(k0, linalg.rank_count(
                          X, rtol=max(X.shape) * np.finfo(float).eps)),
                      nnz_of_Y=int(np.count_nonzero(Y)))
    return sol, trace


def _svt(M, tau):
    """Singular-value soft thresholding."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt, s


def spcp(D, mu_pen: float, tol: float = 1e-6, max_iters: int = 2000):
    """Stable principal component pursuit by proximal gradient.

    Minimizes ||X||_* + (1/sqrt(n))*||Y||_1 + (1/(2*mu_pen))*||D-X-Y||_F^2
    with joint prox steps (singular-value and entrywise soft thresholding)
    and backtracking line search starting from step 1.0.

    mu_pen must be finite and positive. Returns (SlrSolution, rank_count,
    sparsity_count) where the counts use a 1e-2 magnitude cutoff.
    """
    D = _as_matrix(D, "D")
    check_finite(mu_pen=mu_pen, tol=tol)
    n = D.shape[0]
    w1 = 1.0 / math.sqrt(n)
    X = np.zeros_like(D)
    Y = np.zeros_like(D)

    def smooth(Xv, Yv):
        return _fit(D, Xv, Yv) / (2.0 * mu_pen)

    def nonsmooth(sv, Yv):
        return float(np.sum(sv)) + w1 * float(np.sum(np.abs(Yv)))

    sX = np.zeros(min(D.shape))
    total_prev = smooth(X, Y) + nonsmooth(sX, Y)
    eta = 1.0
    for _ in range(max_iters):
        R = D - X - Y
        G = -R / mu_pen   # gradient of the smooth part in both X and Y
        f0 = smooth(X, Y)
        while True:
            Xn, sn = _svt(X - eta * G, eta)
            Yn = np.sign(Y - eta * G) * np.maximum(np.abs(Y - eta * G)
                                                   - eta * w1, 0.0)
            dX, dY = Xn - X, Yn - Y
            quad = f0 + float(np.sum(G * dX) + np.sum(G * dY)) \
                + (np.sum(dX * dX) + np.sum(dY * dY)) / (2.0 * eta)
            if smooth(Xn, Yn) <= quad + 1e-12:
                break
            eta *= 0.5
            if eta < 1e-12:
                break
        X, Y, sX = Xn, Yn, sn
        total = smooth(X, Y) + nonsmooth(sX, Y)
        if total == 0.0 or abs(total_prev - total) / max(total, 1e-15) < tol:
            break
        total_prev = total
    rank_count = linalg.rank_count(sX, atol=1e-2)
    sparsity_count = int(np.sum(np.abs(Y) > 1e-2))
    sol = SlrSolution(X=X, Y=Y, objective=_fit(D, X, Y),
                      rank_of_X=rank_count, nnz_of_Y=sparsity_count)
    return sol, rank_count, sparsity_count


def _threshold_fraction(R, frac):
    """Keep the ceil(frac * size) largest-magnitude entries of R."""
    if frac <= 0:
        return np.zeros_like(R)
    k = min(R.size, int(math.ceil(frac * R.size)))
    S = linalg.top_k_abs_select(R, k)
    return S * R


def scaled_gd(D, k0: int, gamma_frac: float = 0.0, step: float = 0.5,
              max_iters: int = 500, eps: float = 1e-6):
    """Factored gradient descent with scaling preconditioners.

    X = U V' is updated by U <- U - step*(R V)(V'V)^-1 and symmetrically
    for V, where R = U V' + Y - D; Y is refreshed each iteration by keeping
    the top gamma_frac fraction (in [0, 1]) of residual entries.
    Initialization is spectral: truncated SVD of D minus its thresholded
    part. Best-effort reconstruction of the cited method; hyperparameters
    are not prescribed.

    Returns (SlrSolution, trace of fit values).
    """
    D = _as_matrix(D, "D")
    check_finite(step=step, eps=eps)
    if not 0 <= gamma_frac <= 1:
        raise ValueError(f"gamma_frac={gamma_frac!r} must be in [0, 1]")
    Y = _threshold_fraction(D, gamma_frac)
    fact = linalg.truncated_svd(D - Y, k0)
    root = np.sqrt(fact.singular_values)
    U = fact.left_vectors * root
    V = fact.right_vectors * root
    ridge = 1e-8 * np.eye(k0)

    f_prev = _fit(D, U @ V.T, Y)
    trace = [f_prev]
    for _ in range(max_iters):
        X = U @ V.T
        Y = _threshold_fraction(D - X, gamma_frac)
        R = X + Y - D
        Gu = R @ V
        Gv = R.T @ U
        U = U - step * Gu @ np.linalg.inv(V.T @ V + ridge)
        V = V - step * Gv @ np.linalg.inv(U.T @ U + ridge)
        f_t = _fit(D, U @ V.T, Y)
        trace.append(f_t)
        if f_t == 0.0 or 0 <= (f_prev - f_t) / f_t < eps:
            break
        f_prev = f_t
    X = U @ V.T
    sol = SlrSolution(X=X, Y=Y, objective=_fit(D, X, Y),
                      rank_of_X=linalg.rank_count(X, atol=1e-2),
                      nnz_of_Y=int(np.count_nonzero(Y)))
    return sol, trace

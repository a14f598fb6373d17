"""Dense linear-algebra primitives shared by the rest of the package.

All routines operate on plain numpy arrays (row-major, float64) and are
pure functions: no global state, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralFactorization:
    """Truncated SVD: ``U @ diag(s) @ V.T`` approximates the input.

    singular_values are nonnegative and non-increasing; left_vectors and
    right_vectors have orthonormal columns.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


def truncated_svd(A, k: int) -> SpectralFactorization:
    """Leading-k singular triplets of A.

    The rank-k reconstruction is a Frobenius-optimal rank-<=k approximation
    (unique only when sigma_k > sigma_{k+1}; ties resolved by LAPACK order).
    """
    A = _as_matrix(A)
    if not 1 <= k <= min(A.shape):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return SpectralFactorization(s[:k].copy(), U[:, :k].copy(), Vt[:k].T.copy())


def randomized_svd(A, k: int, seed: int = 0,
                   start=None) -> SpectralFactorization:
    """Best rank-k fit of A over a sketched row space.

    A Gaussian sketch of k + 10 columns (at most min(shape)) and two power
    iterations give an orthonormal range basis Q; the row space searched is
    W = qr([start, A.T Q]), and the result is the truncated SVD of A W with
    right vectors W Vb. Every matrix C W.T of rank <= k fits A no better, so
    a start holding the right vectors of a previous fit can only be
    improved on. The start is added after the power iterations, which
    would wash it out. Deterministic for a fixed seed.
    """
    A = _as_matrix(A)
    if not 1 <= k <= min(A.shape):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((A.shape[1], min(k + 10, min(A.shape))))
    Q, _ = np.linalg.qr(A @ G)
    for _ in range(2):
        Q, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    R = A.T @ Q
    W, _ = np.linalg.qr(R if start is None else np.hstack([start, R]))
    Ub, s, Vt = np.linalg.svd(A @ W, full_matrices=False)
    return SpectralFactorization(s[:k].copy(), Ub[:, :k].copy(),
                                 W @ Vt[:k].T)


def _flat_cells(cells, shape) -> set:
    """Row-major indices of the distinct (i, j) cells, each inside shape."""
    rows, cols = shape
    flat = set()
    for i, j in cells:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"forced cell ({i}, {j}) outside a matrix of "
                             f"shape {shape}")
        flat.add(i * cols + j)
    return flat


def top_k_abs_select(M, k: int, forced_zero=(), forced_keep=()) -> np.ndarray:
    """Binary matrix marking the k largest-|entry| positions of M.

    forced_keep positions are always selected and forced_zero never are;
    remaining slots go to the largest |M_ij| among free positions, ties
    broken in row-major order. A forced cell outside M is a ValueError.
    """
    M = _as_matrix(M)
    zero = _flat_cells(forced_zero, M.shape)
    keep = _flat_cells(forced_keep, M.shape)
    if zero & keep:
        raise ValueError("forced_zero and forced_keep overlap")
    if len(keep) > k:
        raise ValueError(f"{len(keep)} forced-keep entries exceed k={k}")
    if k > M.size - len(zero):
        raise ValueError("k exceeds the number of admissible entries")
    S = np.zeros(M.shape)
    marks = S.ravel()
    marks[list(keep)] = 1.0
    budget = k - len(keep)
    if budget > 0:
        flat = np.abs(M).ravel()
        flat[list(zero | keep)] = -1.0
        # threshold at the budget-th largest magnitude, then resolve ties
        # at the boundary in row-major order
        th = np.partition(flat, flat.size - budget)[flat.size - budget]
        above = flat > th
        n_above = int(np.count_nonzero(above))
        marks[above] = 1.0
        remaining = budget - n_above
        if remaining > 0:
            tied = np.flatnonzero(flat == th)[:remaining]
            marks[tied] = 1.0
    return S


def pseudoinverse(A, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse, zeroing singular values < tol * sigma_max."""
    A = _as_matrix(A)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return np.linalg.pinv(A, rcond=tol)


def rank_count(M, rtol: float = 0.0, atol: float = 0.0) -> int:
    """Number of singular values above max(atol, rtol * sigma_max).

    M is a matrix or the 1-d array of its singular values; an empty
    spectrum has rank 0.
    """
    s = np.asarray(M, dtype=float)
    if s.ndim == 2:
        s = np.linalg.svd(s, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > max(atol, rtol * s.max())))


def read_matrix_csv(path) -> np.ndarray:
    """Read the repo-wide matrix format: headerless CSV, one row per line.

    Dimensions are inferred; ragged rows raise ValueError.
    """
    rows = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}:{i}: ragged row ({len(row)} != {width})")
    return np.array(rows, dtype=float)


def write_matrix_csv(path, A) -> None:
    A = _as_matrix(A)
    with open(path, "w") as fh:
        for row in A:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

"""Dense linear-algebra primitives shared by the rest of the package.

All routines operate on plain numpy arrays (row-major, float64) and are
pure functions: no global state, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_matrix, check_finite


@dataclass(frozen=True)
class SpectralFactorization:
    """Truncated SVD: ``U @ diag(s) @ V.T`` approximates the input.

    singular_values are nonnegative and non-increasing; left_vectors and
    right_vectors have orthonormal columns. A factorization of a stack of
    matrices has the stack's leading axes on every field.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return ((self.left_vectors * self.singular_values[..., None, :])
                @ self.right_vectors.swapaxes(-1, -2))


def truncated_svd(A, k: int) -> SpectralFactorization:
    """Leading-k singular triplets of A.

    The top-k eigenvectors W of the Gram matrix of A's smaller side (A.T A,
    or A A.T when A is wide) span the search space of one Rayleigh-Ritz
    step, the SVD of A W (see _ritz). With sigma the exact singular values,
    eps the unit roundoff and X_k the rank-k reconstruction, each result
    satisfies (64 and 16 leave rounding room over the worst case measured
    on random inputs):

    - ||A - X_k||_F^2 <= sum_{i>k} sigma_i^2 + 64 k eps sigma_1^2, so X_k is
      a Frobenius-optimal rank-<=k approximation up to rounding (unique
      only when sigma_k > sigma_{k+1});
    - |s_i - sigma_i| sigma_i <= 64 eps sigma_1^2;
    - s_i <= sigma_i + 16 eps sigma_1: the Ritz values of an orthonormal W
      interlace with sigma, so no value overshoots by more than rounding;
    - the singular vectors are orthonormal to rounding.

    So singular values below about sqrt(eps) sigma_1 are only accurate to
    about eps sigma_1^2 / sigma_i, and they can only read low: a rank count
    with rtol 1e-9 (AM's) reads no higher than the exact one, and lower only
    when a kept sigma_i / sigma_1 lies in about [1e-9, 1e-7].

    A may be a stack (..., m, n) of matrices; each field of the result then
    has the same leading axes, and each matrix gets the bits it would get
    on its own.
    """
    A = _as_matrix(A, stack=True)
    if not 1 <= k <= min(A.shape[-2:]):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    if A.shape[-2] < A.shape[-1]:
        f = truncated_svd(A.swapaxes(-1, -2), k)
        return SpectralFactorization(f.singular_values, f.right_vectors,
                                     f.left_vectors)
    W = np.linalg.eigh(A.swapaxes(-1, -2) @ A)[1][..., -k:]
    return _ritz(A, W, k)


def _ritz(A, W, k: int) -> SpectralFactorization:
    """Best rank-k fit of A with rows in the span of W's orthonormal
    columns: the leading k triplets of A W, with right vectors W Vb."""
    Ub, s, Vt = np.linalg.svd(A @ W, full_matrices=False)
    return SpectralFactorization(s[..., :k].copy(), Ub[..., :k].copy(),
                                 W @ Vt[..., :k, :].swapaxes(-1, -2))


def randomized_svd(A, k: int, seed: int = 0,
                   start=None) -> SpectralFactorization:
    """Best rank-k fit of A over a sketched row space.

    A Gaussian sketch of k + 10 columns (at most min(shape)) and two power
    iterations give an orthonormal range basis Q; the row space searched is
    W = qr([start, A.T Q]), and the result is the Rayleigh-Ritz step _ritz
    over W. Every matrix C W.T of rank <= k fits A no better, so
    a start holding the right vectors of a previous fit can only be
    improved on. The start is added after the power iterations, which
    would wash it out. Deterministic for a fixed seed. A may be a stack
    (..., m, n), start then one of (..., n, s); one sketch serves every
    matrix, so each gets the bits it would get on its own. A start must be
    finite and have A's leading axes and n rows.
    """
    A = _as_matrix(A, stack=True)
    if not 1 <= k <= min(A.shape[-2:]):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    if start is not None:
        if np.shape(start)[:-1] != A.shape[:-2] + A.shape[-1:]:
            raise ValueError(f"start must have shape {A.shape[:-2]} + "
                             f"({A.shape[-1]}, s), got {np.shape(start)}")
        start = _as_matrix(start, "start", stack=True)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((A.shape[-1], min(k + 10, *A.shape[-2:])))
    At = A.swapaxes(-1, -2)
    Q, _ = np.linalg.qr(A @ G)
    for _ in range(2):
        Q, _ = np.linalg.qr(At @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    R = At @ Q
    W, _ = np.linalg.qr(R if start is None
                        else np.concatenate([start, R], axis=-1))
    return _ritz(A, W, k)


def top_k_abs_select(M, k: int) -> np.ndarray:
    """Binary matrix marking the k largest-|entry| positions of M, ties
    broken in row-major order. M may be a stack (..., m, n) of matrices,
    each selected on its own."""
    M = _as_matrix(M, stack=True)
    size = M.shape[-2] * M.shape[-1]
    if not 0 <= k <= size:
        raise ValueError(f"k={k} out of range for shape {M.shape}")
    flat = np.abs(M).reshape(-1, size)
    picked = np.zeros(flat.shape, dtype=bool)
    if k > 0:
        # threshold at the k-th largest magnitude; more picks than k means
        # ties there, and the first ones in row-major order stay
        th = np.partition(flat, size - k, axis=-1)[:, size - k, None]
        picked = flat >= th
        if np.count_nonzero(picked) > k * flat.shape[0]:
            tied = flat == th
            n_tied = tied.sum(axis=-1) - picked.sum(axis=-1) + k
            picked &= ~tied | (np.cumsum(tied, axis=-1) <= n_tied[:, None])
    return picked.reshape(M.shape).astype(float)


def pseudoinverse(A, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse, zeroing singular values
    <= tol * sigma_max; tol must be finite and positive."""
    A = _as_matrix(A)
    check_finite(tol=tol)
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
                rows.append(np.array(line.split(","), dtype=float))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}:{i}: ragged row ({len(row)} != {width})")
    return np.array(rows)


def write_matrix_csv(path, A) -> None:
    """Write A in read_matrix_csv's format, each entry as the shortest
    decimal that reads back to the same double."""
    A = _as_matrix(A)
    with open(path, "w") as fh:
        for row in A:
            fh.write(",".join(map(repr, row.tolist())) + "\n")

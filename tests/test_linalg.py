"""Tests for the dense linear-algebra primitives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splr import linalg
from splr.altmin import SparsityPattern


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestTruncatedSvd:
    def test_diagonal(self):
        f = linalg.truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(f.singular_values, [3.0, 2.0])

    def test_zero_matrix(self):
        f = linalg.truncated_svd(np.zeros((3, 3)), 1)
        np.testing.assert_allclose(f.singular_values, [0.0])

    def test_matches_full_svd(self):
        A = _rng(2).standard_normal((6, 6))
        f = linalg.truncated_svd(A, 3)
        U, s, Vt = np.linalg.svd(A)
        np.testing.assert_allclose(f.singular_values, s[:3], atol=1e-8)
        np.testing.assert_allclose(f.reconstruct(),
                                   (U[:, :3] * s[:3]) @ Vt[:3], atol=1e-8)

    def test_eckart_young(self):
        # truncation error equals the energy in the dropped spectrum
        rng = _rng(3)
        for _ in range(10):
            A = rng.standard_normal((7, 5))
            s = np.linalg.svd(A, compute_uv=False)
            for k in (1, 2, 4):
                err = np.linalg.norm(A - linalg.truncated_svd(A, k).reconstruct()) ** 2
                np.testing.assert_allclose(err, np.sum(s[k:] ** 2),
                                           rtol=1e-8, atol=1e-12)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            linalg.truncated_svd(np.eye(3), 0)
        with pytest.raises(ValueError):
            linalg.truncated_svd(np.eye(3), 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.truncated_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)


def _known_spectrum_cases():
    """(A, sigma) with A = U diag(sigma) V.T for random orthonormal U, V:
    tall, wide and square shapes; geometric spectra down to 1e-14,
    repeated values and exact zeros; scales 1e-8 to 1e8."""
    rng = _rng(40)
    for m, n in [(10, 10), (14, 6), (6, 14)]:
        r = min(m, n)
        spectra = [np.logspace(0, -14, r),
                   np.repeat([1.0, 0.5, 1e-3], [2, r - 4, 2]),
                   np.r_[np.sort(rng.uniform(0.1, 1.0, r - 3))[::-1],
                         np.zeros(3)]]
        for sigma in spectra:
            for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
                U = np.linalg.qr(rng.standard_normal((m, r)))[0]
                V = np.linalg.qr(rng.standard_normal((n, r)))[0]
                yield (U * (scale * sigma)) @ V.T, scale * sigma


def _gram_only_values(A, k):
    """Singular values as square roots of the Gram matrix's eigenvalues,
    with no Rayleigh-Ritz step."""
    G = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    return np.sqrt(np.maximum(np.linalg.eigh(G)[0][::-1][:k], 0.0))


class TestTruncatedSvdAccuracy:
    """The error bounds the truncated_svd docstring states, on matrices of
    known spectrum (each constant has room over the worst measured)."""

    eps = np.finfo(float).eps

    def test_error_bounds(self):
        eps = self.eps
        for A, sigma in _known_spectrum_cases():
            s1 = sigma[0]
            for k in range(1, sigma.size + 1):
                f = linalg.truncated_svd(A, k)
                s = f.singular_values
                residual = np.linalg.norm(A - f.reconstruct()) ** 2
                assert residual <= (np.sum(sigma[k:] ** 2)
                                    + 64 * k * eps * s1 ** 2)
                assert np.all(np.abs(s - sigma[:k]) * sigma[:k]
                              <= 64 * eps * s1 ** 2)
                assert np.all(s <= sigma[:k] + 16 * eps * s1)
                for Q in (f.left_vectors, f.right_vectors):
                    np.testing.assert_allclose(Q.T @ Q, np.eye(k), rtol=0,
                                               atol=1e-12)

    def test_gram_only_values_overshoot(self):
        # the Ritz step is what keeps the values from overshooting: square
        # roots of Gram eigenvalues read about sqrt(eps) sigma_1 where
        # sigma is 0
        over = max(np.max(_gram_only_values(A, sigma.size) - sigma)
                   / (self.eps * sigma[0])
                   for A, sigma in _known_spectrum_cases())
        assert over > 1e4


class TestRandomizedSvd:
    def test_exact_on_lowrank_input(self):
        rng = _rng(4)
        A = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 30))
        f = linalg.randomized_svd(A, 3, seed=0)
        assert np.linalg.norm(A - f.reconstruct()) <= 1e-8

    def test_identity_full_rank(self):
        f = linalg.randomized_svd(np.eye(4), 4, seed=0)
        np.testing.assert_allclose(f.reconstruct(), np.eye(4), atol=1e-10)

    def test_near_optimal_on_random(self):
        A = _rng(5).standard_normal((200, 200))
        exact_err = np.linalg.norm(A - linalg.truncated_svd(A, 5).reconstruct())
        rand_err = np.linalg.norm(A - linalg.randomized_svd(A, 5, seed=0).reconstruct())
        assert rand_err <= 1.5 * exact_err

    def test_seed_determinism(self):
        A = _rng(6).standard_normal((20, 20))
        f1 = linalg.randomized_svd(A, 4, seed=7)
        f2 = linalg.randomized_svd(A, 4, seed=7)
        np.testing.assert_array_equal(f1.singular_values, f2.singular_values)
        np.testing.assert_array_equal(f1.left_vectors, f2.left_vectors)

    def test_start_space_is_never_worse(self):
        # (A V)_k V.T is the best rank-k fit with rows in span(V); a fit
        # over a row space that contains V is never worse. With V the
        # exact right vectors that best fit is the exact truncation.
        rng = _rng(11)
        for m, n, k, p in [(30, 30, 3, 3), (40, 25, 5, 2), (25, 40, 4, 6),
                           (60, 60, 1, 1), (8, 8, 8, 8)]:
            A = rng.standard_normal((m, n))
            V_random, _ = np.linalg.qr(rng.standard_normal((n, p)))
            for V in (V_random, linalg.truncated_svd(A, k).right_vectors):
                fit = linalg.truncated_svd(A @ V, min(k, V.shape[1]))
                best_in_start = fit.reconstruct() @ V.T
                f = linalg.randomized_svd(A, k, seed=3, start=V)
                err = np.linalg.norm(A - f.reconstruct())
                assert err <= np.linalg.norm(A - best_in_start) * (1 + 1e-12)
                np.testing.assert_allclose(
                    f.right_vectors.T @ f.right_vectors, np.eye(k), atol=1e-10)


class TestTopKAbsSelect:
    def test_unique_max(self):
        S = linalg.top_k_abs_select(np.array([[3.0, 1.0], [1.0, 2.0]]), 1)
        np.testing.assert_array_equal(S, [[1, 0], [0, 0]])

    def test_k_zero(self):
        S = linalg.top_k_abs_select(np.ones((2, 2)), 0)
        np.testing.assert_array_equal(S, np.zeros((2, 2)))

    def test_matches_enumeration_oracle(self):
        # best support = the one maximizing captured |M| energy
        rng = _rng(7)
        M = rng.standard_normal((3, 3))
        cells = [(i, j) for i in range(3) for j in range(3)]
        best = max(sum(abs(M[ij]) for ij in supp)
                   for supp in itertools.combinations(cells, 4))
        S = linalg.top_k_abs_select(M, 4)
        assert S.sum() == 4
        np.testing.assert_allclose(np.sum(np.abs(M)[S == 1]), best, atol=1e-12)

    def test_row_major_ties(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        S = linalg.top_k_abs_select(M, 3)
        np.testing.assert_array_equal(S, [[1, 1], [1, 0]])

    def test_matches_stable_argsort(self):
        # partition-based selection agrees with a stable full sort,
        # including on tie-heavy integer-valued inputs
        rng = _rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            M = rng.integers(-3, 4, size=(n, n)).astype(float)
            k = int(rng.integers(0, n * n + 1))
            flat = np.abs(M).ravel()
            order = np.argsort(-flat, kind="stable")[:k]
            ref = np.zeros(n * n)
            ref[order] = 1.0
            S = linalg.top_k_abs_select(M, k)
            np.testing.assert_array_equal(S.ravel(), ref)

    def test_errors(self):
        # np.partition would take a k outside [0, m*n] from the other end
        for k in (5, 6, -1):
            with pytest.raises(ValueError, match="out of range"):
                linalg.top_k_abs_select(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                        k)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.top_k_abs_select(np.array([[1.0, np.nan]]), 1)

    @pytest.mark.parametrize("cells", [[(0, 15)], [(4, 0)], [(0, -1)],
                                       [(-1, 2)], [(1, 1), (3, 4)]])
    def test_forced_cell_outside_rejected(self, cells):
        # the selection takes no forced cells: they come only from a
        # pattern, so the pattern's range check is the one that rejects a
        # cell outside the matrix; flat index 15 is cell (3, 3) of a 4 x 4
        # matrix, so (0, 15) must not stand for it
        with pytest.raises(ValueError, match="out of range"):
            SparsityPattern(4, I0=cells)
        with pytest.raises(ValueError, match="out of range"):
            SparsityPattern(4, I1=cells)


class TestPseudoinverse:
    def test_diagonal(self):
        np.testing.assert_allclose(linalg.pseudoinverse(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-12)

    def test_orthogonal(self):
        th = 0.7
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        np.testing.assert_allclose(linalg.pseudoinverse(Q), Q.T, atol=1e-12)

    def test_penrose_identities(self):
        rng = _rng(9)
        A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        P = linalg.pseudoinverse(A)
        np.testing.assert_allclose(A @ P @ A, A, atol=1e-8)
        np.testing.assert_allclose(P @ A @ P, P, atol=1e-8)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            linalg.pseudoinverse(np.eye(2), tol=0.0)


# The cutoffs the package uses: alternating minimization's relative 1e-9,
# ScaledGD's absolute 1e-2 and GoDec's numpy matrix_rank rule
# max(M, N) * eps relative to the largest singular value.
RANK_CUTOFFS = [dict(rtol=1e-9), dict(atol=1e-2),
                dict(rtol=6 * np.finfo(float).eps)]


class TestRankCount:
    @pytest.mark.parametrize("cutoff", RANK_CUTOFFS)
    def test_known_rank(self, cutoff):
        rng = _rng(3)
        for r in range(5):
            A = rng.standard_normal((6, r)) @ rng.standard_normal((r, 5))
            assert linalg.rank_count(A, **cutoff) == r
            s = np.linalg.svd(A, compute_uv=False)
            assert linalg.rank_count(s, **cutoff) == r

    @pytest.mark.parametrize("cutoff", RANK_CUTOFFS)
    def test_zero_matrix(self, cutoff):
        assert linalg.rank_count(np.zeros((4, 3)), **cutoff) == 0

    @pytest.mark.parametrize("cutoff", RANK_CUTOFFS)
    def test_empty_spectrum(self, cutoff):
        assert linalg.rank_count(np.zeros(0), **cutoff) == 0

    def test_each_cutoff_on_one_spectrum(self):
        s = np.array([1.0, 1e-3, 1e-12, 0.0])
        assert [linalg.rank_count(s, **c) for c in RANK_CUTOFFS] == [2, 1, 3]
        assert linalg.rank_count(s, rtol=1e-9, atol=1e-2) == 1

    def test_eps_cutoff_matches_matrix_rank(self):
        rng = _rng(4)
        for r in range(1, 6):
            A = rng.standard_normal((7, r)) @ rng.standard_normal((r, 6))
            A[:, 0] *= 1e-14
            assert linalg.rank_count(A, rtol=7 * np.finfo(float).eps) == \
                np.linalg.matrix_rank(A)


class TestStacks:
    """A stack (B, m, n) gives each matrix the bits it gets on its own."""

    def test_truncated_svd(self):
        A = _rng(20).standard_normal((5, 6, 4))
        f = linalg.truncated_svd(A, 2)
        for b in range(5):
            g = linalg.truncated_svd(A[b], 2)
            for field in ("singular_values", "left_vectors",
                          "right_vectors"):
                assert getattr(f, field)[b].tobytes() == \
                    getattr(g, field).tobytes()
            assert f.reconstruct()[b].tobytes() == g.reconstruct().tobytes()
        with pytest.raises(ValueError):
            linalg.truncated_svd(A, 5)

    @pytest.mark.parametrize("shape", [(4, 9, 5), (4, 5, 9), (4, 7, 7)])
    def test_randomized_svd(self, shape):
        # one sketch from the seed serves the stack, and a start stack gives
        # each matrix its own start
        B, m, n = shape
        rng = _rng(22)
        A = rng.standard_normal(shape)
        starts = rng.standard_normal((B, n, 2))
        for k in (1, 3):
            for start in (None, starts):
                f = linalg.randomized_svd(A, k, seed=4, start=start)
                for b in range(B):
                    g = linalg.randomized_svd(
                        A[b], k, seed=4,
                        start=None if start is None else start[b])
                    for field in ("singular_values", "left_vectors",
                                  "right_vectors"):
                        assert getattr(f, field)[b].tobytes() == \
                            getattr(g, field).tobytes()
        with pytest.raises(ValueError):
            linalg.randomized_svd(A, min(m, n) + 1)

    def test_randomized_svd_rejects_a_bad_start(self):
        # an all-NaN start ended in LinAlgError, and a start of the wrong
        # shape in numpy's concatenate error
        A = _rng(23).standard_normal((6, 6))
        for start in (np.full((6, 1), np.nan), np.ones(6), np.ones((5, 1)),
                      np.ones((2, 6, 1)), np.full((6, 2), np.inf)):
            with pytest.raises(ValueError, match="start"):
                linalg.randomized_svd(A, 2, start=start)
        stack = np.stack([A, A])
        for start in (np.ones((6, 1)), np.ones((3, 6, 1))):
            with pytest.raises(ValueError, match="start"):
                linalg.randomized_svd(stack, 2, start=start)
        for start in (np.ones((6, 1)), np.ones((6, 0))):
            linalg.randomized_svd(A, 2, start=start)

    def test_top_k(self):
        # integer entries make ties real; a (B, 1, m) stack of rows is how
        # the sparse step passes a pattern's free cells
        M = _rng(21).integers(-2, 3, size=(40, 3, 3)).astype(float)
        for k in (0, 4, 9):
            S = linalg.top_k_abs_select(M, k)
            rows = linalg.top_k_abs_select(M.reshape(40, 1, 9), k)
            for b in range(40):
                single = linalg.top_k_abs_select(M[b], k)
                assert S[b].tobytes() == single.tobytes()
                assert rows[b].tobytes() == single.reshape(1, 9).tobytes()


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        A = _rng(10).standard_normal((3, 4))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, A)
        np.testing.assert_array_equal(linalg.read_matrix_csv(path), A)

    def test_bytes_are_the_per_entry_repr(self, tmp_path):
        # the file format: one line per row, each entry the repr of its
        # Python float, so every double round-trips, -0.0 and subnormals
        # included
        A = _rng(11).standard_normal((4, 3)) * np.array([[1e-3], [1.0],
                                                         [1e3], [1.0]])
        A[0, 0], A[1, 1], A[2, 2] = -0.0, 5e-324, 1e300
        A[3] = [1.0, 0.1, 123456789.0]
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, A)
        want = "".join(",".join(repr(float(v)) for v in row) + "\n"
                       for row in A)
        assert path.read_text() == want
        B = linalg.read_matrix_csv(path)
        assert B.tobytes() == A.tobytes()

    def test_reads_what_float_reads(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1, 2.5e-3 ,-0.0\n\n  +4,.5,6.\n")
        B = linalg.read_matrix_csv(path)
        want = np.array([[1.0, 2.5e-3, -0.0], [4.0, 0.5, 6.0]])
        assert B.tobytes() == want.tobytes()

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            linalg.read_matrix_csv(path)

    def test_error_messages(self, tmp_path):
        # non-numeric entries name their file line; ragged rows are
        # counted among the non-empty rows
        path = tmp_path / "bad.csv"
        cases = [("1,2\n\n3,x\n", f"{path}:3: non-numeric entry"),
                 ("1,2\n3,\n", f"{path}:2: non-numeric entry"),
                 ("1,2\n\n3,4,5\n", f"{path}:2: ragged row (3 != 2)"),
                 ("\n \n", f"{path}: empty matrix file")]
        for text, message in cases:
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                linalg.read_matrix_csv(path)
            assert str(err.value) == message

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            linalg.read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            linalg.read_matrix_csv(path)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(0, 36))
def test_topk_cardinality_property(seed, n, k):
    M = np.random.default_rng(seed).standard_normal((n, n))
    k = min(k, n * n)
    S = linalg.top_k_abs_select(M, k)
    assert S.sum() == k
    assert set(np.unique(S)) <= {0.0, 1.0}

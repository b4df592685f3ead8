"""Kernel statistics against brute-force double-loop oracles and closed forms."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ddalign.errors import NumericsError, ValidationError
from ddalign.kernels import (
    KernelBuffers,
    _median_upper,
    discrepancies,
    discrepancy_grad,
    pooled_gram,
    pooled_sq_dists,
    signed_weights,
)
from ddalign.trainer import TrainConfig


def kernel_oracle(u, v, sigma):
    d2 = sum((a - b) ** 2 for a, b in zip(u, v))
    return math.exp(-d2 / sigma)


def mmd_oracle(Xs, Xt, sigma):
    """Triple-sum estimator evaluated pair by pair."""
    n, m = len(Xs), len(Xt)
    ss = sum(kernel_oracle(Xs[i], Xs[j], sigma) for i in range(n) for j in range(n))
    tt = sum(kernel_oracle(Xt[i], Xt[j], sigma) for i in range(m) for j in range(m))
    st = sum(kernel_oracle(Xs[i], Xt[j], sigma) for i in range(n) for j in range(m))
    return ss / n**2 + tt / m**2 - 2.0 * st / (n * m)


def cmmd_oracle(Xs, ys, Xt, yt, sigma, n_classes):
    """Per-class double-loop sums averaged over classes present in both sets."""
    terms = []
    for c in range(n_classes):
        xs_c = [x for x, y in zip(Xs, ys) if y == c]
        xt_c = [x for x, y in zip(Xt, yt) if y == c]
        if not xs_c or not xt_c:
            continue
        terms.append(mmd_oracle(xs_c, xt_c, sigma))
    return sum(terms) / len(terms) if terms else 0.0


FIXED = 1.0
MEDIAN = None  # the median heuristic


def step_statistics(Xs, Xt, sigma, ys=None, yt=None, n_classes=1):
    """(mmd, cmmd) as a training step composes them, each clamped at 0.

    Unlabeled sides count as all class 0.
    """
    ys = np.zeros(len(Xs), int) if ys is None else ys
    yt = np.zeros(len(Xt), int) if yt is None else yt
    K, _, _ = pooled_gram(np.vstack([Xs, Xt]), sigma, KernelBuffers())
    W, scale = signed_weights(ys, yt, n_classes)
    v = discrepancies(K, W, scale)
    return max(float(v[0]), 0.0), max(float(v[1:].mean()), 0.0) if v.size > 1 else 0.0


def kernel_of_pair(u, v, sigma):
    """k(u, v) of two single vectors, read off their pooled Gram matrix."""
    return float(pooled_gram(np.array([u, v], dtype=float), sigma, KernelBuffers())[0][0, 1])


class TestGaussianKernel:
    def test_zero_distance(self):
        u = np.array([0.3, -1.2, 4.0])
        assert kernel_of_pair(u, u, FIXED) == 1.0

    def test_distance_equal_sigma(self):
        # ||u - v||^2 = sigma gives exactly e^{-1}
        assert kernel_of_pair([0.0], [2.0], 4.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=5), rng.normal(size=5)
            sigma = float(rng.uniform(0.5, 3.0))
            assert kernel_of_pair(u, v, sigma) == pytest.approx(
                kernel_oracle(u, v, sigma), rel=1e-12
            )

    def test_non_finite_rejected(self):
        # a NaN embedding row must not pass as a collapsed one
        Z = np.array([[np.nan, 0.0], [1.0, 2.0], [0.5, 0.5]])
        with pytest.raises(NumericsError, match="non-finite pooled distances"):
            pooled_gram(Z, MEDIAN, KernelBuffers())


class TestKernelMatrix:
    def test_single_point(self):
        K, _, _ = pooled_gram(np.array([[1.0, 2.0]]), FIXED, KernelBuffers())
        npt.assert_array_equal(K, [[1.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(7, 2))
        K, _, _ = pooled_gram(Z, FIXED, KernelBuffers())
        for i in range(7):
            for j in range(7):
                assert K[i, j] == pytest.approx(kernel_oracle(Z[i], Z[j], 1.0), rel=1e-12)

    def test_distant_points_decay(self):
        K, _, _ = pooled_gram(np.array([[0.0], [1e4]]), FIXED, KernelBuffers())
        assert K[0, 1] <= 1e-12 and K[1, 0] <= 1e-12

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(2)
        K, _, _ = pooled_gram(rng.normal(size=(11, 3)), FIXED, KernelBuffers())
        assert (K >= 0).all()
        assert (K <= 1.0).all()


class TestMedianBandwidth:
    def test_single_pair(self):
        assert pooled_gram(np.array([[0.0], [2.0]]), MEDIAN, KernelBuffers())[1] == 4.0

    def test_three_points(self):
        # pairwise squared distances {1, 9, 4} -> median 4
        assert pooled_gram(np.array([[0.0], [1.0], [3.0]]), MEDIAN, KernelBuffers())[1] == 4.0

    def test_degenerate_fallback(self):
        assert pooled_gram(np.ones((5, 2)), MEDIAN, KernelBuffers())[1] == 1.0

    def test_median_sigma_of_pooled_gram(self):
        K, sigma, _ = pooled_gram(np.array([[0.0], [2.0]]), MEDIAN, KernelBuffers())
        assert sigma == 4.0
        assert K[0, 1] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_given_sigma_replaces_the_heuristic(self):
        K, sigma, _ = pooled_gram(np.array([[0.0], [2.0]]), 2.0, KernelBuffers())
        assert sigma == 2.0
        assert K[0, 1] == pytest.approx(math.exp(-2), rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_given_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be finite and > 0"):
            TrainConfig(sigma=sigma)


class TestSignedWeights:
    def test_marginal_column_first(self):
        W, scale = signed_weights(np.array([0, 1, 1]), np.array([1, -1]), 2)
        npt.assert_array_equal(W[:, 0], [2, 2, 2, -3, -3])
        npt.assert_array_equal(W[:, 1], [0, 1, 1, -2, 0])
        npt.assert_array_equal(scale, [1 / 36, 1 / 4])

    def test_no_shared_class_leaves_marginal_only(self):
        W, scale = signed_weights(np.zeros(3, int), np.full(2, -1), 3)
        assert W.shape == (5, 1) and scale.shape == (1,)


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 4))
        assert step_statistics(X, X.copy(), FIXED)[0] <= 1e-12

    def test_singletons_closed_form(self):
        # 1 + 1 - 2 e^{-1}
        val = step_statistics(np.array([[0.0]]), np.array([[1.0]]), FIXED)[0]
        assert val == pytest.approx(2 - 2 * math.exp(-1), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        Xs, Xt = rng.normal(size=(8, 3)), rng.normal(size=(5, 3))
        npt.assert_allclose(step_statistics(Xs, Xt, 2.0)[0], mmd_oracle(Xs, Xt, 2.0), rtol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            Xs, Xt = rng.normal(size=(4, 2)), rng.normal(size=(7, 2))
            npt.assert_allclose(step_statistics(Xs, Xt, MEDIAN)[0],
                                step_statistics(Xt, Xs, MEDIAN)[0], rtol=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(6)
        Xs, Xt = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        base = step_statistics(Xs, Xt, FIXED)[0]
        doubled = step_statistics(np.vstack([Xs, Xs]), np.vstack([Xt, Xt]), FIXED)[0]
        npt.assert_allclose(doubled, base, rtol=1e-12)

    def test_bounded_by_two(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            Xs = rng.normal(size=(5, 2)) * 100
            Xt = rng.normal(size=(6, 2)) * 100 + 1e6
            assert 0.0 <= step_statistics(Xs, Xt, FIXED)[0] <= 2.0


class TestCmmd:
    def test_single_class_reduces_to_mmd(self):
        rng = np.random.default_rng(8)
        Xs, Xt = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        npt.assert_allclose(step_statistics(Xs, Xt, 1.5, np.zeros(5, int), np.zeros(4, int), 1)[1],
                            step_statistics(Xs, Xt, 1.5)[0], rtol=1e-12)

    def test_per_class_identical_is_zero(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 2, 2])
        assert step_statistics(X, X.copy(), FIXED, y, y.copy(), 3)[1] <= 1e-12

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(10)
        Xs, Xt = rng.normal(size=(7, 3)), rng.normal(size=(6, 3))
        ys = rng.integers(0, 2, size=7)
        yt = rng.integers(0, 2, size=6)
        if len(np.unique(ys)) < 2 or len(np.unique(yt)) < 2:
            ys[:2], yt[:2] = [0, 1], [0, 1]
        expected = cmmd_oracle(list(Xs), list(ys), list(Xt), list(yt), 1.2, 2)
        npt.assert_allclose(step_statistics(Xs, Xt, 1.2, ys, yt, 2)[1], expected, rtol=1e-10)

    def test_disjoint_classes_zero(self):
        rng = np.random.default_rng(11)
        Xs, Xt = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        assert step_statistics(Xs, Xt, FIXED, np.zeros(3, int), np.ones(3, int), 2)[1] == 0.0


class TestPooledKernel:
    def test_offset_nearly_identical_rows_match_oracle(self):
        # rows 1e3 from the origin and 1e-3 apart: the uncentered Gram trick
        # loses about ten of sixteen digits of every distance here
        rng = np.random.default_rng(15)
        Xs = 1e3 + 1e-3 * rng.normal(size=(7, 3))
        Xt = 1e3 + 1e-3 * rng.normal(size=(6, 3)) + 5e-4
        Xt[0] = Xs[0]
        ys, yt = np.array([0, 0, 1, 1, 2, 2, 0]), np.array([0, 1, 1, 2, 2, 0])
        pooled = list(np.vstack([Xs, Xt]))
        d2 = [sum((a - b) ** 2 for a, b in zip(pooled[i], pooled[j]))
              for i in range(len(pooled)) for j in range(i + 1, len(pooled))]
        sigma = float(np.median(d2))
        npt.assert_allclose(pooled_gram(np.vstack([Xs, Xt]), MEDIAN, KernelBuffers())[1], sigma,
                            rtol=1e-10)
        npt.assert_allclose(step_statistics(Xs, Xt, MEDIAN)[0], mmd_oracle(Xs, Xt, sigma),
                            rtol=1e-10)
        npt.assert_allclose(step_statistics(Xs, Xt, MEDIAN, ys, yt, 3)[1],
                            cmmd_oracle(list(Xs), list(ys), list(Xt), list(yt), sigma, 3),
                            rtol=1e-10)

    def test_distances_symmetric_nonnegative_zero_diagonal(self):
        rng = np.random.default_rng(16)
        base = 1e3 + rng.normal(size=(40, 8))
        Z = np.vstack([base, base[:10], base[:10] + 1e-9])  # duplicates, near-duplicates
        D = pooled_sq_dists(Z - Z.mean(axis=0), KernelBuffers())
        npt.assert_array_equal(D, D.T)
        assert (D >= 0.0).all()
        npt.assert_array_equal(np.diag(D), 0.0)
        npt.assert_array_equal(D[40:50, :10][np.diag_indices(10)], 0.0)


class TestExactFastPaths:
    """The blocked distance assembly and the one-selection median give the
    same bits as the plain formulas they replace."""

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 88, 257])
    def test_distances_equal_unblocked_formula(self, n):
        Z = 1e2 + np.random.default_rng(n).normal(size=(n, 5))
        Zc = Z - Z.mean(axis=0)
        G = Zc @ Zc.T
        sq = G.diagonal().copy()
        expected = np.maximum(sq[:, None] + sq[None, :] - 2.0 * G, 0.0)
        np.fill_diagonal(expected, 0.0)
        npt.assert_array_equal(pooled_sq_dists(Zc, KernelBuffers()), expected)

    @staticmethod
    def numpy_median(Z):
        if len(Z) < 2:  # no pair
            return 1.0
        D = pooled_sq_dists(Z - Z.mean(axis=0), KernelBuffers())
        med = float(np.median(D[np.triu_indices(len(Z), 1)]))
        return med if med > 0.0 else 1.0

    @pytest.mark.parametrize("n", [*range(1, 41), 88, 256, 300])
    def test_median_sigma_equals_numpy_median(self, n):
        rng = np.random.default_rng(100 + n)
        # continuous rows, then small-integer rows whose distances tie often;
        # after the first call per size, calls reuse the triangle index and
        # gather buffer that earlier rows were selected in
        buffers = KernelBuffers()
        for Z in (rng.normal(size=(n, 4)), rng.integers(0, 3, size=(n, 2)).astype(float)):
            for _ in range(2):
                _, sigma, _ = pooled_gram(Z, MEDIAN, buffers)
                assert sigma == self.numpy_median(Z)

    def test_median_gathers_in_place(self):
        # the gather writes into the buffer: no copy of the triangle index
        # (ndarray.take makes one of a read-only index) and no fresh result
        D = np.random.default_rng(18).random((256, 256))
        triangle = 256 * 255 // 2 * D.itemsize
        buffers = KernelBuffers()
        _median_upper(D, buffers)
        tracemalloc.start()
        try:
            _median_upper(D, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < triangle / 4

    def test_zero_median_falls_back_to_one(self):
        # all rows equal; then 9 of 10 equal, so 36 of 45 pair distances are 0
        mostly = np.zeros((10, 3))
        mostly[0] = 1.0
        for Z in (np.full((7, 3), 5.0), mostly):
            _, sigma, _ = pooled_gram(Z, MEDIAN, KernelBuffers())
            assert sigma == self.numpy_median(Z) == 1.0
        # one row has no pair at all
        assert pooled_gram(np.ones((1, 3)), MEDIAN, KernelBuffers())[1] == 1.0

    @pytest.mark.parametrize("sigma", [MEDIAN, FIXED], ids=["median", "fixed"])
    def test_overflowing_distances_raise_naming_kernel(self, sigma):
        # |row|^2 ~ 1e320 overflows the Gram product; the NaN distances must not
        # pass as collapsed embeddings with their 1.0 fallback sigma
        Z = 1e160 * np.random.default_rng(17).normal(size=(6, 3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError, match="non-finite pooled distances in the kernel layer"):
            pooled_gram(Z, sigma, KernelBuffers())


class TestGradients:
    @staticmethod
    def fd_grad(f, X, eps=1e-6):
        g = np.zeros_like(X)
        for idx in np.ndindex(*X.shape):
            Xp, Xm = X.copy(), X.copy()
            Xp[idx] += eps
            Xm[idx] -= eps
            g[idx] = (f(Xp) - f(Xm)) / (2 * eps)
        return g

    @staticmethod
    def pooled_grad(Xs, ys, Xt, yt, sigma, n_classes):
        """d/dZ of the class-averaged statistic on the pooled rows [Xs; Xt]."""
        K, _, Zc = pooled_gram(np.vstack([Xs, Xt]), sigma, KernelBuffers())
        W, scale = signed_weights(ys, yt, n_classes)
        coef = scale / (W.shape[1] - 1)
        coef[0] = 0.0  # the marginal column
        d_z = discrepancy_grad(K, W, coef, Zc, sigma, KernelBuffers())
        return d_z[:len(Xs)], d_z[len(Xs):]

    def test_mmd_grad_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        Xs, Xt = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        sigma = 1.7
        d_xs, d_xt = self.pooled_grad(Xs, np.zeros(4), Xt, np.zeros(5), sigma, 1)
        fd_s = self.fd_grad(lambda A: mmd_oracle(A, Xt, sigma), Xs)
        fd_t = self.fd_grad(lambda A: mmd_oracle(Xs, A, sigma), Xt)
        npt.assert_allclose(d_xs, fd_s, rtol=1e-6, atol=1e-9)
        npt.assert_allclose(d_xt, fd_t, rtol=1e-6, atol=1e-9)

    def test_cmmd_grad_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        Xs, Xt = rng.normal(size=(6, 2)), rng.normal(size=(5, 2))
        ys = np.array([0, 0, 1, 1, 2, 2])
        yt = np.array([0, 1, 1, 2, 2])
        sigma = 0.9
        d_xs, d_xt = self.pooled_grad(Xs, ys, Xt, yt, sigma, 3)
        fd_s = self.fd_grad(lambda A: cmmd_oracle(list(A), list(ys), list(Xt), list(yt), sigma, 3), Xs)
        fd_t = self.fd_grad(lambda A: cmmd_oracle(list(Xs), list(ys), list(A), list(yt), sigma, 3), Xt)
        npt.assert_allclose(d_xs, fd_s, rtol=1e-6, atol=1e-9)
        npt.assert_allclose(d_xt, fd_t, rtol=1e-6, atol=1e-9)

    def test_cmmd_grad_absent_class_rows_zero(self):
        rng = np.random.default_rng(14)
        Xs, Xt = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        ys = np.array([0, 0, 1, 1])
        yt = np.array([0, 0, 0, -1])  # class 1 absent on target side, last row unused
        d_xs, d_xt = self.pooled_grad(Xs, ys, Xt, yt, 1.0, 2)
        npt.assert_array_equal(d_xs[2:], 0.0)
        npt.assert_array_equal(d_xt[3], 0.0)

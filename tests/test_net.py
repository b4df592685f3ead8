"""Model forward/backward against closed forms and central finite differences."""

import copy
import math
import pickle

import numpy as np
import numpy.testing as npt
import pytest

from ddalign.data import load_checkpoint, save_checkpoint
from ddalign.errors import DataFormatError, NumericsError, ValidationError
from ddalign.kernels import signed_weights
from ddalign.net import (
    ModelParams,
    _layer1,
    _scores_from_z1,
    backward,
    compute_losses,
    confidence_mask,
    cross_entropy,
    forward_features,
    forward_logits,
    init_params,
)

FIXED = 2.0  # kernel bandwidth


def eval_scores(x, params):
    """Eval-mode argmax labels and max probabilities through the public forward."""
    h, _ = forward_features(x, params)
    probs = forward_logits(h, params)
    return probs.argmax(axis=1), probs.max(axis=1)


def tiny_setup(seed=0, d=6, h1=4, h2=4, C=3, B=5):
    rng = np.random.default_rng(seed)
    params = init_params(d, h1, h2, C, rng)
    src_x = rng.normal(size=(B, d))
    src_y = rng.integers(0, C, size=B)
    tgt_x = rng.normal(size=(B, d)) + 0.5
    return params, src_x, src_y, tgt_x


class TestForwardFeatures:
    def test_zero_input_zero_biases_gives_zero(self):
        params, *_ = tiny_setup()
        h, _ = forward_features(np.zeros((3, 6)), params)
        npt.assert_array_equal(h, 0.0)

    def test_eval_mode_deterministic(self):
        params, src_x, *_ = tiny_setup(1)
        h1, _ = forward_features(src_x, params)
        h2, _ = forward_features(src_x, params)
        npt.assert_array_equal(h1, h2)

    def test_dropout_mask_values_and_rate(self):
        params = init_params(10, 64, 64, 3, np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(200, 10))
        _, trace = forward_features(x, params, rng=np.random.default_rng(4))
        for m in (trace.m1, trace.m2):
            vals = np.unique(m)
            assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.75, 12)}
            assert abs((m == 0).mean() - 0.25) < 0.05

    def test_shape_mismatch(self):
        params, *_ = tiny_setup()
        with pytest.raises(ValidationError):
            forward_features(np.zeros((2, 7)), params)

    def test_non_finite_flagged_with_layer(self):
        params, src_x, *_ = tiny_setup()
        bad = ModelParams(*(a.copy() for a in params.arrays()))
        object.__setattr__(bad, "W1", bad.W1 * 1.0)
        bad.W1[0, 0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="layer 1"):
            forward_features(np.full((1, 6), 1e308), bad)


class TestForwardLogits:
    def test_equal_logits_uniform(self):
        params, *_ = tiny_setup()
        probs = forward_logits(np.zeros((4, 4)), params)
        npt.assert_allclose(probs, 1.0 / 3.0, rtol=1e-12)

    def test_saturated_logit_one_hot(self):
        params = init_params(2, 2, 2, 3, np.random.default_rng(0))
        Wc = np.zeros((2, 3))
        Wc[0, 1] = 1000.0
        params = ModelParams(params.W1, params.b1, params.W2, params.b2, Wc, np.zeros(3))
        probs = forward_logits(np.array([[1.0, 0.0]]), params)
        npt.assert_allclose(probs, [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_rows_sum_to_one(self):
        params, *_ = tiny_setup(5)
        h = np.random.default_rng(6).normal(size=(10, 4)) * 5
        probs = forward_logits(h, params)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, np.eye(2)[[0, 1]]) == pytest.approx(0.0, abs=1e-10)

    def test_saturated_batch_is_positive_zero(self):
        # every log is 0, so the negated sum must not come out as -0.0
        l_ds = cross_entropy(np.eye(1)[[0, 0, 0]], np.eye(1)[[0, 0, 0]])
        assert l_ds == 0.0 and math.copysign(1, l_ds) == 1

    def test_uniform_three_classes(self):
        probs = np.full((4, 3), 1 / 3)
        y = np.eye(3)[[0, 1, 2, 0]]
        assert cross_entropy(probs, y) == pytest.approx(math.log(3), rel=1e-12)

    def test_two_sample_closed_form(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        expected = -(math.log(0.5) + math.log(0.25)) / 2
        assert cross_entropy(probs, np.eye(3)[[0, 1]]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        # compute_losses one-hots the source labels, so an id outside [0, C) stops there
        params, src_x, src_y, tgt_x = tiny_setup()
        src_y[0] = label
        with pytest.raises(ValidationError, match=r"label id outside \[0, 3\)"):
            compute_losses(src_x, src_y, tgt_x, params, 0.0, FIXED)

    def test_one_hot_shape_must_match(self):
        with pytest.raises(ValidationError, match=r"shape \(1, 3\), probabilities \(2, 3\)"):
            cross_entropy(np.full((2, 3), 1 / 3), np.eye(3)[[0]])


class TestModelParams:
    FIELDS = ("W1", "b1", "W2", "b2", "Wc", "bc")

    def test_fields_are_views_of_one_copied_vector(self):
        source = [a.copy() for a in init_params(5, 4, 3, 2, np.random.default_rng(0)).arrays()]
        params = ModelParams(*source)
        npt.assert_array_equal(params.flat, np.concatenate([a.ravel() for a in source]))
        assert all(np.shares_memory(a, params.flat) for a in params.arrays())
        assert params.extractor_size == 5 * 4 + 4 + 4 * 3 + 3
        source[0][:] = 7.0  # the constructor copied its arrays
        assert not (params.W1 == 7.0).any()

    @pytest.mark.parametrize("name", FIELDS)
    def test_non_finite_field_named(self, name):
        arrays = dict(zip(self.FIELDS, init_params(5, 4, 3, 2, np.random.default_rng(0)).arrays()))
        arrays[name] = arrays[name].copy()
        arrays[name].flat[-1] = np.nan
        arrays["bc"] = np.full_like(arrays["bc"], np.inf)  # a later field is not named
        with pytest.raises(ValidationError, match=rf"^{name} contains non-finite values$"):
            ModelParams(**arrays)

    def test_copy_gets_its_own_vector(self):
        params = init_params(5, 4, 3, 2, np.random.default_rng(0))
        for dup in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert all(np.shares_memory(a, dup.flat) for a in dup.arrays())
            assert not np.shares_memory(dup.flat, params.flat)
            npt.assert_array_equal(dup.flat, params.flat)


class TestParameterCount:
    def test_full_architecture(self):
        params = init_params(310, 64, 64, 3, np.random.default_rng(0))
        expected = 310 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3
        assert sum(a.size for a in params.arrays()) == expected == 24259

    def test_four_classes(self):
        params = init_params(310, 64, 64, 4, np.random.default_rng(0))
        assert sum(a.size for a in params.arrays()) == 310 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4

    def test_degenerate(self):
        params = init_params(1, 1, 1, 1, np.random.default_rng(0))
        assert sum(a.size for a in params.arrays()) == 6


class TestTotalLoss:
    def test_zero_weights_total_is_lds(self):
        params, src_x, src_y, tgt_x = tiny_setup(7)
        trace = compute_losses(src_x, src_y, tgt_x, params, 0.0, FIXED)
        assert trace.total(0.0, 0.0) == trace.l_ds

    def test_identical_batches_align_to_zero(self):
        params, src_x, _, _ = tiny_setup(8)
        # use the model's own predictions as source labels, so the identical
        # target batch carries identical pseudo-labels per class
        src_y, _ = eval_scores(src_x, params)
        trace = compute_losses(src_x, src_y, src_x.copy(), params, 0.0, FIXED)
        assert trace.l_mmd <= 1e-10
        assert trace.l_cmmd <= 1e-10

    def test_total_recomposes_from_components(self):
        params, src_x, src_y, tgt_x = tiny_setup(9)
        trace = compute_losses(src_x, src_y, tgt_x, params, 0.0, FIXED)
        recomposed = trace.l_ds + 0.7 * trace.l_mmd + 0.3 * trace.l_cmmd
        assert trace.total(0.7, 0.3) == pytest.approx(recomposed, abs=1e-9)
        assert trace.l_mmd > 0 and trace.l_cmmd >= 0

    def test_empty_target_flagged(self):
        params, src_x, src_y, _ = tiny_setup(10)
        trace = compute_losses(src_x, src_y, np.empty((0, 6)), params, 0.0, FIXED)
        assert trace.tgt is None and trace.K is None and trace.kept_idx.size == 0
        assert trace.l_mmd == 0.0 and trace.l_cmmd == 0.0
        assert trace.total(1.0, 1.0) == trace.l_ds

    def test_empty_source_rejected(self):
        params, *_ = tiny_setup(11)
        with pytest.raises(ValidationError):
            compute_losses(np.empty((0, 6)), np.empty(0, int), np.zeros((2, 6)), params,
                           0.0, FIXED)


class TestPseudoLabels:
    def test_argmax_and_confidence(self):
        # the step's shortcut from layer 1 runs the eval-mode forward's operations
        params, _, _, tgt_x = tiny_setup(12)
        labels, conf = _scores_from_z1(_layer1(tgt_x, params)[1], params)
        want_labels, want_conf = eval_scores(tgt_x, params)
        npt.assert_array_equal(labels, want_labels)
        npt.assert_array_equal(conf, want_conf)

    @pytest.mark.parametrize("dropout", [False, True])
    def test_step_pseudo_labels_equal_eval_mode_scores(self, dropout):
        # compute_losses reuses its target pass's layer 1; dropout must not leak in
        params, src_x, src_y, tgt_x = tiny_setup(14, B=40)
        tau = 0.4
        rng = np.random.default_rng(6) if dropout else None
        trace = compute_losses(src_x, src_y, tgt_x, params, tau, FIXED, rng)
        labels, conf = eval_scores(tgt_x, params)
        keep = confidence_mask(conf, tau)
        assert 0 < keep.sum() < keep.size
        npt.assert_array_equal(trace.kept_idx, np.flatnonzero(keep))
        W, scale = signed_weights(src_y, np.where(keep, labels, -1), params.n_classes)
        npt.assert_array_equal(trace.W, W)
        npt.assert_array_equal(trace.w_scale, scale)

    def test_empty_batch(self):
        params, *_ = tiny_setup(13)
        labels, conf = _scores_from_z1(np.empty((0, 4)), params)
        assert labels.size == 0 and conf.size == 0


def fd_param_grads(loss_fn, params, eps=1e-5):
    """Central finite differences of a scalar loss over every parameter."""
    grads = []
    for a_idx, arr in enumerate(params.arrays()):
        g = np.zeros_like(arr)
        for idx in np.ndindex(*arr.shape):
            def shifted(delta):
                arrays = [a.copy() for a in params.arrays()]
                arrays[a_idx][idx] += delta
                return ModelParams(*arrays)
            g[idx] = (loss_fn(shifted(eps)) - loss_fn(shifted(-eps))) / (2 * eps)
        grads.append(g)
    return ModelParams(*grads)


def max_rel_err(analytic: ModelParams, numeric: ModelParams) -> float:
    worst = 0.0
    for a, n in zip(analytic.arrays(), numeric.arrays()):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


UNIT_WEIGHTS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def unit_weight_grads(trace) -> list[ModelParams]:
    """backward at (alpha, beta) = (0, 0), (1, 0) and (0, 1)."""
    return [backward(trace, alpha, beta) for alpha, beta in UNIT_WEIGHTS]


def linear_in_weights(g00, g10, g01, alpha, beta) -> ModelParams:
    """g00 + alpha (g10 - g00) + beta (g01 - g00): backward is linear in (alpha, beta)."""
    return ModelParams(*(a + alpha * (b - a) + beta * (c - a)
                         for a, b, c in zip(g00.arrays(), g10.arrays(), g01.arrays())))


class TestBackward:
    def test_components_match_finite_differences(self):
        params, src_x, src_y, tgt_x = tiny_setup(14)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED)
        for (alpha, beta), g in zip(UNIT_WEIGHTS, unit_weight_grads(trace)):
            fd = fd_param_grads(
                lambda p: compute_losses(src_x, src_y, tgt_x, p, tau=0.0,
                                         sigma=FIXED).total(alpha, beta), params)
            assert max_rel_err(g, fd) <= 1e-4, (alpha, beta)

    def test_combined_backward_matches_weighted_parts(self):
        params, src_x, src_y, tgt_x = tiny_setup(15)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED)
        combined = backward(trace, alpha=0.6, beta=0.4)
        expected = linear_in_weights(*unit_weight_grads(trace), 0.6, 0.4)
        for a, b in zip(combined.arrays(), expected.arrays()):
            npt.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_gradients_zero_at_perfect_prediction(self):
        # one source sample, saturated correct class, alignment off
        params = init_params(2, 2, 2, 2, np.random.default_rng(16))
        Wc = np.array([[500.0, -500.0], [0.0, 0.0]])
        params = ModelParams(np.abs(params.W1), params.b1, np.abs(params.W2),
                             params.b2, Wc, np.zeros(2))
        src_x = np.array([[1.0, 1.0]])
        trace = compute_losses(src_x, np.array([0]), np.empty((0, 2)), params,
                               tau=0.0, sigma=FIXED)
        grads = backward(trace, alpha=0.0, beta=0.0)
        for arr in grads.arrays():
            npt.assert_allclose(arr, 0.0, atol=1e-12)

    def test_gradient_overflow_is_numerics_error(self):
        # layer 1 stays finite (x * W1 ~ 1), but x.T @ d_z1 overflows
        params, src_x, src_y, tgt_x = tiny_setup(18)
        params = ModelParams(params.W1 * 1e-300, params.b1, params.W2,
                             params.b2, params.Wc * 1e10, params.bc)
        with np.errstate(over="ignore"):
            trace = compute_losses(src_x * 1e300, src_y, tgt_x, params, tau=0.0,
                                   sigma=FIXED, use_mmd=False, use_cmmd=False)
            with pytest.raises(NumericsError, match="gradient overflowed: W1"):
                backward(trace, alpha=0.0, beta=0.0)

    def test_duplicating_source_batch_keeps_gradient(self):
        params, src_x, src_y, tgt_x = tiny_setup(17)
        trace1 = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED)
        g1 = backward(trace1, alpha=1.0, beta=1.0)
        trace2 = compute_losses(np.vstack([src_x, src_x]), np.concatenate([src_y, src_y]),
                                tgt_x, params, tau=0.0, sigma=FIXED)
        g2 = backward(trace2, alpha=1.0, beta=1.0)
        for a, b in zip(g1.arrays(), g2.arrays()):
            npt.assert_allclose(a, b, rtol=1e-9, atol=1e-10)

    def test_dropout_backward_exact_given_masks(self):
        # with masks captured in the trace, gradients stay exact: compare a
        # combined backward against manual recomposition through train traces
        params, src_x, src_y, tgt_x = tiny_setup(18)
        rng = np.random.default_rng(99)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED, rng=rng)
        g = backward(trace, alpha=1.0, beta=1.0)
        assert all(np.isfinite(a).all() for a in g.arrays())

    def test_trace_without_buffers_outlives_next_call(self):
        params, src_x, src_y, tgt_x = tiny_setup(22)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED)
        K, Zc = trace.K.copy(), trace.Zc.copy()
        g = backward(trace, alpha=1.0, beta=1.0)
        other = compute_losses(src_x + 1.0, src_y, tgt_x - 1.0, params, tau=0.0, sigma=FIXED)
        backward(other, alpha=1.0, beta=1.0)
        assert not np.shares_memory(trace.K, other.K)
        npt.assert_array_equal(trace.K, K)
        npt.assert_array_equal(trace.Zc, Zc)
        npt.assert_array_equal(backward(trace, alpha=1.0, beta=1.0).flat, g.flat)

    def test_deterministic_given_seed(self):
        params, src_x, src_y, tgt_x = tiny_setup(21)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED, rng=rng)
            outs.append(backward(trace, alpha=1.0, beta=1.0))
        for a, b in zip(outs[0].arrays(), outs[1].arrays()):
            npt.assert_array_equal(a, b)


class TestDegenerateSteps:
    """Degenerate alignment cases through compute_losses and backward."""

    MEDIAN = None  # median-heuristic bandwidth

    @staticmethod
    def assert_same(a: ModelParams, b: ModelParams):
        for x, y in zip(a.arrays(), b.arrays()):
            npt.assert_array_equal(x, y)

    def test_collapsed_embeddings(self):
        params, src_x, _, tgt_x = tiny_setup(24)
        # W2 = 0 maps every row to the same nonzero embedding relu(b2)
        params = ModelParams(params.W1, params.b1, np.zeros_like(params.W2),
                             np.full(4, 0.3), params.Wc, params.bc)
        labels, _ = eval_scores(tgt_x, params)
        src_y = np.full(src_x.shape[0], labels[0])  # one class, shared by both sides
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=self.MEDIAN)
        assert trace.sigma == 1.0
        assert trace.raw_l_mmd == 0.0 and trace.raw_l_cmmd == 0.0
        assert trace.kept_idx.size == tgt_x.shape[0]
        g00, g10, g01 = unit_weight_grads(trace)
        self.assert_same(g10, g00)
        self.assert_same(g01, g00)
        self.assert_same(backward(trace, 1.0, 1.0), g00)

    def test_no_class_shared_with_kept_target(self):
        params, src_x, _, tgt_x = tiny_setup(25)
        # a large class-2 bias makes every target pseudo-label 2; the source has none
        params = ModelParams(params.W1, params.b1, params.W2, params.b2, params.Wc,
                             np.array([0.0, 0.0, 30.0]))
        src_y = np.array([0, 1, 0, 1, 0])
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.5, sigma=self.MEDIAN)
        assert trace.kept_idx.size == tgt_x.shape[0]
        assert trace.raw_l_cmmd == 0.0 and trace.raw_l_mmd > 0.0
        g00, g10, g01 = unit_weight_grads(trace)
        self.assert_same(g01, g00)
        assert np.any(g10.W1 != g00.W1)

    def test_tau_one_empties_pseudo_labels(self):
        params, src_x, src_y, tgt_x = tiny_setup(26)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=1.0, sigma=self.MEDIAN)
        assert trace.kept_idx.size == 0
        assert trace.raw_l_cmmd == 0.0
        g00, _, g01 = unit_weight_grads(trace)
        self.assert_same(g01, g00)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    def test_backward_is_sum_of_parts(self, alpha, beta):
        params, src_x, src_y, tgt_x = tiny_setup(27)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=self.MEDIAN,
                               rng=np.random.default_rng(5))
        assert trace.raw_l_mmd > 0.0 and trace.raw_l_cmmd > 0.0
        expected = linear_in_weights(*unit_weight_grads(trace), alpha, beta)
        for a, b in zip(backward(trace, alpha, beta).arrays(), expected.arrays()):
            npt.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(310, 64, 64, 3, np.random.default_rng(22))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            npt.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(Exception, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_header_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(3, 2, 2, 2, np.random.default_rng(0)), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DataFormatError, match=r"model\.ckpt: truncated header"):
            load_checkpoint(path)


class TestBreakdown:
    def test_negative_residue_clamped_but_raw_kept(self):
        params, src_x, src_y, tgt_x = tiny_setup(23)
        trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=FIXED)
        trace.raw_l_mmd = -1e-15
        assert trace.l_mmd == 0.0
        assert trace.raw_l_mmd == -1e-15
        assert trace.total(1.0, 0.0) == trace.l_ds

"""Training loop: pseudo-label ops, SGD update formulas, determinism, ablations."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ddalign.data import build_run_config, train_config
from ddalign.errors import NumericsError, ValidationError
from ddalign.net import (
    LOG_CLAMP,
    ModelParams,
    _layer1,
    _scores_from_z1,
    compute_losses,
    confidence_mask,
    init_params,
)
from ddalign.schedules import alpha_at, beta_of, confidence_threshold
from ddalign.trainer import (
    VARIANTS,
    AblationFlags,
    TrainConfig,
    save_history,
    sgd_step,
    train,
)


def toy_task(seed=0, n=60, d=8, C=3, shift=1.0):
    rng = np.random.default_rng(seed)
    means = np.eye(C, d) * 3.0
    src_x = np.vstack([rng.normal(means[c], 1.0, size=(n // C, d)) for c in range(C)])
    src_y = np.repeat(np.arange(C), n // C)
    tgt_x = src_x + shift
    return src_x, src_y, tgt_x


def pseudo_labels(x, params):
    """A training step's pseudo-labels and confidences, from its layer-1 pass."""
    return _scores_from_z1(_layer1(x, params)[1], params)


def small_cfg(**kw):
    defaults = dict(
        batch_size=16, epochs=3, seed=3, n_classes=3, hidden1=8, hidden2=8,
        stage_e1=1, stage_e2=2, stage_e3=3,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestPseudoLabels:
    def test_batch_cardinality_before_filtering(self):
        params = init_params(8, 8, 8, 3, np.random.default_rng(0))
        tgt_x = np.random.default_rng(1).normal(size=(11, 8))
        labels, conf = pseudo_labels(tgt_x, params)
        assert labels.shape == conf.shape == (11,)

    def test_saturated_row_label_and_confidence(self):
        params = init_params(2, 2, 2, 3, np.random.default_rng(2))
        Wc = np.zeros((2, 3))
        Wc[:, 2] = 1000.0
        params = ModelParams(np.abs(params.W1), params.b1, np.abs(params.W2),
                             params.b2, Wc, np.zeros(3))
        labels, conf = pseudo_labels(np.array([[1.0, 1.0]]), params)
        assert labels[0] == 2
        assert conf[0] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_row_tie_breaks_to_class_zero(self):
        params = init_params(2, 2, 2, 3, np.random.default_rng(3))
        params = ModelParams(params.W1, params.b1, params.W2, params.b2,
                             np.zeros((2, 3)), np.zeros(3))
        labels, conf = pseudo_labels(np.array([[0.5, -0.5]]), params)
        assert labels[0] == 0
        assert conf[0] == pytest.approx(1 / 3, rel=1e-12)

    def test_filter_threshold_rule(self):
        conf = np.array([0.9, 0.6, 0.4])
        npt.assert_array_equal(np.flatnonzero(confidence_mask(conf, 0.75)), [0])
        assert confidence_mask(conf, 0.0).sum() == 3

    def test_tau_one_excludes_unsaturated(self):
        assert confidence_mask(np.array([0.999, 0.5, 0.9]), 1.0).sum() == 0

    def test_retention_non_increasing_in_tau(self):
        conf = np.random.default_rng(4).random(50)
        counts = [confidence_mask(conf, t).sum() for t in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestSgdStep:
    def setup_method(self):
        self.params = init_params(4, 3, 3, 2, np.random.default_rng(5))
        self.velocity = np.zeros_like(self.params.flat)

    def grads(self, value=0.1):
        return ModelParams(*(np.full_like(a, value) for a in self.params.arrays()))

    def test_plain_gradient_descent(self):
        g = self.grads(0.1)
        new, _ = sgd_step(self.params, g, self.velocity, 0.5, 0.5, momentum=0.0, weight_decay=0.0)
        for p_new, p_old, g_a in zip(new.arrays(), self.params.arrays(), g.arrays()):
            npt.assert_allclose(p_new, p_old - 0.5 * g_a, rtol=1e-12)

    def test_velocity_carries_with_zero_grad(self):
        v = np.full(self.params.flat.size, 0.2)
        new, new_v = sgd_step(self.params, self.grads(0.0), v, 0.1, 0.1,
                              momentum=0.9, weight_decay=0.0)
        npt.assert_allclose(new.flat, self.params.flat - 0.1 * 0.9 * v, rtol=1e-12)
        assert new_v.shape == v.shape and new_v.dtype == np.float64
        npt.assert_allclose(new_v, 0.9 * v, rtol=1e-12)

    def test_velocity_is_the_flat_gradient_sum(self):
        # one step from rest: v = g + wd * W, in params.flat's layout
        g = self.grads(0.1)
        _, v = sgd_step(self.params, g, self.velocity, 0.1, 0.1,
                        momentum=0.9, weight_decay=0.01)
        npt.assert_array_equal(v, g.flat)
        npt.assert_allclose(v[:self.params.W1.size], 0.1 + 0.01 * self.params.W1.ravel(),
                            rtol=1e-12)

    def test_weight_decay_shrinks_weights_only(self):
        lam = 0.01
        new, _ = sgd_step(self.params, self.grads(0.0), self.velocity, 0.1, 0.1,
                          momentum=0.0, weight_decay=lam)
        npt.assert_allclose(new.W1, self.params.W1 * (1 - 0.1 * lam), rtol=1e-12)
        npt.assert_array_equal(new.b1, self.params.b1)
        npt.assert_array_equal(new.bc, self.params.bc)

    def test_per_group_learning_rates(self):
        g = self.grads(1.0)
        new, _ = sgd_step(self.params, g, self.velocity, 0.001, 0.01,
                          momentum=0.0, weight_decay=0.0)
        npt.assert_allclose(self.params.W1 - new.W1, 0.001, rtol=1e-12)
        npt.assert_allclose(self.params.Wc - new.Wc, 0.01, rtol=1e-12)

    def test_diverging_update_is_numerics_error(self):
        g = ModelParams(*(np.full_like(a, 1e300) for a in self.params.arrays()))
        with np.errstate(over="ignore"), pytest.raises(
                NumericsError, match=r"^update diverged: W1 contains non-finite values"):
            sgd_step(self.params, g, self.velocity, 1e300, 1e300,
                     momentum=0.9, weight_decay=0.0)


class TestTrain:
    def test_baseline_has_zero_alignment_losses(self):
        src_x, src_y, tgt_x = toy_task()
        res = train(src_x, src_y, tgt_x, small_cfg(flags=VARIANTS["EXP1"]))
        assert all(rec.l_mmd == 0.0 and rec.l_cmmd == 0.0 for rec in res.history)

    def test_static_weights_recorded_as_one(self):
        src_x, src_y, tgt_x = toy_task()
        res = train(src_x, src_y, tgt_x, small_cfg(flags=VARIANTS["EXP4"]))
        assert all(rec.alpha == 1.0 and rec.beta == 1.0 for rec in res.history)

    def test_filter_disabled_keeps_full_batch(self):
        src_x, src_y, tgt_x = toy_task()
        cfg = small_cfg(flags=VARIANTS["EXP5"])
        res = train(src_x, src_y, tgt_x, cfg)
        assert all(rec.n_pseudo_retained == 16 for rec in res.history
                   if rec.step % 4 != 3)  # last chunk of 60 rows has 12 samples
        assert all(rec.n_pseudo_retained == 12 for rec in res.history
                   if rec.step % 4 == 3)

    def test_determinism_bitwise(self):
        src_x, src_y, tgt_x = toy_task(1)
        cfg1 = small_cfg(flags=VARIANTS["EXP6"])
        cfg2 = small_cfg(flags=VARIANTS["EXP6"])
        res1 = train(src_x, src_y, tgt_x, cfg1)
        res2 = train(src_x, src_y, tgt_x, cfg2)
        for a, b in zip(res1.params.arrays(), res2.params.arrays()):
            npt.assert_array_equal(a, b)
        assert res1.history[-1].l_ds == res2.history[-1].l_ds

    def test_history_totals_recompose(self):
        src_x, src_y, tgt_x = toy_task(2)
        res = train(src_x, src_y, tgt_x, small_cfg(flags=VARIANTS["EXP6"]))
        for rec in res.history:
            assert np.isfinite(rec.l_ds)
            assert rec.l_mmd >= 0 and rec.l_cmmd >= 0
            assert rec.beta in (0.0, 0.5, 1.0)

    def test_source_loss_decreases(self):
        src_x, src_y, tgt_x = toy_task(3)
        res = train(src_x, src_y, tgt_x, small_cfg(epochs=10, flags=VARIANTS["EXP1"],
                                                   stage_e1=10, stage_e2=40, stage_e3=85))
        first = np.mean([r.l_ds for r in res.history[:4]])
        last = np.mean([r.l_ds for r in res.history[-4:]])
        assert last < first

    def test_label_class_count_mismatch(self):
        src_x, src_y, tgt_x = toy_task()
        with pytest.raises(ValidationError, match="classes"):
            train(src_x, src_y, tgt_x, small_cfg(n_classes=2))

    def test_empty_target_rejected(self):
        src_x, src_y, _ = toy_task()
        with pytest.raises(ValidationError):
            train(src_x, src_y, np.empty((0, 8)), small_cfg())

    def test_source_rows_train_as_their_copy(self):
        src_x, src_y, tgt_x = toy_task(4)
        rows = np.random.default_rng(5).permutation(60)[:45]
        cfg = small_cfg(flags=VARIANTS["EXP6"])
        indexed = train(src_x, src_y, tgt_x, cfg, rows)
        copied = train(src_x[rows], src_y[rows], tgt_x, cfg)
        for a, b in zip(indexed.params.arrays(), copied.params.arrays(), strict=True):
            assert a.tobytes() == b.tobytes()
        assert indexed.history == copied.history

    @pytest.mark.parametrize("rows, message", [
        (np.array([], dtype=np.int64), "non-empty"),
        (np.array([0, 60]), r"source rows must lie in \[0, 60\)"),
        (np.array([-1, 3]), r"source rows must lie in \[0, 60\)"),
        (np.zeros((2, 2), dtype=np.int64), "non-empty"),
    ])
    def test_bad_source_rows_rejected(self, rows, message):
        src_x, src_y, tgt_x = toy_task()
        with pytest.raises(ValidationError, match=message):
            train(src_x, src_y, tgt_x, small_cfg(), rows)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.5)
        with pytest.raises(ValidationError):
            TrainConfig(weight_decay=-1e-4)

    def test_non_finite_error_names_step_and_layer(self):
        src_x, src_y, tgt_x = toy_task(8)
        src_x[:] = 1e308  # x @ W1 overflows in the first layer
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError, match=r"^step 0 \(epoch 0\): .*extractor layer 1"):
            train(src_x, src_y, tgt_x, small_cfg(flags=VARIANTS["EXP6"]))

    def test_non_finite_second_layer_names_step(self):
        # the first step's update blows the weights up; the second step's layer 2 overflows
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(40, 4)) * 1e150, rng.integers(0, 3, 40)
        cfg = TrainConfig(epochs=1, batch_size=8, hidden1=8, hidden2=8, flags=VARIANTS["EXP1"])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError,
                match=r"^step 1 \(epoch 0\): non-finite activations in extractor layer 2$"):
            train(x, y, x, cfg)

    def test_non_finite_kernel_distances_name_step_and_layer(self):
        src_x, src_y, tgt_x = toy_task(8)
        # finite activations whose squared norms overflow the kernel's Gram product
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError, match=r"^step 0 \(epoch 0\): .*kernel layer"):
            train(src_x * 1e160, src_y, tgt_x * 1e160, small_cfg(flags=VARIANTS["EXP6"]))

    def test_diverging_update_names_step(self):
        src_x, src_y, tgt_x = toy_task(9)
        cfg = small_cfg(flags=VARIANTS["EXP1"], lr_extractor=1e300, lr_classifier=1e300)
        with np.errstate(over="ignore"), pytest.raises(
                NumericsError, match=r"^step 0 \(epoch 0\): update diverged: W1 "):
            train(src_x * 1e100, src_y, tgt_x * 1e100, cfg)


class TestKernelBuffers:
    """A run writes every step's kernel intermediates into one set of buffers
    per pooled size; 300 source rows at batch 128 give N = 256 and 88."""

    @staticmethod
    def run(sigma):
        src_x, src_y, tgt_x = toy_task(10, n=300)
        return train(src_x, src_y, tgt_x,
                     small_cfg(batch_size=128, hidden2=64, sigma=sigma, flags=VARIANTS["EXP6"]))

    @pytest.mark.parametrize("sigma", [None, 2.0], ids=["median", "fixed"])
    def test_run_buffers_change_no_bit(self, sigma, monkeypatch):
        buffered = self.run(sigma)
        # every step then makes a throwaway set, as a call without buffers does
        monkeypatch.setattr("ddalign.trainer.KernelBuffers", lambda: None)
        fresh = self.run(sigma)
        npt.assert_array_equal(buffered.params.flat, fresh.params.flat)
        assert buffered.history == fresh.history

    def test_steps_of_a_run_share_kernel_memory(self, monkeypatch):
        traces = []

        def spy(*args, **kwargs):
            traces.append(compute_losses(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr("ddalign.trainer.compute_losses", spy)
        self.run(None)
        assert [t.K.shape[0] for t in traces[:4]] == [256, 256, 88, 256]
        assert np.shares_memory(traces[0].K, traces[1].K)
        assert np.shares_memory(traces[0].K, traces[3].K)  # kept past the N = 88 step
        assert not np.shares_memory(traces[1].K, traces[2].K)


# the variants whose pins make alpha and beta 1, and those whose pins make tau 0
STATIC_WEIGHTS = ["EXP1", "EXP2", "EXP3", "EXP4"]
UNFILTERED = STATIC_WEIGHTS + ["EXP5"]


def pinned(variant):
    return replace(TrainConfig(), **VARIANTS[variant].pins)


class TestVariantPins:
    @pytest.mark.parametrize("epochs", [1, 2, 12, 100])
    @pytest.mark.parametrize("variant", STATIC_WEIGHTS)
    def test_alpha_exactly_one(self, variant, epochs):
        cfg = replace(pinned(variant), epochs=epochs)
        assert all(alpha_at(e, cfg) == 1.0 for e in range(epochs))

    @pytest.mark.parametrize("variant", STATIC_WEIGHTS)
    def test_beta_one_above_any_clamped_cross_entropy(self, variant):
        assert beta_of(-math.log(LOG_CLAMP) * (1 + 1e-9), pinned(variant)) == 1.0

    @pytest.mark.parametrize("variant", UNFILTERED)
    def test_tau_zero_at_every_epoch(self, variant):
        assert all(confidence_threshold(e, pinned(variant)) == 0.0 for e in range(100))

    def test_pins_win_over_the_given_schedule(self):
        src_x, src_y, tgt_x = toy_task(6)
        given = dict(tau_l=0.5, rho0=0.2, rho1=0.3, conf1=0.6, conf2=0.7, conf3=0.8)
        ran = train(src_x, src_y, tgt_x, small_cfg(flags=VARIANTS["EXP4"], **given))
        plain = train(src_x, src_y, tgt_x, small_cfg(flags=VARIANTS["EXP4"]))
        assert ran.history == plain.history
        for a, b in zip(ran.params.arrays(), plain.params.arrays()):
            npt.assert_array_equal(a, b)


class TestPercentStages:
    def test_short_preset_exp6_filters_at_every_stage(self):
        # 10 epochs with stages at 10/40/85 percent: tau 0, then 0.5, 0.75 and 1
        overrides = {"variant": "EXP6", "preset": "short", "hidden1": 8, "hidden2": 8}
        src_x, src_y, tgt_x = toy_task(5)
        res = train(src_x, src_y, tgt_x, train_config(build_run_config(overrides=overrides)))
        taus = {r.epoch: r.tau for r in res.history}
        assert [taus[e] for e in range(10)] == [0.0, 0.5, 0.5, 0.5] + [0.75] * 5 + [1.0]


class TestHistoryFile:
    def test_csv_round_trip_columns(self, tmp_path):
        src_x, src_y, tgt_x = toy_task(4)
        res = train(src_x, src_y, tgt_x, small_cfg())
        path = tmp_path / "history.csv"
        save_history(res.history, path)
        rows = path.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["step", "epoch", "l_ds", "l_mmd", "l_cmmd",
                          "alpha", "beta", "tau", "lr", "n_pseudo_retained"]
        assert len(rows) == len(res.history) + 1
        first = rows[1].split(",")
        assert int(first[0]) == 0
        assert float(first[2]) == pytest.approx(res.history[0].l_ds, rel=1e-10)

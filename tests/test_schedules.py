"""Schedule functions: exact table values, endpoints, and monotonicity."""

from dataclasses import replace

import pytest

from ddalign.errors import ValidationError
from ddalign.schedules import alpha_at, beta_of, confidence_threshold, learning_rates
from ddalign.trainer import TrainConfig

CFG = TrainConfig()  # 100 epochs; other run lengths come from replace(CFG, epochs=E)


class TestAlpha:
    def test_endpoints(self):
        assert alpha_at(0, CFG) == 1.0
        assert alpha_at(99, CFG) == pytest.approx(0.01, abs=1e-15)

    def test_midpoint_interpolation(self):
        # epoch 49 of 0..99: 1 - 0.99 * 49/99
        assert alpha_at(49, CFG) == pytest.approx(0.51, rel=1e-12)

    def test_monotone_non_increasing(self):
        vals = [alpha_at(e, CFG) for e in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_epoch(self):
        with pytest.raises(ValidationError):
            alpha_at(100, CFG)

    def test_single_epoch_run(self):
        assert alpha_at(0, replace(CFG, epochs=1)) == 1.0


class TestBeta:
    def test_branch_values(self):
        assert beta_of(0.05, CFG) == 1.0
        assert beta_of(0.12, CFG) == 0.5
        assert beta_of(0.20, CFG) == 0.0

    def test_half_open_boundaries(self):
        assert beta_of(0.1, CFG) == 0.5
        assert beta_of(0.15, CFG) == 0.0

    def test_non_increasing_step_with_image(self):
        losses = [i / 1000 for i in range(0, 400)]
        vals = [beta_of(l, CFG) for l in losses]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert set(vals) == {0.0, 0.5, 1.0}

    def test_negative_loss_rejected(self):
        with pytest.raises(ValidationError):
            beta_of(-0.1, CFG)


class TestConfidenceThreshold:
    def test_stage_table(self):
        assert confidence_threshold(5, CFG) == 0.0
        assert confidence_threshold(20, CFG) == 0.5
        assert confidence_threshold(50, CFG) == 0.75
        assert confidence_threshold(90, CFG) == 1.0

    def test_stage_boundaries(self):
        assert confidence_threshold(9, CFG) == 0.0
        assert confidence_threshold(10, CFG) == 0.5
        assert confidence_threshold(39, CFG) == 0.5
        assert confidence_threshold(40, CFG) == 0.75
        assert confidence_threshold(85, CFG) == 0.75  # last stage end inclusive
        assert confidence_threshold(86, CFG) == 1.0

    # default stages end at 10, 40 and 85 percent of the run
    @pytest.mark.parametrize("epochs, table", [
        (1, [0.0]),
        (2, [0.0, 0.75]),
        (10, [0.0] + [0.5] * 3 + [0.75] * 5 + [1.0]),
        (12, [0.0] * 2 + [0.5] * 3 + [0.75] * 6 + [1.0]),
        (100, [0.0] * 10 + [0.5] * 30 + [0.75] * 46 + [1.0] * 14),
    ])
    def test_table_per_run_length(self, epochs, table):
        cfg = replace(CFG, epochs=epochs)
        assert [confidence_threshold(e, cfg) for e in range(epochs)] == table

    def test_monotone_non_decreasing(self):
        for epochs in (1, 2, 3, 7, 10, 12, 100, 250):
            cfg = replace(CFG, epochs=epochs)
            vals = [confidence_threshold(e, cfg) for e in range(epochs)]
            assert all(a <= b for a, b in zip(vals, vals[1:])), epochs

    @pytest.mark.parametrize("epoch", [-1, 10])
    def test_epoch_outside_the_run_rejected(self, epoch):
        with pytest.raises(ValidationError, match=rf"epoch {epoch} outside \[0, 10\)"):
            confidence_threshold(epoch, replace(CFG, epochs=10))

    def test_custom_mid_stage_values(self):
        cfg = TrainConfig(conf1=0.4, conf2=0.95)
        assert confidence_threshold(20, cfg) == 0.4
        assert confidence_threshold(60, cfg) == 0.95

    def test_last_stage_is_conf3(self):
        cfg = TrainConfig(conf3=0.9)
        assert confidence_threshold(85, cfg) == 0.75
        assert confidence_threshold(86, cfg) == 0.9


class TestLearningRate:
    def test_progress_zero_is_base(self):
        assert learning_rates(0, CFG) == (CFG.lr_extractor, CFG.lr_classifier)

    def test_full_progress(self):
        # epoch == epochs lies past the run, like alpha_at's and tau's last epoch
        with pytest.raises(ValidationError, match=r"epoch 100 outside \[0, 100\)"):
            learning_rates(100, CFG)
        with pytest.raises(ValidationError, match=r"epoch -1 outside \[0, 100\)"):
            learning_rates(-1, CFG)

    def test_last_epoch(self):
        # 0.01 / 10.9^0.75
        assert learning_rates(99, CFG)[1] == pytest.approx(0.01 / 10.9**0.75, rel=1e-12)

    def test_half_progress(self):
        # 0.001 / 6^0.75
        assert learning_rates(50, CFG)[0] == pytest.approx(0.000261, rel=1e-3)

    def test_strictly_decreasing(self):
        vals = [learning_rates(e, CFG)[0] for e in range(100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("epoch", [0, 20, 99])
    def test_both_groups_follow_the_anneal(self, epoch):
        p = epoch / CFG.epochs
        assert learning_rates(epoch, CFG) == (CFG.lr_extractor / (1 + 10 * p) ** 0.75,
                                              CFG.lr_classifier / (1 + 10 * p) ** 0.75)


class TestConfigAndState:
    def test_epoch_values_from_one_config(self):
        # epoch 20 of 100: alpha 1 - 0.99 * 20/99, second tau stage, progress 0.2
        assert alpha_at(20, CFG) == pytest.approx(1 - 0.99 * 20 / 99, rel=1e-12)
        assert confidence_threshold(20, CFG) == 0.5
        ext, cls = learning_rates(20, CFG)
        assert ext == pytest.approx(0.001 / 3**0.75, rel=1e-12)
        assert cls == pytest.approx(0.01 / 3**0.75, rel=1e-12)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(tau_h=0.01, tau_l=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(rho0=0.2, rho1=0.1)
        with pytest.raises(ValidationError):
            TrainConfig(stage_e1=40, stage_e2=10, stage_e3=85)
        with pytest.raises(ValidationError, match="stage_e3 < 100"):
            TrainConfig(stage_e3=100)
        with pytest.raises(ValidationError):
            TrainConfig(conf1=0.8, conf2=0.5)
        with pytest.raises(ValidationError, match="conf2 <= conf3"):
            TrainConfig(conf2=0.75, conf3=0.7)
        with pytest.raises(ValidationError, match="conf3 <= 1"):
            TrainConfig(conf3=1.5)

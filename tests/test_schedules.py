"""Schedule functions: exact table values, endpoints, and monotonicity."""

import pytest

from ddalign.errors import ValidationError
from ddalign.schedules import (
    ScheduleConfig,
    alpha_at,
    beta_of,
    confidence_threshold,
    learning_rate,
)

CFG = ScheduleConfig()


class TestAlpha:
    def test_endpoints(self):
        assert alpha_at(0, 100, CFG) == 1.0
        assert alpha_at(99, 100, CFG) == pytest.approx(0.01, abs=1e-15)

    def test_midpoint_interpolation(self):
        # epoch 49 of 0..99: 1 - 0.99 * 49/99
        assert alpha_at(49, 100, CFG) == pytest.approx(0.51, rel=1e-12)

    def test_monotone_non_increasing(self):
        vals = [alpha_at(e, 100, CFG) for e in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_epoch(self):
        with pytest.raises(ValidationError):
            alpha_at(100, 100, CFG)

    def test_single_epoch_run(self):
        assert alpha_at(0, 1, CFG) == 1.0


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
        assert confidence_threshold(5, 100, CFG) == 0.0
        assert confidence_threshold(20, 100, CFG) == 0.5
        assert confidence_threshold(50, 100, CFG) == 0.75
        assert confidence_threshold(90, 100, CFG) == 1.0

    def test_stage_boundaries(self):
        assert confidence_threshold(9, 100, CFG) == 0.0
        assert confidence_threshold(10, 100, CFG) == 0.5
        assert confidence_threshold(39, 100, CFG) == 0.5
        assert confidence_threshold(40, 100, CFG) == 0.75
        assert confidence_threshold(85, 100, CFG) == 0.75  # last stage end inclusive
        assert confidence_threshold(86, 100, CFG) == 1.0

    # default stages end at 10, 40 and 85 percent of the run
    @pytest.mark.parametrize("epochs, table", [
        (1, [0.0]),
        (2, [0.0, 0.75]),
        (10, [0.0] + [0.5] * 3 + [0.75] * 5 + [1.0]),
        (12, [0.0] * 2 + [0.5] * 3 + [0.75] * 6 + [1.0]),
        (100, [0.0] * 10 + [0.5] * 30 + [0.75] * 46 + [1.0] * 14),
    ])
    def test_table_per_run_length(self, epochs, table):
        assert [confidence_threshold(e, epochs, CFG) for e in range(epochs)] == table

    def test_monotone_non_decreasing(self):
        for epochs in (1, 2, 3, 7, 10, 12, 100, 250):
            vals = [confidence_threshold(e, epochs, CFG) for e in range(epochs)]
            assert all(a <= b for a, b in zip(vals, vals[1:])), epochs

    @pytest.mark.parametrize("epoch", [-1, 10])
    def test_epoch_outside_the_run_rejected(self, epoch):
        with pytest.raises(ValidationError, match=rf"epoch {epoch} outside \[0, 10\)"):
            confidence_threshold(epoch, 10, CFG)

    def test_custom_mid_stage_values(self):
        cfg = ScheduleConfig(conf1=0.4, conf2=0.95)
        assert confidence_threshold(20, 100, cfg) == 0.4
        assert confidence_threshold(60, 100, cfg) == 0.95

    def test_last_stage_is_conf3(self):
        cfg = ScheduleConfig(conf3=0.9)
        assert confidence_threshold(85, 100, cfg) == 0.75
        assert confidence_threshold(86, 100, cfg) == 0.9


class TestLearningRate:
    def test_progress_zero_is_base(self):
        assert learning_rate(0, 100, 0.01) == 0.01

    def test_full_progress(self):
        # epoch == epochs lies past the run, like alpha_at's and tau's last epoch
        with pytest.raises(ValidationError, match=r"epoch 100 outside \[0, 100\)"):
            learning_rate(100, 100, 0.01)
        with pytest.raises(ValidationError, match=r"epoch -1 outside \[0, 100\)"):
            learning_rate(-1, 100, 0.01)

    def test_last_epoch(self):
        # 0.01 / 10.9^0.75
        assert learning_rate(99, 100, 0.01) == pytest.approx(0.01 / 10.9**0.75, rel=1e-12)

    def test_half_progress(self):
        # 0.001 / 6^0.75
        assert learning_rate(50, 100, 0.001) == pytest.approx(0.000261, rel=1e-3)

    def test_strictly_decreasing(self):
        vals = [learning_rate(e, 100, 0.001) for e in range(100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_run_without_epochs_rejected(self):
        with pytest.raises(ValidationError, match="epochs must be >= 1"):
            learning_rate(0, 0, 0.01)
        with pytest.raises(ValidationError):
            alpha_at(0, 0, CFG)


class TestConfigAndState:
    def test_epoch_values_from_one_config(self):
        # epoch 20 of 100: alpha 1 - 0.99 * 20/99, second tau stage, progress 0.2
        assert alpha_at(20, 100, CFG) == pytest.approx(1 - 0.99 * 20 / 99, rel=1e-12)
        assert confidence_threshold(20, 100, CFG) == 0.5
        assert learning_rate(20, 100, CFG.lr_extractor) == pytest.approx(0.001 / 3**0.75, rel=1e-12)
        assert learning_rate(20, 100, CFG.lr_classifier) == pytest.approx(0.01 / 3**0.75, rel=1e-12)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValidationError):
            ScheduleConfig(tau_h=0.01, tau_l=1.0)
        with pytest.raises(ValidationError):
            ScheduleConfig(rho0=0.2, rho1=0.1)
        with pytest.raises(ValidationError):
            ScheduleConfig(stage_e1=40, stage_e2=10, stage_e3=85)
        with pytest.raises(ValidationError, match="stage_e3 < 100"):
            ScheduleConfig(stage_e3=100)
        with pytest.raises(ValidationError):
            ScheduleConfig(conf1=0.8, conf2=0.5)
        with pytest.raises(ValidationError, match="conf2 <= conf3"):
            ScheduleConfig(conf2=0.75, conf3=0.7)
        with pytest.raises(ValidationError, match="conf3 <= 1"):
            ScheduleConfig(conf3=1.5)

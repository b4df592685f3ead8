"""Training-time scalar schedules.

Four quantities evolve over a run: the marginal-alignment weight alpha decays
from ``tau_h`` to ``tau_l``; the conditional-alignment weight beta is a step
function of the current source classification loss; the pseudo-label
confidence threshold tau rises through staged plateaus; and the per-group
learning rates anneal as base / (1 + 10 p)^0.75 with progress p.
"""

from dataclasses import dataclass

from .errors import ValidationError, require_finite

LR_ANNEAL_GAIN = 10.0
LR_ANNEAL_POWER = 0.75


@dataclass(frozen=True)
class ScheduleConfig:
    tau_h: float = 1.0        # alpha at epoch 0
    tau_l: float = 0.01       # alpha at the final epoch
    rho0: float = 0.1         # beta breakpoints on the source loss
    rho1: float = 0.15
    stage_e1: int = 10        # confidence-threshold stage ends, in percent of the run
    stage_e2: int = 40
    stage_e3: int = 85
    conf1: float = 0.5        # tau over [stage_e1, stage_e2)
    conf2: float = 0.75       # tau over [stage_e2, stage_e3]
    conf3: float = 1.0        # tau after stage_e3
    lr_extractor: float = 0.001
    lr_classifier: float = 0.01

    def __post_init__(self):
        if not (self.tau_h >= self.tau_l > 0):
            raise ValidationError("need tau_h >= tau_l > 0")
        if not (0 < self.rho0 < self.rho1):
            raise ValidationError("need 0 < rho0 < rho1")
        if not (0 <= self.stage_e1 < self.stage_e2 < self.stage_e3 < 100):
            raise ValidationError("need 0 <= stage_e1 < stage_e2 < stage_e3 < 100")
        if not (0 <= self.conf1 <= self.conf2 <= self.conf3 <= 1):
            raise ValidationError("need 0 <= conf1 <= conf2 <= conf3 <= 1")
        for name in ("lr_extractor", "lr_classifier"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        require_finite(self)


def _check_epoch(epoch: int, epochs: int) -> None:
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if not 0 <= epoch < epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {epochs})")


def alpha_at(epoch: int, epochs: int, cfg: ScheduleConfig) -> float:
    """Marginal-alignment weight: tau_h at epoch 0 down to tau_l at the last of
    ``epochs`` epochs."""
    _check_epoch(epoch, epochs)
    if epochs == 1:
        return cfg.tau_h
    return cfg.tau_h + (cfg.tau_l - cfg.tau_h) * (epoch / (epochs - 1))


def beta_of(l_ds: float, cfg: ScheduleConfig) -> float:
    """Conditional-alignment weight from the current source loss.

    Full weight once the classifier is good (loss below rho0), half weight in
    the transition band, zero while the classifier is still poor. Boundaries
    follow the half-open convention [rho0, rho1).
    """
    if l_ds < 0:
        raise ValidationError("source loss cannot be negative")
    if l_ds < cfg.rho0:
        return 1.0
    if l_ds < cfg.rho1:
        return 0.5
    return 0.0


def confidence_threshold(epoch: int, epochs: int, cfg: ScheduleConfig) -> float:
    """Staged pseudo-label confidence floor: 0 before stage_e1 percent of the
    run, then conf1, then conf2 up to stage_e3 percent inclusive, then conf3.
    Integer comparisons, so 100 epochs give the stage ends as epoch numbers."""
    _check_epoch(epoch, epochs)
    at = 100 * epoch
    if at < cfg.stage_e1 * epochs:
        return 0.0
    if at < cfg.stage_e2 * epochs:
        return cfg.conf1
    if at <= cfg.stage_e3 * epochs:
        return cfg.conf2
    return cfg.conf3


def learning_rate(epoch: int, epochs: int, base_lr: float) -> float:
    """base_lr / (1 + 10 p)^0.75 with progress p = epoch / epochs."""
    _check_epoch(epoch, epochs)
    p = epoch / epochs
    return base_lr / (1.0 + LR_ANNEAL_GAIN * p) ** LR_ANNEAL_POWER


"""Training-time scalar schedules.

Four quantities evolve over a run: the marginal-alignment weight alpha decays
from ``tau_h`` to ``tau_l``; the conditional-alignment weight beta is a step
function of the current source classification loss; the pseudo-label
confidence threshold tau rises through staged plateaus; and the per-group
learning rates anneal as base / (1 + 10 p)^0.75 with progress p.
"""

from dataclasses import dataclass

from .errors import ValidationError

LR_ANNEAL_GAIN = 10.0
LR_ANNEAL_POWER = 0.75


@dataclass(frozen=True)
class ScheduleConfig:
    tau_h: float = 1.0        # alpha at epoch 0
    tau_l: float = 0.01       # alpha at the final epoch
    rho0: float = 0.1         # beta breakpoints on the source loss
    rho1: float = 0.15
    stage_epochs: tuple[int, int, int] = (10, 40, 85)
    stage_taus: tuple[float, float, float, float] = (0.0, 0.5, 0.75, 1.0)
    lr_extractor: float = 0.001
    lr_classifier: float = 0.01
    alpha_decay: str = "linear"  # or "exponential"

    def __post_init__(self):
        if not (self.tau_h >= self.tau_l > 0):
            raise ValidationError("need tau_h >= tau_l > 0")
        if not (0 < self.rho0 < self.rho1):
            raise ValidationError("need 0 < rho0 < rho1")
        e1, e2, e3 = self.stage_epochs
        if not (0 <= e1 < e2 < e3):
            raise ValidationError("stage_epochs must be strictly increasing")
        c0, c1, c2, c3 = self.stage_taus
        if not (0 <= c0 <= c1 <= c2 <= c3 <= 1):
            raise ValidationError("stage_taus must be non-decreasing within [0, 1]")
        if self.lr_extractor <= 0 or self.lr_classifier <= 0:
            raise ValidationError("learning rates must be positive")
        if self.alpha_decay not in ("linear", "exponential"):
            raise ValidationError(f"unknown alpha_decay {self.alpha_decay!r}")


def alpha_at(epoch: int, epochs: int, cfg: ScheduleConfig) -> float:
    """Marginal-alignment weight: tau_h at epoch 0 down to tau_l at the last of
    ``epochs`` epochs."""
    if not 0 <= epoch < epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {epochs})")
    if epochs == 1:
        return cfg.tau_h
    p = epoch / (epochs - 1)
    if cfg.alpha_decay == "linear":
        return cfg.tau_h + (cfg.tau_l - cfg.tau_h) * p
    return cfg.tau_h * (cfg.tau_l / cfg.tau_h) ** p


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


def confidence_threshold(epoch: int, cfg: ScheduleConfig) -> float:
    """Staged pseudo-label confidence floor; the last stage end is inclusive."""
    if epoch < 0:
        raise ValidationError("epoch must be >= 0")
    e1, e2, e3 = cfg.stage_epochs
    c0, c1, c2, c3 = cfg.stage_taus
    if epoch < e1:
        return c0
    if epoch < e2:
        return c1
    if epoch <= e3:
        return c2
    return c3


def learning_rate(epoch: int, epochs: int, base_lr: float) -> float:
    """base_lr / (1 + 10 p)^0.75 with progress p = epoch / epochs."""
    if epoch < 0:
        raise ValidationError("epoch must be >= 0")
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    p = epoch / epochs
    return base_lr / (1.0 + LR_ANNEAL_GAIN * p) ** LR_ANNEAL_POWER


"""Training-time scalar schedules.

Four quantities evolve over a run: the marginal-alignment weight alpha decays
from ``tau_h`` to ``tau_l``; the conditional-alignment weight beta is a step
function of the current source classification loss; the pseudo-label
confidence threshold tau rises through staged plateaus; and the per-group
learning rates anneal as base / (1 + 10 p)^0.75 with progress p. Their
settings and the run length they span are fields of the run's TrainConfig,
which training reads with the variant's pins applied.
"""

from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainConfig

LR_ANNEAL_GAIN = 10.0
LR_ANNEAL_POWER = 0.75


def _check_epoch(epoch: int, cfg: "TrainConfig") -> None:
    if not 0 <= epoch < cfg.epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {cfg.epochs})")


def alpha_at(epoch: int, cfg: "TrainConfig") -> float:
    """Marginal-alignment weight: tau_h at epoch 0 down to tau_l at the last
    epoch of the run."""
    _check_epoch(epoch, cfg)
    if cfg.epochs == 1:
        return cfg.tau_h
    return cfg.tau_h + (cfg.tau_l - cfg.tau_h) * (epoch / (cfg.epochs - 1))


def beta_of(l_ds: float, cfg: "TrainConfig") -> float:
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


def confidence_threshold(epoch: int, cfg: "TrainConfig") -> float:
    """Staged pseudo-label confidence floor: 0 before stage_e1 percent of the
    run, then conf1, then conf2 up to stage_e3 percent inclusive, then conf3.
    Integer comparisons, so 100 epochs give the stage ends as epoch numbers."""
    _check_epoch(epoch, cfg)
    at = 100 * epoch
    if at < cfg.stage_e1 * cfg.epochs:
        return 0.0
    if at < cfg.stage_e2 * cfg.epochs:
        return cfg.conf1
    if at <= cfg.stage_e3 * cfg.epochs:
        return cfg.conf2
    return cfg.conf3


def learning_rates(epoch: int, cfg: "TrainConfig") -> tuple[float, float]:
    """(extractor, classifier) rates: base / (1 + 10 p)^0.75 with progress
    p = epoch / epochs."""
    _check_epoch(epoch, cfg)
    anneal = (1.0 + LR_ANNEAL_GAIN * (epoch / cfg.epochs)) ** LR_ANNEAL_POWER
    return cfg.lr_extractor / anneal, cfg.lr_classifier / anneal

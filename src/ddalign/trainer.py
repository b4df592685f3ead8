"""The training loop: paired mini-batches, pseudo-label filtering, momentum SGD.

Each epoch reshuffles the labeled source set; the unlabeled target set is
drawn from an independently seeded shuffled cycle so both sides always supply
a batch. Per step the loop resolves the schedule scalars, runs the forward
pass, derives the conditional-term weight from the current source loss, takes
one momentum-SGD step with L2 decay on the weight matrices, and appends a
history record. Two runs with the same config, seed, and data produce
bit-identical parameter trajectories.
"""

import csv
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import NumericsError, ValidationError, require_finite
from .kernels import KernelBuffers
from .net import ModelParams, backward, compute_losses, init_params
from .schedules import alpha_at, beta_of, confidence_threshold, learning_rates

@dataclass(frozen=True)
class AblationFlags:
    use_mmd: bool = True
    use_cmmd: bool = True
    pins: dict = field(default_factory=dict)  # TrainConfig values that win over given ones


# static weights: alpha is 1.0 at every epoch, and beta is 1.0 as rho0 lies above
# -ln(net.LOG_CLAMP) ~ 27.63, which no clamped cross-entropy exceeds
_STATIC_WEIGHTS = {"tau_h": 1.0, "tau_l": 1.0, "rho0": 28.0, "rho1": 29.0}
_NO_FILTER = {"conf1": 0.0, "conf2": 0.0, "conf3": 0.0}  # tau 0 keeps every pseudo-label

# incremental variants from bare classifier to the full method
VARIANTS = {
    "EXP1": AblationFlags(False, False, {**_STATIC_WEIGHTS, **_NO_FILTER}),
    "EXP2": AblationFlags(True, False, {**_STATIC_WEIGHTS, **_NO_FILTER}),
    "EXP3": AblationFlags(False, True, {**_STATIC_WEIGHTS, **_NO_FILTER}),
    "EXP4": AblationFlags(True, True, {**_STATIC_WEIGHTS, **_NO_FILTER}),
    "EXP5": AblationFlags(True, True, _NO_FILTER),
    "EXP6": AblationFlags(True, True),
}


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 100
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 3
    n_classes: int = 3
    hidden1: int = 64
    hidden2: int = 64
    sigma: float | None = None  # kernel bandwidth; None: median heuristic per step
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
    flags: AblationFlags = field(default_factory=AblationFlags)

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ValidationError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.n_classes < 1:
            raise ValidationError("n_classes must be >= 1")
        for name in ("hidden1", "hidden2"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.sigma is not None and not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"sigma must be finite and > 0, got {self.sigma}")
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


@dataclass
class StepRecord:
    step: int
    epoch: int
    l_ds: float
    l_mmd: float
    l_cmmd: float
    alpha: float
    beta: float
    tau: float
    lr: float                # extractor-group rate; classifier uses the same anneal
    n_pseudo_retained: int


@dataclass
class TrainResult:
    params: ModelParams
    history: list[StepRecord]


def sgd_step(
    params: ModelParams,
    grads: ModelParams,
    velocity: np.ndarray,
    lr_extractor: float,
    lr_classifier: float,
    momentum: float,
    weight_decay: float,
) -> tuple[ModelParams, np.ndarray]:
    """v <- momentum v + (grad + wd * param); param <- param - lr v.

    The velocity is a float64 vector laid out like ``params.flat``. Decay
    applies to weight matrices only, never biases, and is added into grads in
    place; the extractor and classifier groups carry their own learning rates.
    Returns the new parameters and the new velocity; an update that overflows
    raises a NumericsError naming the parameter.
    """
    if weight_decay > 0:
        for g, p in ((grads.W1, params.W1), (grads.W2, params.W2), (grads.Wc, params.Wc)):
            g += weight_decay * p
    v = momentum * velocity
    v += grads.flat
    step = np.empty_like(v)
    n = params.extractor_size
    np.multiply(lr_extractor, v[:n], out=step[:n])
    np.multiply(lr_classifier, v[n:], out=step[n:])
    new_params = params.like(np.subtract(params.flat, step, out=step))
    # a non-finite velocity always leaves a non-finite parameter (0 * inf is nan)
    bad = new_params.nonfinite_field()
    if bad:
        raise NumericsError(f"update diverged: {bad} contains non-finite values")
    return new_params, v


class _TargetCycle:
    """Endless stream of target indices from an independently seeded shuffle."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.buffer = np.empty(0, dtype=np.int64)

    def take(self, k: int) -> np.ndarray:
        while self.buffer.shape[0] < k:
            self.buffer = np.concatenate([self.buffer, self.rng.permutation(self.n)])
        out, self.buffer = self.buffer[:k], self.buffer[k:]
        return out


def train(
    src_x: np.ndarray,
    src_y: np.ndarray,
    tgt_x: np.ndarray,
    cfg: TrainConfig,
    src_rows: np.ndarray | None = None,
) -> TrainResult:
    """Full training run; returns final parameters and the per-step history.

    The source set is the ``src_rows`` of ``src_x`` and ``src_y`` in that
    order (default every row); each batch gathers its rows from them, so a
    subset costs an index, not a copy. ``src_y`` must label every row."""
    src_x = np.asarray(src_x, dtype=np.float64)
    src_y = np.asarray(src_y, dtype=np.int64)
    tgt_x = np.asarray(tgt_x, dtype=np.float64)
    if src_x.ndim != 2:
        raise ValidationError("source set must be a non-empty [n, d] matrix")
    rows = (np.arange(src_x.shape[0]) if src_rows is None
            else np.asarray(src_rows, dtype=np.int64))
    if rows.ndim != 1 or rows.size == 0:
        raise ValidationError("source set must be a non-empty [n, d] matrix")
    if rows.min() < 0 or rows.max() >= src_x.shape[0]:
        raise ValidationError(f"source rows must lie in [0, {src_x.shape[0]})")
    if src_y.shape != (src_x.shape[0],):
        raise ValidationError("source labels must match source rows")
    if tgt_x.ndim != 2 or tgt_x.shape[0] == 0:
        raise ValidationError("target set must be a non-empty [m, d] matrix")
    if tgt_x.shape[1] != src_x.shape[1]:
        raise ValidationError("source and target feature dimensions differ")
    if src_y.min() < 0 or src_y.max() >= cfg.n_classes:
        raise ValidationError(
            f"labels span [{src_y.min()}, {src_y.max()}], config says {cfg.n_classes} classes"
        )

    init_rng, shuffle_rng, target_rng, dropout_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(4)
    )
    params = init_params(src_x.shape[1], cfg.hidden1, cfg.hidden2, cfg.n_classes, init_rng)
    velocity = np.zeros_like(params.flat)
    targets = _TargetCycle(tgt_x.shape[0], target_rng)
    buffers = KernelBuffers()  # one set for every step: no fresh [N, N] memory per step
    flags = cfg.flags
    aligns = flags.use_mmd or flags.use_cmmd  # only the alignment heads read a target batch
    cfg = replace(cfg, **flags.pins)

    history: list[StepRecord] = []
    step = 0
    for epoch in range(cfg.epochs):
        alpha = alpha_at(epoch, cfg)
        tau = confidence_threshold(epoch, cfg)
        lr_ext, lr_cls = learning_rates(epoch, cfg)
        order = shuffle_rng.permutation(rows.shape[0])
        for start in range(0, order.shape[0], cfg.batch_size):
            batch = rows[order[start:start + cfg.batch_size]]
            n = batch.shape[0]
            # both batches side by side in one matrix, [source; target], which
            # the extractor reads in place; the indices are in range, and
            # "clip" lets take write straight into x
            x = buffers.get("batch", (2 * n if aligns else n, src_x.shape[1]))
            src_x.take(batch, axis=0, out=x[:n], mode="clip")
            if aligns:
                tgt_x.take(targets.take(n), axis=0, out=x[n:], mode="clip")
            try:
                trace = compute_losses(
                    x, src_y[batch], params, tau, cfg.sigma,
                    dropout_rng, use_mmd=flags.use_mmd, use_cmmd=flags.use_cmmd,
                    buffers=buffers,
                )
                beta = beta_of(trace.l_ds, cfg)
                if not np.isfinite(trace.total(alpha, beta)):
                    raise NumericsError("non-finite loss")
                grads = backward(trace, alpha, beta)
                params, velocity = sgd_step(
                    params, grads, velocity, lr_ext, lr_cls, cfg.momentum, cfg.weight_decay
                )
            except NumericsError as err:
                raise NumericsError(f"step {step} (epoch {epoch}): {err}") from err
            history.append(StepRecord(
                step=step, epoch=epoch,
                l_ds=trace.l_ds, l_mmd=trace.l_mmd, l_cmmd=trace.l_cmmd,
                alpha=alpha, beta=beta, tau=tau, lr=lr_ext,
                n_pseudo_retained=int(trace.kept_idx.size),
            ))
            step += 1
            # gone before the next step allocates its pass, which then reuses
            # this step's memory: with two traces alive, glibc grew and trimmed
            # the heap around them, about 40 minor page faults a step
            del trace
    return TrainResult(params=params, history=history)


# one history column per StepRecord field: its name and its format spec
_HISTORY_FORMATS = {f.name: ".12g" if f.type is float else "" for f in fields(StepRecord)}


def save_history(history: list[StepRecord], path) -> None:
    """Per-step trace as CSV with one row per optimizer step."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_HISTORY_FORMATS)
        for rec in history:
            writer.writerow([format(getattr(rec, name), spec)
                             for name, spec in _HISTORY_FORMATS.items()])

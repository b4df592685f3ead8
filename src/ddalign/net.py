"""The differentiable model: two dense extractor layers, a softmax head, the
three-part training loss, and exact reverse-mode gradients.

Layout per batch row: input -> ReLU(x W1 + b1) -> dropout -> ReLU(. W2 + b2)
-> dropout -> 64-dim embedding h -> softmax(h Wc + bc). The source batch
contributes a cross-entropy term; the marginal and class-conditional kernel
statistics act on the embeddings of both batches. Pseudo-label choices, the
confidence mask, and the kernel bandwidth are constants of a step: no
gradient flows through them. Both kernel statistics share one pooled Gram
matrix per step, which the backward pass reuses. Everything is float64
numpy; dropout is the inverted kind so evaluation applies no scaling.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericsError, ValidationError

DROPOUT_P = 0.25
LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class ModelParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wc: np.ndarray
    bc: np.ndarray

    def __post_init__(self):
        d, h1 = self.W1.shape
        h2 = self.W2.shape[1]
        c = self.Wc.shape[1]
        shapes = {
            "b1": (self.b1.shape, (h1,)),
            "W2": (self.W2.shape, (h1, h2)),
            "b2": (self.b2.shape, (h2,)),
            "Wc": (self.Wc.shape, (h2, c)),
            "bc": (self.bc.shape, (c,)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
                raise ValidationError(f"{name} has shape {got}, expected {want}")
        for name in ("W1", "b1", "W2", "b2", "Wc", "bc"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name} contains non-finite values")

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.Wc.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.W1, self.b1, self.W2, self.b2, self.Wc, self.bc)


def init_params(
    input_dim: int, hidden1: int, hidden2: int, n_classes: int, rng: np.random.Generator
) -> ModelParams:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""

    def layer(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return ModelParams(
        W1=layer(input_dim, hidden1),
        b1=np.zeros(hidden1),
        W2=layer(hidden1, hidden2),
        b2=np.zeros(hidden2),
        Wc=layer(hidden2, n_classes),
        bc=np.zeros(n_classes),
    )


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(*(np.zeros_like(a) for a in params.arrays()))


def parameter_count(params: ModelParams) -> int:
    """Exact number of scalar parameters."""
    return sum(a.size for a in params.arrays())


@dataclass
class FeatureTrace:
    """Intermediates of one extractor pass, kept for the backward sweep."""

    x: np.ndarray
    z1: np.ndarray
    d1: np.ndarray       # ReLU(z1) with dropout mask applied
    z2: np.ndarray
    h: np.ndarray        # ReLU(z2) with dropout mask applied
    m1: np.ndarray | None  # scaled masks, None in eval mode
    m2: np.ndarray | None


def forward_features(
    x: np.ndarray,
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, FeatureTrace]:
    """Embed a batch; train mode applies inverted dropout after each layer."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValidationError(
            f"input batch has shape {x.shape}, expected [B, {params.input_dim}]"
        )
    if train and rng is None:
        raise ValidationError("train-mode forward needs an rng for dropout")

    def mask(shape):
        return (rng.random(shape) >= DROPOUT_P) / (1.0 - DROPOUT_P)

    z1 = x @ params.W1 + params.b1
    if not np.isfinite(z1).all():
        raise NumericsError("non-finite activations in extractor layer 1")
    a1 = np.maximum(z1, 0.0)
    m1 = mask(a1.shape) if train else None
    d1 = a1 * m1 if train else a1
    z2 = d1 @ params.W2 + params.b2
    if not np.isfinite(z2).all():
        raise NumericsError("non-finite activations in extractor layer 2")
    a2 = np.maximum(z2, 0.0)
    m2 = mask(a2.shape) if train else None
    h = a2 * m2 if train else a2
    return h, FeatureTrace(x=x, z1=z1, d1=d1, z2=z2, h=h, m1=m1, m2=m2)


def forward_logits(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Row-wise softmax over the classifier head; rows sum to one."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.Wc.shape[0]:
        raise ValidationError(f"embedding batch has shape {h.shape}, expected [B, {params.Wc.shape[0]}]")
    logits = h @ params.Wc + params.bc
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim == 2:
        if labels.shape[1] != n_classes:
            raise ValidationError("one-hot width does not match class count")
        return labels.astype(np.float64)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValidationError(f"label id outside [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; the log argument is clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    y = _one_hot(labels, probs.shape[1])
    if y.shape != probs.shape:
        raise ValidationError("labels and probabilities disagree on batch size")
    return float(-(y * np.log(np.maximum(probs, LOG_CLAMP))).sum() / probs.shape[0])


@dataclass
class StepTrace:
    """Everything backward() needs; valid only for the params it was built with."""

    params_ref: ModelParams
    src: FeatureTrace
    tgt: FeatureTrace | None
    probs_src: np.ndarray
    y_src: np.ndarray              # one-hot
    l_ds: float
    raw_l_mmd: float               # before the clamp at zero; 0.0 when the head is off
    raw_l_cmmd: float
    sigma: float | None
    K: np.ndarray | None           # pooled Gram over [h_src; h_tgt]
    W: np.ndarray | None           # signed weights: marginal column, then one per shared class
    w_scale: np.ndarray | None
    kept_idx: np.ndarray           # rows of the target batch feeding the conditional term

    @property
    def l_mmd(self) -> float:
        return max(self.raw_l_mmd, 0.0)

    @property
    def l_cmmd(self) -> float:
        return max(self.raw_l_cmmd, 0.0)

    def total(self, alpha: float, beta: float) -> float:
        """The loss backward() differentiates, with both heads clamped at zero."""
        return self.l_ds + alpha * self.l_mmd + beta * self.l_cmmd


def pseudo_label_scores(tgt_x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eval-mode predictions: (argmax labels, max probabilities).

    Ties resolve to the lowest class id.
    """
    tgt_x = np.asarray(tgt_x, dtype=np.float64)
    if tgt_x.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    h, _ = forward_features(tgt_x, params, train=False)
    probs = forward_logits(h, params)
    return probs.argmax(axis=1).astype(np.int64), probs.max(axis=1)


def confidence_mask(confidences: np.ndarray, tau: float) -> np.ndarray:
    """Boolean keep-mask; tau = 1 retains only saturated predictions."""
    if not 0.0 <= tau <= 1.0:
        raise ValidationError("tau must lie in [0, 1]")
    if tau >= 1.0:
        return confidences >= 1.0 - 1e-9
    return confidences >= tau


def compute_losses(
    src_x: np.ndarray,
    src_y: np.ndarray,
    tgt_x: np.ndarray,
    params: ModelParams,
    tau: float,
    kcfg: kernels.KernelConfig,
    rng: np.random.Generator | None = None,
    *,
    train: bool = True,
    use_mmd: bool = True,
    use_cmmd: bool = True,
    confidence_filter: bool = True,
) -> StepTrace:
    """Run both batches through the extractor and evaluate every loss head."""
    src_x = np.asarray(src_x, dtype=np.float64)
    tgt_x = np.asarray(tgt_x, dtype=np.float64)
    if src_x.shape[0] == 0:
        raise ValidationError("source batch must be non-empty")
    y_onehot = _one_hot(src_y, params.n_classes)
    if y_onehot.shape[0] != src_x.shape[0]:
        raise ValidationError("source labels and features disagree on batch size")

    h_src, src_trace = forward_features(src_x, params, train=train, rng=rng)
    probs_src = forward_logits(h_src, params)
    l_ds = cross_entropy(probs_src, y_onehot)

    tgt_trace = None
    raw_l_mmd = 0.0
    raw_l_cmmd = 0.0
    sigma = K = W = w_scale = None
    kept_idx = np.empty(0, dtype=np.int64)

    if tgt_x.shape[0] > 0 and (use_mmd or use_cmmd):
        h_tgt, tgt_trace = forward_features(tgt_x, params, train=train, rng=rng)
        K, sigma = kernels.pooled_gram(np.vstack([h_src, h_tgt]), kcfg)
        n, m = h_src.shape[0], h_tgt.shape[0]
        W, w_scale = kernels.signed_weights(np.zeros(n), np.zeros(m), 1)
        if use_cmmd:
            labels, conf = pseudo_label_scores(tgt_x, params)
            keep = confidence_mask(conf, tau) if confidence_filter else np.ones(m, bool)
            kept_idx = np.flatnonzero(keep)
            W_c, scale_c = kernels.signed_weights(
                y_onehot.argmax(axis=1), np.where(keep, labels, -1), params.n_classes
            )
            W, w_scale = np.hstack([W, W_c]), np.concatenate([w_scale, scale_c])
        values = kernels.discrepancies(K, W, w_scale)
        if use_mmd:
            raw_l_mmd = float(values[0])
        if values.size > 1:
            raw_l_cmmd = float(values[1:].mean())

    return StepTrace(
        params_ref=params,
        src=src_trace,
        tgt=tgt_trace,
        probs_src=probs_src,
        y_src=y_onehot,
        l_ds=l_ds,
        raw_l_mmd=raw_l_mmd,
        raw_l_cmmd=raw_l_cmmd,
        sigma=sigma,
        K=K,
        W=W,
        w_scale=w_scale,
        kept_idx=kept_idx,
    )


def _extractor_backward(trace: FeatureTrace, d_h: np.ndarray, params: ModelParams):
    """Gradients of the extractor weights plus nothing else, given dL/dh."""
    if trace.m2 is not None:
        d_h = d_h * trace.m2
    d_z2 = d_h * (trace.z2 > 0)
    g_w2 = trace.d1.T @ d_z2
    g_b2 = d_z2.sum(axis=0)
    d_d1 = d_z2 @ params.W2.T
    if trace.m1 is not None:
        d_d1 = d_d1 * trace.m1
    d_z1 = d_d1 * (trace.z1 > 0)
    g_w1 = trace.x.T @ d_z1
    g_b1 = d_z1.sum(axis=0)
    return g_w1, g_b1, g_w2, g_b2


def _alignment_grads(trace: StepTrace, alpha: float, beta: float):
    """(dL/dh_src, dL/dh_tgt) of alpha*l_mmd + beta*l_cmmd, or None if zero.

    A head contributes nothing when its raw value was clamped to zero; an
    inactive head's raw value stays 0.0.
    """
    if trace.K is None:
        return None
    coef = np.zeros(trace.W.shape[1])
    if trace.raw_l_mmd > 0.0:
        coef[0] = alpha
    if trace.raw_l_cmmd > 0.0:
        coef[1:] = beta / (coef.size - 1)
    if not coef.any():
        return None
    Z = np.vstack([trace.src.h, trace.tgt.h])
    d_z = kernels.discrepancy_grad(trace.K, trace.W, coef * trace.w_scale, Z, trace.sigma)
    n = trace.src.h.shape[0]
    return d_z[:n], d_z[n:]


def backward(trace: StepTrace, params: ModelParams, alpha: float, beta: float) -> ModelParams:
    """Exact gradient of trace.total(alpha, beta) w.r.t. every parameter."""
    if trace.params_ref is not params:
        raise ValidationError("stale trace: parameters changed since the forward pass")
    d_logits = (trace.probs_src - trace.y_src) / trace.probs_src.shape[0]
    d_h_src = d_logits @ params.Wc.T
    align = _alignment_grads(trace, alpha, beta)
    if align is not None:
        d_h_src = d_h_src + align[0]
    g_w1, g_b1, g_w2, g_b2 = _extractor_backward(trace.src, d_h_src, params)
    if align is not None and np.any(align[1]):
        t_w1, t_b1, t_w2, t_b2 = _extractor_backward(trace.tgt, align[1], params)
        g_w1 += t_w1
        g_b1 += t_b1
        g_w2 += t_w2
        g_b2 += t_b2
    return ModelParams(W1=g_w1, b1=g_b1, W2=g_w2, b2=g_b2,
                       Wc=trace.src.h.T @ d_logits, bc=d_logits.sum(axis=0))

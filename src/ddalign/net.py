"""The differentiable model: two dense extractor layers, a softmax head, the
three-part training loss, and exact reverse-mode gradients.

Layout per batch row: input -> ReLU(x W1 + b1) -> dropout -> ReLU(. W2 + b2)
-> dropout -> 64-dim embedding h -> softmax(h Wc + bc). The source batch
contributes a cross-entropy term; the marginal and class-conditional kernel
statistics act on the embeddings of both batches. Pseudo-label choices, the
confidence mask, and the kernel bandwidth are constants of a step: no
gradient flows through them. Both kernel statistics share one pooled Gram
matrix per step, which the backward pass reuses with the centered embeddings
it was built from; both live in the kernel buffers the step was given. The
pseudo-labels reuse the target pass's layer-1 product, which dropout does
not touch. Everything is float64 numpy; dropout is the inverted kind so
evaluation applies no scaling.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NumericsError, ValidationError

DROPOUT_P = 0.25
_DROPOUT_SCALE = 1.0 / (1.0 - DROPOUT_P)
LOG_CLAMP = 1e-12
_FIELDS = ("W1", "b1", "W2", "b2", "Wc", "bc")  # the order of ModelParams.flat


@dataclass(frozen=True)
class ModelParams:
    """The six parameter arrays, stored as views of one float64 vector ``flat``
    in checkpoint order, so a training step works on whole vectors."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wc: np.ndarray
    bc: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

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
        self._bind(np.concatenate([np.ravel(a) for a in self.arrays()], dtype=np.float64), self)
        bad = self.nonfinite_field()
        if bad:
            raise ValidationError(f"{bad} contains non-finite values")

    def _bind(self, flat: np.ndarray, template: "ModelParams") -> "ModelParams":
        """Point the fields at consecutive runs of flat shaped like template's."""
        object.__setattr__(self, "flat", flat)
        start = 0
        for name, a in zip(_FIELDS, template.arrays()):
            object.__setattr__(self, name, flat[start:start + a.size].reshape(a.shape))
            start += a.size
        return self

    def __reduce__(self):  # a copy gets its own flat vector behind its fields
        return ModelParams, self.arrays()

    def like(self, flat: np.ndarray) -> "ModelParams":
        """A model shaped like this one, stored in flat: no copy, no check."""
        return object.__new__(ModelParams)._bind(flat, self)

    def nonfinite_field(self) -> str | None:
        """The first field holding a non-finite value; one scan when none does."""
        if np.isfinite(self.flat).all():
            return None
        return next(n for n, a in zip(_FIELDS, self.arrays()) if not np.isfinite(a).all())

    @property
    def extractor_size(self) -> int:  # W1, b1, W2, b2 lead flat
        return self.flat.size - self.Wc.size - self.bc.size

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


@dataclass
class FeatureTrace:
    """Intermediates of one extractor pass, kept for the backward sweep."""

    x: np.ndarray
    z1: np.ndarray
    d1: np.ndarray       # ReLU(z1) with dropout mask applied
    z2: np.ndarray
    h: np.ndarray        # ReLU(z2) with dropout mask applied
    m1: np.ndarray | None  # scaled masks, None without dropout
    m2: np.ndarray | None


def _layer1(x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The float64 batch and its pre-activations x W1 + b1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValidationError(
            f"input batch has shape {x.shape}, expected [B, {params.input_dim}]"
        )
    z1 = x @ params.W1 + params.b1
    if not np.isfinite(z1).all():
        raise NumericsError("non-finite activations in extractor layer 1")
    return x, z1


def _layer2(d1: np.ndarray, params: ModelParams) -> np.ndarray:
    z2 = d1 @ params.W2 + params.b2
    if not np.isfinite(z2).all():
        raise NumericsError("non-finite activations in extractor layer 2")
    return z2


def forward_features(
    x: np.ndarray, params: ModelParams, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, FeatureTrace]:
    """Embed a batch; given an rng, apply inverted dropout after each layer."""
    x, z1 = _layer1(x, params)

    def mask(shape):
        return None if rng is None else (rng.random(shape) >= DROPOUT_P) * _DROPOUT_SCALE

    a1 = np.maximum(z1, 0.0)
    m1 = mask(a1.shape)
    d1 = a1 if m1 is None else a1 * m1
    z2 = _layer2(d1, params)
    a2 = np.maximum(z2, 0.0)
    m2 = mask(a2.shape)
    h = a2 if m2 is None else a2 * m2
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
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValidationError(f"label id outside [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of one-hot rows ``y``, +0.0 (never -0.0)
    when every row's probability is 1; logs clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    if y.shape != probs.shape:
        raise ValidationError(f"one-hot labels have shape {y.shape}, probabilities {probs.shape}")
    return float((0.0 - (y * np.log(np.maximum(probs, LOG_CLAMP))).sum()) / probs.shape[0])


@dataclass
class StepTrace:
    """Everything backward() needs, the params it was built with included.

    K and Zc live in ``buffers``: a trace stays valid until the next step
    given the same buffers, which overwrites them.
    """

    params: ModelParams
    src: FeatureTrace
    tgt: FeatureTrace | None
    probs_src: np.ndarray
    y_src: np.ndarray              # one-hot
    l_ds: float
    raw_l_mmd: float               # before the clamp at zero; 0.0 when the head is off
    raw_l_cmmd: float
    sigma: float | None
    K: np.ndarray | None           # pooled Gram over [h_src; h_tgt]
    Zc: np.ndarray | None          # [h_src; h_tgt] centered, the rows K was built from
    W: np.ndarray | None           # signed weights: marginal column, then one per shared class
    w_scale: np.ndarray | None
    kept_idx: np.ndarray           # rows of the target batch feeding the conditional term
    buffers: kernels.KernelBuffers  # where K, Zc and the alignment gradient are written

    @property
    def l_mmd(self) -> float:
        return max(self.raw_l_mmd, 0.0)

    @property
    def l_cmmd(self) -> float:
        return max(self.raw_l_cmmd, 0.0)

    def total(self, alpha: float, beta: float) -> float:
        """The loss backward() differentiates, with both heads clamped at zero."""
        return self.l_ds + alpha * self.l_mmd + beta * self.l_cmmd


def _scores_from_z1(z1: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Dropout-free pseudo-labels (argmax, ties to the lowest class id) and
    their confidences (max probability) from layer-1 pre-activations, which
    dropout does not touch, so a dropout pass's z1 serves as well as any."""
    h = np.maximum(_layer2(np.maximum(z1, 0.0), params), 0.0)
    probs = forward_logits(h, params)
    return probs.argmax(axis=1).astype(np.int64), probs.max(axis=1)


def confidence_mask(confidences: np.ndarray, tau: float) -> np.ndarray:
    """Boolean keep-mask; tau = 0 keeps every finite confidence, tau = 1 only
    saturated predictions."""
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
    sigma: float | None,
    rng: np.random.Generator | None = None,
    *,
    use_mmd: bool = True,
    use_cmmd: bool = True,
    buffers: kernels.KernelBuffers | None = None,
) -> StepTrace:
    """Run both batches through the extractor and evaluate every loss head.

    ``sigma`` None selects the median heuristic; ``rng`` None turns dropout off;
    ``buffers`` None gives the step a set of kernel buffers of its own.
    """
    buffers = kernels.KernelBuffers() if buffers is None else buffers
    src_x = np.asarray(src_x, dtype=np.float64)
    tgt_x = np.asarray(tgt_x, dtype=np.float64)
    if src_x.shape[0] == 0:
        raise ValidationError("source batch must be non-empty")
    y_onehot = _one_hot(src_y, params.n_classes)
    if y_onehot.shape[0] != src_x.shape[0]:
        raise ValidationError("source labels and features disagree on batch size")

    h_src, src_trace = forward_features(src_x, params, rng)
    probs_src = forward_logits(h_src, params)
    l_ds = cross_entropy(probs_src, y_onehot)

    tgt_trace = None
    raw_l_mmd = 0.0
    raw_l_cmmd = 0.0
    used_sigma = K = Zc = W = w_scale = None
    kept_idx = np.empty(0, dtype=np.int64)

    if tgt_x.shape[0] > 0 and (use_mmd or use_cmmd):
        h_tgt, tgt_trace = forward_features(tgt_x, params, rng)
        Z = buffers.get("Z", (h_src.shape[0] + h_tgt.shape[0], h_src.shape[1]))
        np.concatenate([h_src, h_tgt], out=Z)
        K, used_sigma, Zc = kernels.pooled_gram(Z, sigma, buffers)
        # no class column unless the conditional head is on
        tgt_labels = np.full(h_tgt.shape[0], -1)
        if use_cmmd:
            labels, conf = _scores_from_z1(tgt_trace.z1, params)
            keep = confidence_mask(conf, tau)
            kept_idx = np.flatnonzero(keep)
            tgt_labels = np.where(keep, labels, -1)
        W, w_scale = kernels.signed_weights(src_y, tgt_labels, params.n_classes)
        values = kernels.discrepancies(K, W, w_scale)
        if use_mmd:
            raw_l_mmd = float(values[0])
        if values.size > 1:
            raw_l_cmmd = float(values[1:].mean())

    return StepTrace(
        params=params,
        src=src_trace,
        tgt=tgt_trace,
        probs_src=probs_src,
        y_src=y_onehot,
        l_ds=l_ds,
        raw_l_mmd=raw_l_mmd,
        raw_l_cmmd=raw_l_cmmd,
        sigma=used_sigma,
        K=K,
        Zc=Zc,
        W=W,
        w_scale=w_scale,
        kept_idx=kept_idx,
        buffers=buffers,
    )


def _extractor_backward(trace: FeatureTrace, d_h: np.ndarray, params: ModelParams, out):
    """Gradients of the extractor weights given dL/dh, written into out's W1..b2."""
    if trace.m2 is not None:
        d_h = d_h * trace.m2
    d_z2 = d_h * (trace.z2 > 0)
    np.matmul(trace.d1.T, d_z2, out=out.W2)
    d_z2.sum(axis=0, out=out.b2)
    d_d1 = d_z2 @ params.W2.T
    if trace.m1 is not None:
        d_d1 = d_d1 * trace.m1
    d_z1 = d_d1 * (trace.z1 > 0)
    np.matmul(trace.x.T, d_z1, out=out.W1)
    d_z1.sum(axis=0, out=out.b1)


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
    d_z = kernels.discrepancy_grad(trace.K, trace.W, coef * trace.w_scale, trace.Zc,
                                   trace.sigma, trace.buffers)
    n = trace.src.h.shape[0]
    return d_z[:n], d_z[n:]


def backward(trace: StepTrace, alpha: float, beta: float) -> ModelParams:
    """Exact gradient of trace.total(alpha, beta) w.r.t. every parameter."""
    params = trace.params
    d_logits = (trace.probs_src - trace.y_src) / trace.probs_src.shape[0]
    d_h_src = d_logits @ params.Wc.T
    align = _alignment_grads(trace, alpha, beta)
    if align is not None:
        d_h_src = d_h_src + align[0]
    grads = params.like(np.empty_like(params.flat))
    _extractor_backward(trace.src, d_h_src, params, grads)
    if align is not None and np.any(align[1]):
        tgt = params.like(np.empty_like(params.flat))
        _extractor_backward(trace.tgt, align[1], params, tgt)
        n = grads.extractor_size
        grads.flat[:n] += tgt.flat[:n]
    np.matmul(trace.src.h.T, d_logits, out=grads.Wc)
    d_logits.sum(axis=0, out=grads.bc)
    bad = grads.nonfinite_field()
    if bad:
        raise NumericsError(f"gradient overflowed: {bad} contains non-finite values")
    return grads

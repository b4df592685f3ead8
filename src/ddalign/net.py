"""The differentiable model: two dense extractor layers, a softmax head, the
three-part training loss, and exact reverse-mode gradients.

Layout per batch row: input -> ReLU(x W1 + b1) -> dropout -> ReLU(. W2 + b2)
-> dropout -> 64-dim embedding h -> softmax(h Wc + bc). The source batch
contributes a cross-entropy term; the marginal and class-conditional kernel
statistics act on the embeddings of both batches. Pseudo-label choices, the
confidence mask, and the kernel bandwidth are constants of a step: no
gradient flows through them. Both kernel statistics share one pooled Gram
matrix per step, which the backward pass reuses with the centered embeddings
it was built from; both live in the kernel buffers the step was given.

A step makes one extractor pass over the pooled rows [source; target]: each
layer is one product over both batches, and the dropout-free pseudo-label
rows of the target share layer 2's product and the head's softmax with the
source rows. Every row gets the bytes that a pass of its own batch would give
it. Everything is float64 numpy; dropout is the inverted kind so evaluation
applies no scaling.
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
    """Intermediates of one extractor pass, kept for the backward sweep.

    The pass runs over the pooled rows of a step: rows [0, n_src) are the
    source batch, the rest the target batch.
    """

    x: np.ndarray
    d1: np.ndarray       # ReLU(x W1 + b1) with dropout applied
    h: np.ndarray        # ReLU(d1 W2 + b2) with dropout applied
    keep1: np.ndarray | None  # boolean dropout masks, True where a unit is kept;
    keep2: np.ndarray | None  # None without dropout
    n_src: int
    head_rows: np.ndarray  # [dropout-free target embeddings, if asked for; h's source rows]


def _check_input(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """The batch as float64, refused unless it is [B, input_dim]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValidationError(
            f"input batch has shape {x.shape}, expected [B, {params.input_dim}]"
        )
    return x


def _blockwise_matmul(
    a: np.ndarray, b: np.ndarray, blocks: tuple[int, ...], pooled: bool = True, out=None
) -> np.ndarray:
    """a @ b for a whose rows stack blocks of the given sizes, each row with
    the bytes a product of its own block gives it.

    ``pooled`` makes it one product unless a block has a single row: numpy
    sends a one-row product to gemv, which rounds differently from gemm. The
    BLAS picks its kernel by the shape of the whole product, so a row's bytes
    can depend on the rows it shares a product with; pooling is for the
    layer products, where they did not (OpenBLAS 0.3.31, 2 to 300 rows per
    block at 6 to 310 inputs and 4 to 64 outputs). The head's 3-column
    product and d_z2 W2^T at 10 to 18 rows per side did, so they stay one
    product per block.
    """
    blocks = tuple(k for k in blocks if k)
    if len(blocks) < 2 or (pooled and min(blocks) > 1):
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    start = 0
    for k in blocks:
        np.matmul(a[start:start + k], b, out=out[start:start + k])
        start += k
    return out


def _dense(a, W, b, blocks, layer: int, out: np.ndarray) -> np.ndarray:
    z = _blockwise_matmul(a, W, blocks, out=out)
    z += b
    if not np.isfinite(z).all():
        raise NumericsError(f"non-finite activations in extractor layer {layer}")
    return z


def _draw_keep_masks(rng, sides, u1: np.ndarray, u2: np.ndarray):
    """Boolean keep-masks of inverted dropout from uniforms drawn into u1 and
    u2 (one row per pooled row). Each side draws its layer-1 then its layer-2
    uniforms before the next side draws, the order of one pass per side."""
    start = 0
    for k in sides:
        rng.random(out=u1[start:start + k])
        rng.random(out=u2[start:start + k])
        start += k
    return u1 >= DROPOUT_P, u2 >= DROPOUT_P


def _drop(a: np.ndarray, keep: np.ndarray) -> None:
    """a *= keep * (1 / (1 - p)) in place, the bytes of the float mask's product:
    multiplying by 1 or 0 first is exact, so only the scaling rounds."""
    a *= keep
    a *= _DROPOUT_SCALE


def forward_features(
    x: np.ndarray,
    params: ModelParams,
    rng: np.random.Generator | None = None,
    *,
    n_src: int | None = None,
    pseudo: bool = False,
) -> tuple[np.ndarray, FeatureTrace]:
    """Embed a batch; given an rng, apply inverted dropout after each layer.

    With ``n_src`` the rows after the first n_src are a second batch, the
    target, with dropout masks of its own. ``pseudo`` also runs the target
    rows through layer 2 without dropout, in the same product, and puts their
    embeddings just above the source rows of h in ``head_rows``, so that one
    head call scores both.
    """
    x = _check_input(x, params)
    n = x.shape[0]
    n_src = n if n_src is None else n_src
    sides = (n_src, n - n_src)
    k = sides[1] if pseudo else 0
    h1, h2 = params.W2.shape
    # each layer's output rows, [pseudo-label rows; source rows; target rows],
    # share one allocation: a step's largest arrays come and go as one block
    block = np.empty((k + n) * (h1 + h2))
    a1 = block[:(k + n) * h1].reshape(k + n, h1)
    a2 = block[(k + n) * h1:].reshape(k + n, h2)
    # the uniforms go where the layers write next
    keep1, keep2 = (None, None) if rng is None else _draw_keep_masks(rng, sides, a1[k:], a2[k:])

    z1 = _dense(x, params.W1, params.b1, sides, 1, out=a1[k:])
    if k:
        np.maximum(z1[n_src:], 0.0, out=a1[:k])
    d1 = np.maximum(z1, 0.0, out=z1)
    if keep1 is not None:
        _drop(d1, keep1)
    z2 = _dense(a1, params.W2, params.b2, (k,) + sides, 2, out=a2)
    np.maximum(z2, 0.0, out=a2)
    h = a2[k:]
    if keep2 is not None:
        _drop(h, keep2)
    return h, FeatureTrace(x=x, d1=d1, h=h, keep1=keep1, keep2=keep2, n_src=n_src,
                           head_rows=a2[:k + n_src])


def forward_logits(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Row-wise softmax over the classifier head; rows sum to one."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.Wc.shape[0]:
        raise ValidationError(f"embedding batch has shape {h.shape}, expected [B, {params.Wc.shape[0]}]")
    return _head(h, params, (h.shape[0],))


def _head(h: np.ndarray, params: ModelParams, blocks: tuple[int, ...]) -> np.ndarray:
    """Softmax probabilities of the rows of h, one product per row block."""
    logits = _blockwise_matmul(h, params.Wc, blocks, pooled=False)
    logits += params.bc
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
    features: FeatureTrace         # one pass over [source; target], or the source alone
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


def _pseudo_labels(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (argmax, ties to the lowest class id) and their confidences (max
    probability) of rows of class probabilities."""
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
    x: np.ndarray,
    src_y: np.ndarray,
    params: ModelParams,
    tau: float,
    sigma: float | None,
    rng: np.random.Generator | None = None,
    *,
    use_mmd: bool = True,
    use_cmmd: bool = True,
    buffers: kernels.KernelBuffers,
) -> StepTrace:
    """Run the pooled batch through the extractor and evaluate every loss head.

    The first len(src_y) rows of ``x`` are the source batch, the rest the
    target batch, which only an alignment head reads. ``sigma`` None selects
    the median heuristic; ``rng`` None turns dropout off. The trace's kernel
    arrays live in ``buffers`` until the next step given them.
    """
    x = _check_input(x, params)
    n = len(src_y)
    if n == 0:
        raise ValidationError("source batch must be non-empty")
    y_onehot = _one_hot(src_y, params.n_classes)
    if n > x.shape[0]:
        raise ValidationError("source labels and features disagree on batch size")

    aligns = x.shape[0] > n and (use_mmd or use_cmmd)
    if not aligns:
        x = x[:n]
    h, features = forward_features(x, params, rng, n_src=n, pseudo=aligns and use_cmmd)
    n_pseudo = features.head_rows.shape[0] - n
    probs = _head(features.head_rows, params, (n_pseudo, n))  # [pseudo-label rows; source rows]
    probs_src = probs[n_pseudo:]
    l_ds = cross_entropy(probs_src, y_onehot)

    raw_l_mmd = 0.0
    raw_l_cmmd = 0.0
    used_sigma = K = Zc = W = w_scale = None
    kept_idx = np.empty(0, dtype=np.int64)

    if aligns:
        K, used_sigma, Zc = kernels.pooled_gram(h, sigma, buffers)
        # no class column unless the conditional head is on
        tgt_labels = np.full(h.shape[0] - n, -1)
        if use_cmmd:
            labels, conf = _pseudo_labels(probs[:n_pseudo])
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
        features=features,
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
    """Gradients of the extractor weights given dL/dh over the pass's first
    d_h.shape[0] rows, written into out's W1..b2; d_h is overwritten.

    The element-wise work runs once over those rows. d_z2 W2^T, the weight
    and the bias gradients are one product or row sum per side, the target's
    gradients added to the source's, as separate passes per side gave them.
    The ReLU indicators are read off the layer outputs: h > 0 where the
    pre-activation is positive and dropout kept the unit. Where dropout
    dropped it, the mask has already made the gradient a zero that the
    pre-activation's indicator would leave as it is, so the bytes agree.
    """
    n, rows = trace.n_src, d_h.shape[0]
    if trace.keep2 is not None:
        _drop(d_h, trace.keep2[:rows])
    d_z2 = d_h
    d_z2 *= trace.h[:rows] > 0
    d_z1 = _blockwise_matmul(d_z2, params.W2.T, (n, rows - n), pooled=False)
    if trace.keep1 is not None:
        _drop(d_z1, trace.keep1[:rows])
    d_z1 *= trace.d1[:rows] > 0

    def weight_grads(part: slice, grads: ModelParams):
        np.matmul(trace.d1[part].T, d_z2[part], out=grads.W2)
        d_z2[part].sum(axis=0, out=grads.b2)
        np.matmul(trace.x[part].T, d_z1[part], out=grads.W1)
        d_z1[part].sum(axis=0, out=grads.b1)

    weight_grads(slice(0, n), out)
    if rows > n:
        tgt = params.like(np.empty_like(params.flat))
        weight_grads(slice(n, rows), tgt)
        e = out.extractor_size
        out.flat[:e] += tgt.flat[:e]


def _alignment_grads(trace: StepTrace, alpha: float, beta: float):
    """dL/dZ of alpha*l_mmd + beta*l_cmmd over the pooled rows, or None if zero.

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
    return kernels.discrepancy_grad(trace.K, trace.W, coef * trace.w_scale, trace.Zc,
                                    trace.sigma, trace.buffers)


def backward(trace: StepTrace, alpha: float, beta: float) -> ModelParams:
    """Exact gradient of trace.total(alpha, beta) w.r.t. every parameter.

    The target rows join the extractor sweep only when their alignment
    gradient is not all zero.
    """
    params = trace.params
    features = trace.features
    n = features.n_src
    d_logits = (trace.probs_src - trace.y_src) / n
    align = _alignment_grads(trace, alpha, beta)
    if align is None:
        d_h = d_logits @ params.Wc.T
    else:  # worked on in place: the kernel buffers' gradient rows are this call's
        d_h = align if np.any(align[n:]) else align[:n]
        d_h[:n] += d_logits @ params.Wc.T
    grads = params.like(np.empty_like(params.flat))
    _extractor_backward(features, d_h, params, grads)
    np.matmul(features.h[:n].T, d_logits, out=grads.Wc)
    d_logits.sum(axis=0, out=grads.bc)
    bad = grads.nonfinite_field()
    if bad:
        raise NumericsError(f"gradient overflowed: {bad} contains non-finite values")
    return grads

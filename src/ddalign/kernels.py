"""Gaussian-kernel two-sample statistics: MMD and its class-conditional variant.

The marginal statistic compares two feature clouds through the biased
block-sum estimator

    mmd(X, Y) = S_xx / n^2 + S_yy / m^2 - 2 S_xy / (n m)

where S_ab sums the kernel k(u, v) = exp(-||u - v||^2 / sigma) over all pairs
of the respective blocks. The conditional variant applies the same estimator
per class and averages over classes present in both sides.

Every statistic is computed on one pooled Gram matrix K over the stacked rows
Z = [X; Y] (pooled_gram). A statistic is then the quadratic form w^T K w of a
signed weight column w (positive on X's rows, negative on Y's). One
signed_weights call gives the marginal column and every class column, so all
terms cost one product K @ W (discrepancies), and their exact gradients with
respect to Z reuse the same K and the centered rows it was built from
(discrepancy_grad). The bandwidth is a constant of the evaluation even when
it was chosen by the median heuristic.

The large intermediates (the [N, N] Gram, norm-pair sums and weight
matrices, the pair distances the median selects from, the [N, d] rows and
products) are written into a KernelBuffers that the caller passes; a training
run keeps one for all its steps, its pooled batch included, so that memory
is not handed back and faulted in again per step.
"""

import numpy as np

from .errors import NumericsError


class KernelBuffers:
    """Destination arrays of the kernel layer, reused from call to call, and
    the "batch" array a training run gathers each step's pooled rows into.

    An array is made on first request for its name and shape, so a training
    run, which sees two pooled row counts (its batch's and its last batch's),
    holds two sets. Whatever a call writes here, the K it returns included,
    is valid until the next call given the same buffers; a caller that keeps
    it longer copies it. One instance serves one run at a time: concurrent
    runs each make their own.
    """

    def __init__(self):
        self._arrays: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
        self._upper: dict[int, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The float64 array called name with this shape, uninitialised when new."""
        key = (name, shape)
        a = self._arrays.get(key)
        if a is None:
            a = self._arrays[key] = np.empty(shape)
        return a

    def upper_index(self, n: int) -> np.ndarray:
        """Flat positions of the strict upper triangle of an [n, n] matrix,
        row-major. Writeable, since ndarray.take copies a read-only index
        before it gathers, and private: only _median_upper reads it."""
        idx = self._upper.get(n)
        if idx is None:
            idx = self._upper[n] = np.flatnonzero(~np.tri(n, dtype=bool))
        return idx


def pooled_sq_dists(Zc: np.ndarray, buffers: KernelBuffers) -> np.ndarray:
    """Squared distances between all rows of Zc, rows centered on their mean.

    ||a - b||^2 = |a|^2 + |b|^2 - 2 a.b loses digits to cancellation when rows
    sit far from the origin, and centering leaves only their spread. The
    squared norms are read off the Gram diagonal, so identical rows are exactly
    0 apart. The result is exactly symmetric, clamped at 0, with an exact zero
    diagonal, and is assembled in the Gram buffer from one [N, N] "sums"
    buffer of norm pairs. Non-finite distances raise NumericsError.
    """
    n = Zc.shape[0]
    D = np.matmul(Zc, Zc.T, out=buffers.get("D", (n, n)))
    sq = D.diagonal().copy()
    sums = np.add(sq[:, None], sq, out=buffers.get("sums", (n, n)))
    D *= 2.0
    np.subtract(sums, D, out=D)
    # before the clamp, which would turn -inf into 0
    if not np.isfinite(D).all():
        raise NumericsError("non-finite pooled distances in the kernel layer")
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    return D


def _median_upper(D: np.ndarray, buffers: KernelBuffers) -> float:
    """Median of the distinct-pair distances; 1.0 when that median is 0 or
    there is no pair.

    One selection: the upper middle value is the k-th smallest, and for an even
    count the lower one is the largest value below it. Their mean is what
    np.median returns, but np.median partitions at two positions, which takes
    a generic path several times slower.
    """
    idx = buffers.upper_index(D.shape[0])
    # in range by construction, and "clip" lets take write straight into out
    upper = D.ravel().take(idx, out=buffers.get("upper", idx.shape), mode="clip")
    if upper.size == 0:
        return 1.0
    k = upper.size // 2
    upper.partition(k)
    med = upper[k]
    if upper.size % 2 == 0:
        med = (upper[:k].max() + med) / 2
    med = float(med)
    return med if med > 0.0 else 1.0


def pooled_gram(
    Z: np.ndarray, sigma: float | None, buffers: KernelBuffers
) -> tuple[np.ndarray, float, np.ndarray]:
    """Gaussian kernel over every pair of rows of Z, the sigma it used, and the
    centered rows it was computed from, which discrepancy_grad takes.

    ``sigma`` is the denominator of the squared-distance exponent. None selects
    the median heuristic: sigma comes from the same distances as K. K and the
    centered rows live in ``buffers``.
    """
    Zc = np.subtract(Z, Z.mean(axis=0), out=buffers.get("Zc", Z.shape))
    K = pooled_sq_dists(Zc, buffers)
    sigma = _median_upper(K, buffers) if sigma is None else float(sigma)
    # in place: each [N, N] temporary costs as much as the exp itself
    K /= -sigma
    np.exp(K, out=K)
    return K, sigma, Zc


def signed_weights(
    src_labels: np.ndarray, tgt_labels: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weight columns ``W`` over the pooled rows [src; tgt] and their ``scale``:
    the marginal column first, then one per class present on both sides.

    A column holds m_c on its source rows and -n_c on its target rows (n_c,
    m_c its row counts), so scale_c * w_c^T K w_c with scale_c = 1 / (n_c m_c)^2
    is that column's mmd. The marginal column takes every row; a class column
    takes the rows of its class. Integer weights make a constant kernel sum to
    exactly zero. Labels outside [0, n_classes), such as -1, mark rows that no
    class column uses.
    """
    classes = np.arange(n_classes)
    S = np.asarray(src_labels)[:, None] == classes
    T = np.asarray(tgt_labels)[:, None] == classes
    shared = S.any(axis=0) & T.any(axis=0)
    S = np.column_stack([np.ones(len(S), bool), S[:, shared]])
    T = np.column_stack([np.ones(len(T), bool), T[:, shared]])
    n_c, m_c = S.sum(axis=0), T.sum(axis=0)
    W = np.vstack([S * m_c, T * -n_c]).astype(np.float64)
    return W, 1.0 / (n_c * m_c).astype(np.float64) ** 2


def discrepancies(K: np.ndarray, W: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Unclamped mmd of each weight column: scale_k * w_k^T K w_k."""
    return scale * np.einsum("ik,ik->k", W, K @ W)


def discrepancy_grad(
    K: np.ndarray,
    W: np.ndarray,
    coef: np.ndarray,
    Zc: np.ndarray,
    sigma: float,
    buffers: KernelBuffers,
) -> np.ndarray:
    """Exact gradient of sum_k coef_k w_k^T K w_k with respect to the rows of Z,
    written into ``buffers``.

    ``Zc`` holds the centered rows pooled_gram returned with K. With
    M = K o (W diag(coef) W^T), each row gets -(4 / sigma) sum_j M_ij (z_i - z_j),
    from d/du exp(-||u - v||^2 / sigma) = -(2 / sigma) k(u, v) (u - v). Rows
    that no weighted column uses get exactly zero.
    """
    n = K.shape[0]
    M = np.matmul(W * coef, W.T, out=buffers.get("M", (n, n)))
    M *= K
    MZ = np.matmul(M, Zc, out=buffers.get("MZ", Zc.shape))
    grad = np.multiply(M.sum(axis=1)[:, None], Zc, out=buffers.get("grad", Zc.shape))
    np.subtract(MZ, grad, out=grad)
    grad *= 4.0 / sigma
    return grad

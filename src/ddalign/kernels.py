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
"""

import functools

import numpy as np

from .errors import NumericsError

_BLOCK_ROWS = 64  # rows of the distance matrix assembled per pass


def pooled_sq_dists(Zc: np.ndarray) -> np.ndarray:
    """Squared distances between all rows of Zc, rows centered on their mean.

    ||a - b||^2 = |a|^2 + |b|^2 - 2 a.b loses digits to cancellation when rows
    sit far from the origin, and centering leaves only their spread. The
    squared norms are read off the Gram diagonal, so identical rows are exactly
    0 apart. The result is exactly symmetric, clamped at 0, with an exact zero
    diagonal, and is assembled in the Gram buffer in row blocks, so no second
    [N, N] array is made. Non-finite distances raise NumericsError.
    """
    D = Zc @ Zc.T
    sq = D.diagonal().copy()
    sums = np.empty((min(_BLOCK_ROWS, sq.size), sq.size))
    for start in range(0, sq.size, _BLOCK_ROWS):
        block = D[start:start + _BLOCK_ROWS]
        pair = sums[:block.shape[0]]
        np.add(sq[start:start + _BLOCK_ROWS, None], sq, out=pair)
        block *= 2.0
        np.subtract(pair, block, out=block)
        # before the clamp, which would turn -inf into 0
        if not np.isfinite(block).all():
            raise NumericsError("non-finite pooled distances in the kernel layer")
        np.maximum(block, 0.0, out=block)
    np.fill_diagonal(D, 0.0)
    return D


@functools.lru_cache(maxsize=4)  # a run sees its batch's N and the last batch's
def _upper_index(n: int) -> np.ndarray:
    """Flat positions of the strict upper triangle of an [n, n] matrix, row-major."""
    idx = np.flatnonzero(~np.tri(n, dtype=bool))
    idx.flags.writeable = False
    return idx


def _median_upper(D: np.ndarray) -> float:
    """Median of the distinct-pair distances; 1.0 when that median is 0 or
    there is no pair.

    One selection: the upper middle value is the k-th smallest, and for an even
    count the lower one is the largest value below it. Their mean is what
    np.median returns, but np.median partitions at two positions, which takes
    a generic path several times slower.
    """
    upper = D.ravel().take(_upper_index(D.shape[0]))
    if upper.size == 0:
        return 1.0
    k = upper.size // 2
    upper.partition(k)
    med = upper[k]
    if upper.size % 2 == 0:
        med = (upper[:k].max() + med) / 2
    med = float(med)
    return med if med > 0.0 else 1.0


def pooled_gram(Z: np.ndarray, sigma: float | None) -> tuple[np.ndarray, float, np.ndarray]:
    """Gaussian kernel over every pair of rows of Z, the sigma it used, and the
    centered rows it was computed from, which discrepancy_grad takes.

    ``sigma`` is the denominator of the squared-distance exponent. None selects
    the median heuristic: sigma comes from the same distances as K.
    """
    Zc = Z - Z.mean(axis=0)
    K = pooled_sq_dists(Zc)
    sigma = _median_upper(K) if sigma is None else float(sigma)
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
    K: np.ndarray, W: np.ndarray, coef: np.ndarray, Zc: np.ndarray, sigma: float
) -> np.ndarray:
    """Exact gradient of sum_k coef_k w_k^T K w_k with respect to the rows of Z.

    ``Zc`` holds the centered rows pooled_gram returned with K. With
    M = K o (W diag(coef) W^T), each row gets -(4 / sigma) sum_j M_ij (z_i - z_j),
    from d/du exp(-||u - v||^2 / sigma) = -(2 / sigma) k(u, v) (u - v). Rows
    that no weighted column uses get exactly zero.
    """
    M = (W * coef) @ W.T
    M *= K
    return (4.0 / sigma) * (M @ Zc - M.sum(axis=1)[:, None] * Zc)

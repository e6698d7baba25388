"""The always-masked split search: the reference for ``hatepool.gbdt._best_split``.

Gradients and hessians come as two real arrays, each summed with its own
cumulative sum, and every cut that falls between two equal feature values
is masked before the argmax. The operations and their order are those of
the fast search's gain arithmetic, so the two agree bit for bit.
"""

import numpy as np

from hatepool.gbdt import GAIN_NOISE_REL


def best_split(X, g, h, block, features, l2, min_data):
    """(gain, feature, threshold, left_rows) of the best split, or None."""
    m = block.shape[1]
    if m < 2 * min_data:
        return None
    rows = block[0]
    g_total = float(g.take(rows).sum())
    h_total = float(h.take(rows).sum())
    parent_score = g_total * g_total / (h_total + l2)

    lo, hi = min_data - 1, m - min_data
    xs = X.ravel().take(block * X.shape[1] + features[:, None])
    g_left = np.cumsum(g.take(block), axis=1)[:, lo:hi]
    h_left = np.cumsum(h.take(block), axis=1)[:, lo:hi]
    g_right = g_total - g_left
    h_right = h_total - h_left
    if l2:
        h_left += l2
        h_right += l2
    g_left *= g_left
    g_left /= h_left
    g_right *= g_right
    g_right /= h_right
    gains = g_left
    gains += g_right
    gains -= parent_score
    gains *= 0.5
    np.copyto(gains, -np.inf, where=xs[:, lo:hi] == xs[:, lo + 1 : hi + 1])
    cuts = np.argmax(gains, axis=1)
    best = gains[np.arange(len(features)), cuts]
    pos = int(np.argmax(best))
    if not best[pos] > GAIN_NOISE_REL * abs(parent_score):
        return None
    cut = lo + int(cuts[pos])
    return (
        float(best[pos]),
        int(features[pos]),
        float((xs[pos, cut] + xs[pos, cut + 1]) / 2.0),
        block[pos, : cut + 1],
    )

"""Serialization orders for kept tokens.

All orders are permutations of a stage's kept-token rows, numbered
row-major by a grid index (each position's row, -1 where discarded), so
applying one to the token matrix produces the scan sequence and its
inverse restores row-major order.

The importance-prioritized local (IPL) order serializes high-activity
windows first: the token grid is tiled into k x k windows, windows are
visited by descending window maximum of the full score map (ties by
ascending window index), tokens within a window stay row-major, and
discarded tokens are deleted from the sequence without disturbing the
relative order of the rest.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .stca import max_pool2d


def ipl_order(index: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Importance-prioritized local order over the kept tokens of an (H, W)
    grid index, k x k windows."""
    h, w = index.shape
    if scores.shape != (h, w):
        raise ShapeError(f"score map {scores.shape} does not match grid {(h, w)}")
    if k < 1:
        raise ConfigError("IPL window size must be at least 1")
    if h % k or w % k:
        raise ShapeError(f"window size {k} does not divide grid {h}x{w}")
    maxima = max_pool2d(scores, k).ravel()
    # Stable sort on negated maxima: descending scores, ties by window index.
    window_order = np.argsort(-maxima, kind="stable")
    flat = np.arange(h * w, dtype=np.int64).reshape(h, w)
    windows = flat.reshape(h // k, k, w // k, k).transpose(0, 2, 1, 3).reshape(-1, k * k)
    hits = index.ravel()[windows[window_order].ravel()]
    return hits[hits >= 0]


def invert(p: np.ndarray) -> np.ndarray:
    """Inverse permutation: invert(p)[p[i]] == i."""
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=p.dtype)
    return inv

"""Spatiotemporal activity scoring and token sparsification maps.

Activity events arrive in spatially contiguous, temporally sustained
bursts, while sensor noise is isolated in both respects. The scoring
pipeline turns that prior into a binary keep/discard decision per token:

1. accumulate window-normalized timestamps per pixel (one np.bincount),
2. average-pool pixel scores into P x P token scores,
3. aggregate each token score over its neighborhood with Gaussian
   weights, renormalized over the in-bounds window,
4. threshold at alpha = mean(score) / beta; tokens scoring >= alpha
   are kept.

Scores scale linearly under any positive scaling of the normalized
timestamps, and alpha scales with them, so the keep/discard decision is
invariant to the time unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .event_io import EventStream


@dataclass(frozen=True)
class GaussianConfig:
    """Neighborhood aggregation window: radius in tokens and kernel width."""

    radius: int = 1
    sigma: float = 1.0

    def __post_init__(self):
        if self.radius < 0:
            raise ConfigError("aggregation radius must be non-negative")
        if not 0 < self.sigma < np.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass(frozen=True)
class StcaResult:
    """Aggregated token scores plus the thresholded keep mask."""

    scores: np.ndarray      # (H/P, W/P) float64, aggregated token scores
    keep: np.ndarray        # (H/P, W/P) bool
    threshold: float


def accumulate_temporal_scores(stream: EventStream) -> np.ndarray:
    """Sum window-normalized timestamps per pixel into an (H, W) map.

    An empty stream yields an all-zero map; a non-empty stream requires a
    positive window span for normalization.
    """
    if stream.n_events == 0:   # np.bincount would return int64 zeros
        return np.zeros((stream.height, stream.width))
    if stream.span <= 0:
        raise ValidationError("cannot normalize timestamps over a zero-length window")
    tnorm = stream.offsets() / float(stream.span)
    pixel = stream.ys * stream.width + stream.xs
    grid = np.bincount(pixel, tnorm, minlength=stream.height * stream.width)
    return grid.reshape(stream.height, stream.width)


def pool_to_tokens(pixel_scores: np.ndarray, patch: int) -> np.ndarray:
    """Average-pool an (H, W) pixel map into (H/P, W/P) token scores."""
    h, w = pixel_scores.shape
    if patch < 1:
        raise ConfigError("patch size must be at least 1")
    if h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide map shape {h}x{w}")
    return pixel_scores.reshape(h // patch, patch, w // patch, patch).mean(axis=(1, 3))


def gaussian_aggregate(token_scores: np.ndarray, cfg: GaussianConfig = GaussianConfig()) -> np.ndarray:
    """Aggregate each token over its (2r+1)^2 neighborhood.

    Weights are exp(-(dy^2 + dx^2) / (2 sigma^2)), clipped to the map and
    renormalized per position, so constant maps are preserved and borders
    are unbiased. sigma -> 0 recovers the identity: the centre weight is
    always 1, and off-centre weights are 0 once 2 sigma^2 underflows.
    Offsets beyond the map add nothing, so the radius is clamped to it.
    """
    h, w = token_scores.shape
    num = np.zeros((h, w), dtype=np.float64)
    den = np.zeros((h, w), dtype=np.float64)
    ry, rx = min(cfg.radius, h - 1), min(cfg.radius, w - 1)
    two_var = 2.0 * cfg.sigma * cfg.sigma
    inv = 1.0 / two_var if two_var > 0.0 else np.inf
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            d2 = dy * dy + dx * dx
            wgt = np.exp(-d2 * inv) if d2 else 1.0   # 0 * inf would be nan
            ys0, ys1 = max(0, -dy), min(h, h - dy)
            xs0, xs1 = max(0, -dx), min(w, w - dx)
            num[ys0:ys1, xs0:xs1] += wgt * token_scores[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
            den[ys0:ys1, xs0:xs1] += wgt
    return num / den


def compute_threshold(token_scores: np.ndarray, beta: float) -> float:
    """alpha = sum(scores) / (beta * token count), the scaled mean score."""
    if not 0 < beta < np.inf:
        raise ConfigError(f"sparsity factor beta must be positive and finite, got {beta}")
    # a tiny beta can overflow alpha to inf, which no score reaches
    with np.errstate(over="ignore"):
        return float(token_scores.sum() / (beta * token_scores.size))


def build_sparsification_map(token_scores: np.ndarray, threshold: float) -> np.ndarray:
    """Keep tokens scoring at or above the threshold (ties are kept)."""
    return token_scores >= threshold


def kept_ratio(keep: np.ndarray) -> float:
    """Fraction of tokens kept, in [0, 1]."""
    return float(np.count_nonzero(keep)) / keep.size


def max_pool2d(a: np.ndarray, factor: int) -> np.ndarray:
    """Max-pool a 2D map by an integer factor that divides both dims."""
    h, w = a.shape
    if factor < 1:
        raise ConfigError("pool factor must be at least 1")
    if h % factor or w % factor:
        raise ShapeError(f"factor {factor} does not divide map shape {h}x{w}")
    return a.reshape(h // factor, factor, w // factor, factor).max(axis=(1, 3))


def run_stca(stream: EventStream, patch: int = 4,
             gauss: GaussianConfig = GaussianConfig(), beta: float = 1.0) -> StcaResult:
    """Score and threshold a stream end to end.

    Note the empty-stream edge case: all scores are zero, alpha is zero,
    and the >= convention keeps every token.
    """
    pixel = accumulate_temporal_scores(stream)
    tokens = pool_to_tokens(pixel, patch)
    agg = gaussian_aggregate(tokens, gauss)
    alpha = compute_threshold(agg, beta)
    keep = build_sparsification_map(agg, alpha)
    return StcaResult(scores=agg, keep=keep, threshold=alpha)


def write_map_csv(a: np.ndarray, path) -> None:
    """Write a 2D map as CSV, one row per line. Boolean maps become 0/1."""
    arr = a.astype(np.int64) if a.dtype == bool else a
    fmt = "%d" if np.issubdtype(arr.dtype, np.integer) else "%.17g"
    np.savetxt(path, arr, fmt=fmt, delimiter=",")


def write_map_pgm(a: np.ndarray, path) -> None:
    """Write a 2D boolean mask as a binary PGM (P5), True as 255 and False as 0."""
    if a.dtype != bool or a.ndim != 2:
        raise ValidationError(f"a PGM map must be a 2D boolean mask, got {a.dtype} {a.shape}")
    pix = np.where(a, 255, 0).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())

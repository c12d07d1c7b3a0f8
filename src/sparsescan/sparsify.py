"""Gather kept tokens from a feature map and scatter them back.

A feature map is channel-last, an (H_t, W_t, C) array, and a stack of T
maps on one grid is (T, H_t, W_t, C). Gathering collects the kept
tokens in row-major coordinate order into an (n, C) matrix, or
(T, n, C) for a stack, by indexing the two grid axes; scattering writes
them back over a base map, leaving discarded positions bit-equal to the
base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError


@dataclass
class TokenSet:
    """Kept tokens in row-major order with their grid coordinates."""

    tokens: np.ndarray      # (n, C), or (..., n, C) for a stack of maps
    coords: np.ndarray      # (n, 2) int64, rows then cols
    grid_shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def index(self) -> np.ndarray:
        """(H, W) int64 map of each kept token's row; -1 where discarded."""
        idx = np.full(self.grid_shape, -1, dtype=np.int64)
        idx[self.coords[:, 0], self.coords[:, 1]] = np.arange(len(self))
        return idx

    def regather(self, x: np.ndarray) -> TokenSet:
        """The tokens of a (..., H, W, C) map at this set's positions, as a new
        set. Advanced indexing copies, so updating the tokens in place leaves
        x as it was."""
        if x.ndim < 3 or x.shape[-3:-1] != self.grid_shape:
            raise ShapeError(f"feature map {x.shape} does not match token grid {self.grid_shape}")
        tokens = x[..., self.coords[:, 0], self.coords[:, 1], :]
        return TokenSet(tokens=tokens, coords=self.coords, grid_shape=self.grid_shape)


def gather_tokens(x: np.ndarray, keep: np.ndarray) -> TokenSet:
    """Collect tokens where keep is True, scanning rows left to right."""
    coords = np.argwhere(keep).astype(np.int64)
    return TokenSet(np.empty((len(coords), 0)), coords, keep.shape).regather(x)


def scatter_tokens(ts: TokenSet, base: np.ndarray) -> np.ndarray:
    """Write tokens into a copy of base at their coordinates; a (..., H, W, C)
    base takes a (..., n, C) token stack."""
    if base.ndim < 3 or base.shape[-3:-1] != ts.grid_shape:
        raise ShapeError(f"base {base.shape} does not match token grid {ts.grid_shape}")
    want = base.shape[:-3] + (len(ts), base.shape[-1])
    if ts.tokens.shape != want:
        raise ShapeError(f"tokens {ts.tokens.shape} do not fit base {base.shape}; expected {want}")
    if len(ts) and (
        ts.coords.min() < 0
        or ts.coords[:, 0].max() >= base.shape[-3]
        or ts.coords[:, 1].max() >= base.shape[-2]
    ):
        raise ShapeError("token coordinates fall outside the base grid")
    out = base.copy()
    out[..., ts.coords[:, 0], ts.coords[:, 1], :] = ts.tokens
    return out


def kept_ratio(keep: np.ndarray) -> float:
    """Fraction of tokens kept, in [0, 1]."""
    return float(np.count_nonzero(keep)) / keep.size

"""Gather kept tokens from a feature map and scatter them back.

A feature map is a (C, H_t, W_t) array. Gathering collects the kept
tokens in row-major coordinate order into an (n, C) matrix; scattering
writes them back over a base map, leaving discarded positions bit-equal
to the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError


@dataclass
class TokenSet:
    """Kept tokens in row-major order with their grid coordinates."""

    tokens: np.ndarray      # (n, C)
    coords: np.ndarray      # (n, 2) int64, rows then cols
    grid_shape: tuple[int, int]

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @cached_property
    def index(self) -> np.ndarray:
        """(H, W) int64 map of each kept token's row; -1 where discarded."""
        idx = np.full(self.grid_shape, -1, dtype=np.int64)
        idx[self.coords[:, 0], self.coords[:, 1]] = np.arange(len(self))
        return idx

    def regather(self, x: np.ndarray) -> TokenSet:
        """The tokens of a (C, H, W) map at this set's positions, as a new set."""
        if x.ndim != 3 or x.shape[1:] != self.grid_shape:
            raise ShapeError(f"feature map {x.shape} does not match token grid {self.grid_shape}")
        tokens = x[:, self.coords[:, 0], self.coords[:, 1]].T.copy()
        return TokenSet(tokens=tokens, coords=self.coords, grid_shape=self.grid_shape)


def gather_tokens(x: np.ndarray, keep: np.ndarray) -> TokenSet:
    """Collect tokens where keep is True, scanning rows left to right."""
    coords = np.argwhere(keep).astype(np.int64)
    return TokenSet(np.empty((len(coords), 0)), coords, keep.shape).regather(x)


def scatter_tokens(ts: TokenSet, base: np.ndarray) -> np.ndarray:
    """Write tokens into a copy of base at their coordinates."""
    if base.ndim != 3 or base.shape[1:] != ts.grid_shape:
        raise ShapeError(f"base {base.shape} does not match token grid {ts.grid_shape}")
    if ts.tokens.shape[1] != base.shape[0]:
        raise ShapeError(f"token width {ts.tokens.shape[1]} does not match channels {base.shape[0]}")
    if len(ts) and (
        ts.coords.min() < 0
        or ts.coords[:, 0].max() >= base.shape[1]
        or ts.coords[:, 1].max() >= base.shape[2]
    ):
        raise ShapeError("token coordinates fall outside the base grid")
    out = base.copy()
    out[:, ts.coords[:, 0], ts.coords[:, 1]] = ts.tokens.T
    return out


def kept_ratio(keep: np.ndarray) -> float:
    """Fraction of tokens kept, in [0, 1]."""
    return float(np.count_nonzero(keep)) / keep.size

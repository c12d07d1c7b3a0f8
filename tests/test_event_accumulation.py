"""Event accumulation against scatter-and-mask oracles.

build_voxel_grid and accumulate_temporal_scores sum each event's shares
with one flat np.bincount, and event_io.split_windows cuts the sorted
stream into slices. The oracles below are the earlier forms of the same
three functions: np.add.at scatters into the grid and one boolean mask
per sub-window. Every output must match them byte for byte, and every
refusal must raise the same error type.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescan.errors import ConfigError, ValidationError
from sparsescan.event_io import EventStream, build_voxel_grid, split_windows
from sparsescan.stca import accumulate_temporal_scores


def voxel_oracle(stream: EventStream, bins: int) -> np.ndarray:
    if bins < 1:
        raise ConfigError("bin count must be at least 1")
    grid = np.zeros((2 * bins, stream.height, stream.width), dtype=np.float64)
    if stream.n_events == 0:
        return grid
    if bins == 1:
        tstar = np.zeros(stream.n_events, dtype=np.float64)
    else:
        if stream.span <= 0:
            raise ConfigError("window span must be positive to place events in bins")
        tstar = stream.offsets() * float(bins - 1) / float(stream.span)
    b0 = np.clip(np.floor(tstar).astype(np.int64), 0, bins - 1)
    w1 = tstar - b0
    w0 = 1.0 - w1
    chan = np.where(stream.ps > 0, 0, bins)
    np.add.at(grid, (chan + b0, stream.ys, stream.xs), w0)
    hi = w1 > 0
    up = b0[hi] + 1
    keep = up < bins
    if np.any(keep):
        np.add.at(grid, ((chan[hi] + up)[keep], stream.ys[hi][keep], stream.xs[hi][keep]),
                  w1[hi][keep])
    return grid


def scores_oracle(stream: EventStream) -> np.ndarray:
    grid = np.zeros((stream.height, stream.width), dtype=np.float64)
    if stream.n_events == 0:
        return grid
    if stream.span <= 0:
        raise ValidationError("cannot normalize timestamps over a zero-length window")
    np.add.at(grid, (stream.ys, stream.xs), stream.offsets() / float(stream.span))
    return grid


def split_oracle(stream: EventStream, n: int) -> list[EventStream]:
    if n == 1:
        return [stream]
    steps = np.rint(np.linspace(0, stream.span, n + 1))
    edges = [stream.window_start] + [stream.window_start + int(v) for v in steps[1:-1]] \
        + [stream.window_end]
    out = []
    for i in range(n):
        lo, hi = edges[i], edges[i + 1]
        sel = (stream.ts >= lo) & ((stream.ts <= hi) if i + 1 == n else (stream.ts < hi))
        out.append(EventStream(stream.xs[sel], stream.ys[sel], stream.ts[sel], stream.ps[sel],
                               width=stream.width, height=stream.height,
                               window_start=lo, window_end=hi))
    return out


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def same_outcome(run, oracle):
    """run() matches oracle() byte for byte, or both raise the same error type."""
    try:
        want = oracle()
    except (ConfigError, ValidationError) as exc:
        with pytest.raises(type(exc)):
            run()
        return
    assert same_bytes(run(), want)


@st.composite
def streams(draw):
    """Small streams over the awkward spans, with events on both window edges."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    span = draw(st.sampled_from([0, 1, 2, 7, 1000, 10**6]))
    start = draw(st.sampled_from([0, -5, 123_456_789, -2**63, 2**63 - 1 - span]))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(0, span, size=n, endpoint=True)
    if n:
        edge = draw(st.sampled_from(["none", "start", "end", "both"]))
        if edge in ("start", "both"):
            offsets[0] = 0
        if edge in ("end", "both"):
            offsets[-1] = span
    polarity = draw(st.sampled_from([(1,), (-1,), (-1, 1)]))
    return EventStream(rng.integers(0, w, size=n), rng.integers(0, h, size=n),
                       start + np.sort(offsets), rng.choice(polarity, size=n),
                       width=w, height=h, window_start=start, window_end=start + span)


class TestAccumulationFuzz:
    """The bincount and searchsorted forms give the oracles' bytes on any stream."""

    @settings(max_examples=150, deadline=None)
    @given(stream=streams())
    def test_matches_scatter_and_mask_oracles(self, stream):
        for bins in (1, 2, 3, 10):
            same_outcome(lambda: build_voxel_grid(stream, bins).values,
                         lambda: voxel_oracle(stream, bins))
        same_outcome(lambda: accumulate_temporal_scores(stream), lambda: scores_oracle(stream))
        for k in (1, 2, 3, 5):
            got, want = split_windows(stream, k), split_oracle(stream, k)
            assert len(got) == len(want) == k
            for g, o in zip(got, want):
                assert (g.width, g.height, g.window_start, g.window_end) == \
                    (o.width, o.height, o.window_start, o.window_end)
                for field in ("xs", "ys", "ts", "ps"):
                    assert same_bytes(getattr(g, field), getattr(o, field))

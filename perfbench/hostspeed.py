"""Host-speed probe: a fixed numpy kernel timed next to every measured call.

The shared VMs this benchmark runs on switch between a fast and a slow
state every few seconds, through load elsewhere on the host that the
guest cannot see: the same window takes ~62 ms in one and ~83 ms in the
other, and process CPU time moves with wall time, so it is not
descheduling. The share of a run spent in the slow state then decides
its wall-clock median: over 40 s slices of one 240 s recording of the
`window-64` forward, the median window's interquartile spread was 0.076
of its median, and its range 0.33.

The probe is three ``np.exp`` calls over a fixed 200k-element array,
into a fixed output buffer so that it never allocates and the program's
allocation history cannot change it. An untimed call first brings both
arrays back into cache: just after a window the first call reads ~40%
slower, by an amount that depends on what the window left in cache.
Like the backbone (``s6.discretize`` is ``np.exp`` over (T, L, N)), the
probe is elementwise numpy, and it slows in the slow state by about the
same factor. A timing is scaled by ``REF_MS / probe``, the probe taken
next to it, so that it reads as if the host had stayed in its fast
state. On the same recording
the scaled median's spread was 0.022, and its range 0.038.

The probe depends on numpy alone, never on the program, and it runs
only while no measured call is running. A program change that left work
running between calls would slow the probe and flatter the scaled
figures; the record keeps the probe times and the unscaled wall figures
so that a shift in either shows.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's time in the fast state of the 2-vCPU x86-64 VM the
# benchmark was defined on, so that scaled figures read close to wall
# time there. Fixed: changing it rescales every timing metric.
REF_MS = 0.60
_SIZE = 200_000
_REPEATS = 3


class HostProbe:
    def __init__(self):
        self._x = np.random.default_rng(0).normal(size=_SIZE)
        self._out = np.empty_like(self._x)

    def ms(self) -> float:
        """One probe, in milliseconds."""
        np.exp(self._x, out=self._out)
        t0 = perf_counter()
        for _ in range(_REPEATS):
            np.exp(self._x, out=self._out)
        return (perf_counter() - t0) * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns a wall time between two probes into fast-state time."""
    return REF_MS / (0.5 * (before_ms + after_ms))

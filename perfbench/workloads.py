"""Workload definitions, input generation, the timed pipelines and output checks.

Shared by ``run.py`` (which generates inputs and references) and
``worker.py`` (which measures). The program is driven only through its
Python API, and every module function the pipelines call is looked up on
its module at call time, so that ``tracer.py`` can wrap it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
PATCH = 4          # STCA patch, equal to the backbone's default patch
BINS = 10          # voxel time bins, the `sparsescan forward` default
PARAM_SEED = 0     # `sparsescan forward --seed` default
SPARSE_TOL = 1e-9  # scan-equivalence tolerance of the acceptance battery
DENSE_TOL = 1e-6   # dense-consistency tolerance of the acceptance battery
DIGEST_PATH = Path(__file__).resolve().parent / "digest.json"
_PROJECTIONS = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    size: int                  # sensor width and height in pixels
    duration_us: int           # window length
    noise_rate: float | None   # events/px/s; None keeps the preset's rate
    scenes: int                # distinct inputs cycled over in a run
    timesteps: int             # 0: ingest only, no backbone
    parallel: bool             # parallel scan kernels
    latency_share: float       # share of --seconds for the closed loop; rest is throughput
    dense_share: float         # share of the closed loop spent on dense reference runs


WORKLOADS = {
    w.name: w for w in (
        Workload("ingest-256", "edge-noise", 256, 1_000_000, 5.0, scenes=3,
                 timesteps=0, parallel=False, latency_share=0.6, dense_share=0.3),
        Workload("window-64", "sparse30", 64, 100_000, None, scenes=6,
                 timesteps=1, parallel=False, latency_share=0.55, dense_share=0.3),
        Workload("recurrent-64-t4", "edge-noise", 64, 100_000, None, scenes=3,
                 timesteps=4, parallel=True, latency_share=0.7, dense_share=0.2),
    )
}


def import_program(root: Path):
    """Import sparsescan from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "sparsescan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sparsescan sources under {src}; "
                         "run from the repository root")
    sys.path.insert(0, str(src))
    import sparsescan
    if Path(sparsescan.__file__).resolve().parent != src / "sparsescan":
        raise SystemExit(f"perfbench: imported sparsescan from {sparsescan.__file__}, "
                         f"not from {src}")
    return sparsescan


def scene_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def generate_scene(ss, wl: Workload, seed: int):
    spec = ss.scene_preset(wl.preset, width=wl.size, height=wl.size,
                           duration_us=wl.duration_us)
    if wl.noise_rate is not None:
        spec = dataclasses.replace(spec, noise_rate=wl.noise_rate)
    stream, _ = ss.generate_synthetic_scene(spec, seed=seed)
    return stream


def split_windows(ss, stream, n: int):
    """Cut a stream into n contiguous sub-windows, as `sparsescan forward` does.

    A copy of the CLI's private helper, so the benchmark depends only on
    the package's public API.
    """
    if n == 1:
        return [stream]
    edges = np.rint(np.linspace(stream.window_start, stream.window_end, n + 1)).astype(np.int64)
    out = []
    for i in range(n):
        lo, hi = int(edges[i]), int(edges[i + 1])
        sel = (stream.ts >= lo) & ((stream.ts <= hi) if i + 1 == n else (stream.ts < hi))
        out.append(ss.EventStream(stream.xs[sel], stream.ys[sel], stream.ts[sel],
                                  stream.ps[sel], width=stream.width, height=stream.height,
                                  window_start=lo, window_end=hi))
    return out


@dataclasses.dataclass
class Window:
    """What one window produced: the STCA result, voxel grids and stage outputs."""

    n_events: int
    stca: object
    voxels: list
    outputs: list | None   # per timestep, per stage; None on ingest


class Runner:
    """The timed per-window paths of one workload."""

    def __init__(self, ss, wl: Workload):
        self.ss = ss
        self.wl = wl
        self.cfg = self.params = None
        if wl.timesteps:
            self.cfg = ss.BackboneConfig(height=wl.size, width=wl.size, bins=BINS)
            self.params = ss.backbone.init_backbone_params(self.cfg, seed=PARAM_SEED)

    def window(self, path) -> Window:
        """One closed-loop window: load, STCA, voxel grid(s) and the sparse forward."""
        ss = self.ss
        stream = ss.event_io.load_events(path)
        res = ss.stca.run_stca(stream, patch=PATCH)
        subs = split_windows(ss, stream, self.wl.timesteps) if self.wl.timesteps else [stream]
        voxels = [ss.event_io.build_voxel_grid(sub, BINS) for sub in subs]
        outputs = None
        if self.wl.timesteps:
            outputs, _ = ss.backbone.backbone_forward(voxels, res.keep, res.scores, self.cfg,
                                                      self.params, parallel=self.wl.parallel)
        return Window(stream.n_events, res, voxels, outputs)

    def dense(self, path, win: Window) -> Window:
        """The same window with an all-true keep mask in place of STCA's.

        On the forward workloads this is the dense backbone forward alone,
        over the voxel grids the sparse window built. Ingest has no
        backbone, so its dense path is the ingest path without scoring:
        load and voxel grid.
        """
        ss = self.ss
        if not self.wl.timesteps:
            stream = ss.event_io.load_events(path)
            return Window(stream.n_events, None,
                          [ss.event_io.build_voxel_grid(stream, BINS)], None)
        keep = np.ones_like(win.stca.keep)
        outputs, _ = ss.backbone.backbone_forward(win.voxels, keep, win.stca.scores, self.cfg,
                                                  self.params, parallel=self.wl.parallel)
        return Window(win.n_events, win.stca, win.voxels, outputs)


def rel_err(a, b) -> float:
    """The battery's relative error: max abs difference over max abs reference."""
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-12))


def _stage_arrays(outputs):
    return [out for step in outputs for out in step]


def check_outputs(got, want, tol) -> str | None:
    """Compare per-stage outputs with reference arrays; None when they agree."""
    got, want = _stage_arrays(got), list(want)
    if len(got) != len(want):
        return f"{len(got)} stage outputs, reference has {len(want)}"
    for k, (a, b) in enumerate(zip(got, want)):
        if a.shape != b.shape:
            return f"output {k} shape {a.shape}, reference {b.shape}"
        if not np.isfinite(a).all():
            return f"output {k} is not finite"
        err = rel_err(a, b)
        if not err <= tol:
            return f"output {k} rel err {err:.3g} > {tol:g}"
    return None


def check_ingest(win: Window, ref_keep, ref_events: int) -> str | None:
    if win.n_events != ref_events:
        return f"{win.n_events} events, generated {ref_events}"
    if ref_keep is not None and not np.array_equal(win.stca.keep, ref_keep):
        return "keep mask differs from the brute-force mask"
    values = win.voxels[0].values
    total = float(values.sum())
    if not np.isfinite(values).all() or abs(total - ref_events) > SPARSE_TOL * max(ref_events, 1):
        return f"voxel grid sums to {total!r}, not {ref_events}"
    return None


def _projection_vectors(size: int):
    rng = np.random.default_rng(size)
    return rng.normal(size=(_PROJECTIONS, size))


def digest(outputs) -> list[dict]:
    """Per stage output: its max |value| and a few fixed random projections."""
    out = []
    for a in _stage_arrays(outputs):
        flat = a.ravel()
        out.append({"maxabs": float(np.abs(flat).max()),
                    "proj": [float(v) for v in _projection_vectors(flat.size) @ flat]})
    return out


def check_digest(outputs, want: list[dict]) -> str | None:
    """Agreement within SPARSE_TOL relative (max norm) implies each check passes."""
    arrays = _stage_arrays(outputs)
    if len(arrays) != len(want):
        return f"{len(arrays)} stage outputs, digest has {len(want)}"
    for k, (a, w) in enumerate(zip(arrays, want)):
        flat = a.ravel()
        scale = SPARSE_TOL * w["maxabs"]
        if not abs(float(np.abs(flat).max()) - w["maxabs"]) <= scale:
            return f"output {k} max |value| differs from the digest"
        vecs = _projection_vectors(flat.size)
        diff = np.abs(vecs @ flat - np.array(w["proj"]))
        if not np.all(diff <= scale * np.abs(vecs).sum(axis=1)):
            return f"output {k} projections differ from the digest"
    return None


def load_digest() -> dict:
    return json.loads(DIGEST_PATH.read_text())

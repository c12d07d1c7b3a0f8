"""Event stream I/O, synthetic scene generation, and voxelization.

An event is a tuple (x, y, t, p): pixel coordinates, a microsecond
timestamp, and a polarity in {-1, +1}. Streams are stored as parallel
int64 arrays sorted by timestamp, together with the sensor geometry and
the time window that produced them.

Two file formats are supported:

* CSV: a geometry line ``W=<w>,H=<h>[,T0=<start>,T1=<end>]``, a column
  header ``x,y,t,p``, then one event per line as decimal integers.
* Binary: a 16-byte little-endian header (magic ``EVT1``, u16 width,
  u16 height, u64 window span in microseconds) followed by 12-byte
  records (u16 x, u16 y, u32 t offset from window start, i8 polarity,
  3 zero pad bytes). Polarity -1 is stored as the signed byte 0xFF.
  The absolute window start is not stored, so a loaded binary stream
  has its window at [0, span]; saving it back is byte-identical.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, OrderingError, ValidationError

_BIN_MAGIC = b"EVT1"
_BIN_HEADER = struct.Struct("<4sHHQ")
_BIN_RECORD = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<u4"), ("p", "i1"), ("pad", "V3")])
_INT64 = range(-2**63, 2**63)


@dataclass
class EventStream:
    """A time-ordered event stream with sensor geometry and window bounds.

    Invariants checked at construction: coordinates inside the sensor,
    polarities in {-1, +1}, timestamps non-decreasing and contained in
    [window_start, window_end].
    """

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray
    width: int
    height: int
    window_start: int
    window_end: int

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.int64)
        self.ys = np.asarray(self.ys, dtype=np.int64)
        self.ts = np.asarray(self.ts, dtype=np.int64)
        self.ps = np.asarray(self.ps, dtype=np.int64)
        n = self.xs.size
        if not (self.ys.size == self.ts.size == self.ps.size == n):
            raise ValidationError("event field arrays must have equal length")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"sensor geometry must be positive, got {self.width}x{self.height}")
        if self.window_end < self.window_start:
            raise ValidationError("window end precedes window start")
        if n == 0:
            return
        if self.xs.min() < 0 or self.xs.max() >= self.width or self.ys.min() < 0 or self.ys.max() >= self.height:
            raise ValidationError("event coordinates out of sensor bounds")
        if not np.isin(self.ps, (-1, 1)).all():
            raise ValidationError("polarities must be -1 or +1")
        if np.any(np.diff(self.ts) < 0):
            raise OrderingError("event timestamps must be non-decreasing")
        if self.ts[0] < self.window_start or self.ts[-1] > self.window_end:
            raise ValidationError("event timestamps fall outside the window")

    @property
    def n_events(self) -> int:
        return self.xs.size

    @property
    def span(self) -> int:
        return self.window_end - self.window_start


@dataclass(frozen=True)
class VoxelGrid:
    """Bilinear temporal voxelization of a stream, shape (2*bins, H, W).

    Channels 0..bins-1 hold positive events, bins..2*bins-1 negative ones.
    """

    values: np.ndarray
    bins: int
    span_us: int


@dataclass(frozen=True)
class EdgeSegment:
    """A line segment translating at a constant pixel velocity.

    Every pixel the segment sweeps over emits a burst of
    ``events_per_crossing`` events at consecutive microsecond timestamps
    starting when the edge first reaches it.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    vx: float
    vy: float
    events_per_crossing: int = 5


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene: moving edges plus uniform per-pixel Poisson noise."""

    width: int
    height: int
    duration_us: int
    segments: tuple[EdgeSegment, ...]
    noise_rate: float  # events per pixel per second


def load_events(path: str | Path, format: str | None = None) -> EventStream:
    """Load an event stream, inferring the format from the extension.

    ``format`` may be "csv" or "bin" to override inference.
    """
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "bin")
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "bin":
        return _load_bin(path)
    raise ConfigError(f"unknown event format {fmt!r}")


def save_events(stream: EventStream, path: str | Path, format: str | None = None) -> None:
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "bin")
    if fmt == "csv":
        _save_csv(stream, path)
    elif fmt == "bin":
        _save_bin(stream, path)
    else:
        raise ConfigError(f"unknown event format {fmt!r}")


def _load_csv(path: Path) -> EventStream:
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text (byte offset {exc.start})") from None
    if len(lines) < 2:
        raise FormatError(f"{path}: expected a geometry line and a column header")
    meta = {}
    for item in lines[0].split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise FormatError(f"{path} line 1: malformed geometry entry {item!r}")
        try:
            meta[key.strip()] = int(value)
        except ValueError:
            raise FormatError(f"{path} line 1: non-integer value in {item!r}") from None
        if meta[key.strip()] not in _INT64:
            raise FormatError(f"{path} line 1: value outside int64 in {item!r}")
    if "W" not in meta or "H" not in meta:
        raise FormatError(f"{path} line 1: geometry line must define W and H")
    if lines[1].strip() != "x,y,t,p":
        raise FormatError(f"{path} line 2: expected column header 'x,y,t,p'")
    rows = []
    for i, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path} line {i}: expected 4 fields, got {len(parts)}")
        try:
            row = tuple(int(v) for v in parts)
        except ValueError:
            raise FormatError(f"{path} line {i}: non-integer field in {line!r}") from None
        if not all(v in _INT64 for v in row):
            raise FormatError(f"{path} line {i}: field outside int64 in {line!r}")
        rows.append(row)
    data = np.array(rows, dtype=np.int64).reshape(-1, 4)
    t0 = meta.get("T0", 0)
    t1 = meta.get("T1", int(data[:, 2].max()) if len(rows) else 0)
    return EventStream(data[:, 0], data[:, 1], data[:, 2], data[:, 3],
                       width=meta["W"], height=meta["H"], window_start=t0, window_end=t1)


def _save_csv(stream: EventStream, path: Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"W={stream.width},H={stream.height},"
                 f"T0={stream.window_start},T1={stream.window_end}\n")
        fh.write("x,y,t,p\n")
        for x, y, t, p in zip(stream.xs, stream.ys, stream.ts, stream.ps):
            fh.write(f"{x},{y},{t},{p}\n")


def _load_bin(path: Path) -> EventStream:
    blob = Path(path).read_bytes()
    if len(blob) < _BIN_HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, width, height, span = _BIN_HEADER.unpack_from(blob)
    if magic != _BIN_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    body = blob[_BIN_HEADER.size:]
    if len(body) % _BIN_RECORD.itemsize:
        raise FormatError(f"{path}: truncated record at byte offset "
                          f"{_BIN_HEADER.size + len(body) - len(body) % _BIN_RECORD.itemsize}")
    rec = np.frombuffer(body, dtype=_BIN_RECORD)
    return EventStream(rec["x"].astype(np.int64), rec["y"].astype(np.int64),
                       rec["t"].astype(np.int64), rec["p"].astype(np.int64),
                       width=width, height=height, window_start=0, window_end=int(span))


def _save_bin(stream: EventStream, path: Path) -> None:
    if stream.width > 0xFFFF or stream.height > 0xFFFF:
        raise ValidationError("sensor geometry exceeds u16 range")
    if stream.span > 0xFFFFFFFFFFFFFFFF:
        raise ValidationError("window span exceeds u64 range")
    # timestamps are sorted; Python ints, since ts - window_start can leave int64
    if stream.n_events and int(stream.ts[-1]) - stream.window_start > 0xFFFFFFFF:
        raise ValidationError("window offsets exceed u32 range")
    rec = np.zeros(stream.n_events, dtype=_BIN_RECORD)
    rec["x"] = stream.xs
    rec["y"] = stream.ys
    rec["t"] = stream.ts - stream.window_start
    rec["p"] = stream.ps
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(_BIN_MAGIC, stream.width, stream.height, stream.span))
        fh.write(rec.tobytes())


def generate_synthetic_scene(spec: SceneSpec, seed: int) -> tuple[EventStream, np.ndarray]:
    """Generate a deterministic synthetic stream from a scene description.

    Returns the stream and a boolean (H, W) object mask marking every
    pixel swept by a segment. Edge pixels emit temporally contiguous
    bursts when the edge first reaches them; noise events are drawn
    independently per pixel (Poisson counts, uniform timestamps), so
    they are spatially isolated and temporally discontinuous.
    """
    if spec.width < 1 or spec.height < 1:
        raise ConfigError(f"scene size {spec.width}x{spec.height} must be positive")
    if spec.duration_us <= 0:
        raise ConfigError("scene duration must be positive")
    if spec.noise_rate < 0:
        raise ConfigError("noise rate must be non-negative")
    rng = np.random.default_rng(seed)
    h, w = spec.height, spec.width
    visited = np.zeros((h, w), dtype=bool)
    xs, ys, ts, ps = [], [], [], []

    for seg in spec.segments:
        length = math.hypot(seg.x1 - seg.x0, seg.y1 - seg.y0)
        speed = math.hypot(seg.vx, seg.vy)
        if length == 0.0 and speed == 0.0:
            raise ConfigError("segment sweeps zero area (no extent, no motion)")
        if seg.events_per_crossing < 1:
            raise ConfigError("events_per_crossing must be at least 1")
        dur_s = spec.duration_us * 1e-6
        # Sample times and arc length finely enough that no pixel is skipped.
        n_steps = max(2, int(math.ceil(speed * dur_s / 0.4)) + 1)
        n_pts = max(2, int(math.ceil(length / 0.4)) + 1)
        taus = np.linspace(0.0, spec.duration_us, n_steps)
        lam = np.linspace(0.0, 1.0, n_pts)
        base_x = seg.x0 + lam * (seg.x1 - seg.x0)
        base_y = seg.y0 + lam * (seg.y1 - seg.y0)
        count = seg.events_per_crossing
        for tau in taus:
            px = np.rint(base_x + seg.vx * tau * 1e-6).astype(np.int64)
            py = np.rint(base_y + seg.vy * tau * 1e-6).astype(np.int64)
            ok = (px >= 0) & (px < w) & (py >= 0) & (py < h)
            px, py = px[ok], py[ok]
            fresh = ~visited[py, px]
            px, py = px[fresh], py[fresh]
            if px.size == 0:
                continue
            # A pixel can appear twice within one step's rasterization.
            flat = py * w + px
            flat, first = np.unique(flat, return_index=True)
            px, py = px[first], py[first]
            visited[py, px] = True
            t0 = min(int(round(tau)), spec.duration_us - count + 1)
            t0 = max(t0, 0)
            burst = t0 + np.arange(count, dtype=np.int64)
            for bx, by in zip(px, py):
                xs.append(np.full(count, bx, dtype=np.int64))
                ys.append(np.full(count, by, dtype=np.int64))
                ts.append(burst)
                ps.append(rng.choice((-1, 1), size=count).astype(np.int64))

    if spec.noise_rate > 0:
        lam = spec.noise_rate * spec.duration_us * 1e-6
        counts = rng.poisson(lam, size=(h, w))
        total = int(counts.sum())
        if total:
            yy, xx = np.nonzero(counts)
            reps = counts[yy, xx]
            xs.append(np.repeat(xx, reps).astype(np.int64))
            ys.append(np.repeat(yy, reps).astype(np.int64))
            ts.append(rng.integers(0, spec.duration_us + 1, size=total, dtype=np.int64))
            ps.append(rng.choice((-1, 1), size=total).astype(np.int64))

    if xs:
        ax = np.concatenate(xs)
        ay = np.concatenate(ys)
        at = np.concatenate(ts)
        ap = np.concatenate(ps)
        order = np.argsort(at, kind="stable")
        ax, ay, at, ap = ax[order], ay[order], at[order], ap[order]
    else:
        ax = ay = at = ap = np.empty(0, dtype=np.int64)
    stream = EventStream(ax, ay, at, ap, width=w, height=h,
                         window_start=0, window_end=spec.duration_us)
    return stream, visited


def scene_preset(name: str, width: int = 64, height: int = 64,
                 duration_us: int = 100_000) -> SceneSpec:
    """Named scene presets used by the CLI and the acceptance battery."""
    dur_s = duration_us * 1e-6
    if name == "edge-noise":
        seg = EdgeSegment(x0=10, y0=16, x1=10, y1=height * 0.75,
                          vx=0.25 * width / dur_s, vy=0.0)
        return SceneSpec(width, height, duration_us, (seg,), noise_rate=1.0)
    if name == "sparse30":
        # Sweeps roughly 28% of the sensor; light noise adds a few percent
        # of isolated pixels, landing near a 30% event spatial ratio.
        seg = EdgeSegment(x0=width * 0.1, y0=height * 0.25,
                          x1=width * 0.1, y1=height * 0.75,
                          vx=0.55 * width / dur_s, vy=0.0)
        return SceneSpec(width, height, duration_us, (seg,), noise_rate=0.5)
    if name == "noise-only":
        return SceneSpec(width, height, duration_us, (), noise_rate=2.0)
    raise ConfigError(f"unknown scene preset {name!r}")


def event_spatial_ratio(stream: EventStream) -> float:
    """Fraction of sensor pixels that fired at least one event."""
    if stream.n_events == 0:
        return 0.0
    flat = stream.ys * stream.width + stream.xs
    return np.unique(flat).size / (stream.width * stream.height)


def build_voxel_grid(stream: EventStream, bins: int) -> VoxelGrid:
    """Voxelize a stream into (2*bins, H, W) with bilinear time weights.

    The normalized time of an event is t* = (t - window_start) * (bins - 1)
    / span; it contributes max(0, 1 - |b - t*|) to bin b of its polarity
    channel, so each event's total contributed weight is exactly 1. With
    bins == 1 every event lands fully in the single bin.
    """
    if bins < 1:
        raise ConfigError("bin count must be at least 1")
    grid = np.zeros((2 * bins, stream.height, stream.width), dtype=np.float64)
    if stream.n_events == 0:
        return VoxelGrid(grid, bins, stream.span)
    if bins == 1:
        tstar = np.zeros(stream.n_events, dtype=np.float64)
    else:
        if stream.span <= 0:
            raise ConfigError("window span must be positive to place events in bins")
        tstar = (stream.ts - stream.window_start) * float(bins - 1) / float(stream.span)
    b0 = np.floor(tstar).astype(np.int64)
    b0 = np.clip(b0, 0, bins - 1)
    w1 = tstar - b0
    w0 = 1.0 - w1
    chan = np.where(stream.ps > 0, 0, bins)
    np.add.at(grid, (chan + b0, stream.ys, stream.xs), w0)
    hi = w1 > 0
    up = b0[hi] + 1
    keep = up < bins
    if np.any(keep):
        np.add.at(grid, ((chan[hi] + up)[keep], stream.ys[hi][keep], stream.xs[hi][keep]), w1[hi][keep])
    return VoxelGrid(grid, bins, stream.span)

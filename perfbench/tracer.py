"""Outside-in tracer: spans around calls into the program's modules.

The program looks most functions up on their module at call time
(``backbone.sparse_ss2d``, ``s6.discretize_zoh``, ...). The tracer swaps
those module attributes for wrappers that record one span per call: name,
block label, start, end, parent span and window id. Nothing in the
program is edited, and uninstalling restores the original attributes.

Spans stay in memory until ``write``. A name that no longer exists on its
module is reported as absent instead of failing, so the benchmark keeps
working when a later change fuses or removes a kernel.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

WINDOW = "bench.window"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_events(c, args, kwargs, result):
    c["event_io.events"] += result.n_events


def _count_kept(c, args, kwargs, result):
    c["stca.calls"] += 1
    c["stca.kept_sum"] += float(result.keep.mean())


def _count_gather(c, args, kwargs, result):
    c["sparsify.gather_calls"] += 1
    c["sparsify.kept_tokens"] += len(result)


def _count_order(c, args, kwargs, result):
    c["scan_order.calls"] += 1


def _count_s6(c, args, kwargs, result):
    t_len, lanes = _arg(args, kwargs, 0, "x").shape
    c["s6.calls"] += 1
    c["s6.steps"] += t_len
    c["s6.coeff_elems"] += t_len * lanes * _arg(args, kwargs, 1, "p").n_state


def _count_coeffs(c, args, kwargs, result):
    c["s6.coeff_bytes"] += result.abar.nbytes + result.bx.nbytes


def _count_conv(c, args, kwargs, result):
    c["nn.conv2d_calls"] += 1


# (module, attribute, span name, count hook). Functions the backbone
# imported by name are wrapped on the backbone module, where it looks
# them up; `workloads.split_windows` is the benchmark's own code.
WRAPS = (
    ("event_io", "load_events", "event_io.load", _count_events),
    ("event_io", "build_voxel_grid", "event_io.voxel", None),
    ("workloads", "split_windows", "bench.split", None),
    ("stca", "run_stca", "stca.run", _count_kept),
    ("backbone", "backbone_forward", "backbone.forward", None),
    ("backbone", "patch_embed", "backbone.embed", None),
    ("backbone", "sparse_ss2d", "backbone.ss2d", None),
    ("backbone", "_sparse_depthwise", "backbone.sparse_depthwise", None),
    ("backbone", "sparse_mlp", "backbone.mlp", None),
    ("backbone", "gci_forward", "backbone.gci", None),
    ("backbone", "convlstm_step", "backbone.lstm", None),
    ("backbone", "downsample_features", "backbone.down", None),
    ("backbone", "gather_tokens", "sparsify.gather", _count_gather),
    ("backbone", "ipl_order", "scan_order.ipl", _count_order),
    ("backbone", "invert", "scan_order.invert", _count_order),
    ("backbone", "downsample_map", "stca.downsample", None),
    ("backbone", "max_pool2d", "stca.downsample", None),
    ("backbone", "s6_forward", "s6.forward", _count_s6),
    ("backbone", "conv2d_same", "nn.conv2d", _count_conv),
    ("s6", "parameterize", "s6.parameterize", _count_coeffs),
    ("s6", "discretize_zoh", "s6.discretize", None),
    ("s6", "selective_scan_seq", "s6.scan", None),
    ("s6", "selective_scan_parallel", "s6.scan", None),
)

# Per-layer self times: the metric sums the self time of these spans.
SELF_MS = {
    "event_io.load_ms": "event_io.load",
    "event_io.voxel_ms": "event_io.voxel",
    "bench.split_ms": "bench.split",
    "stca.run_ms": "stca.run",
    "stca.downsample_ms": "stca.downsample",
    "sparsify.gather_ms": "sparsify.gather",
    "scan_order.ipl_ms": "scan_order.ipl",
    "scan_order.invert_ms": "scan_order.invert",
    "s6.parameterize_ms": "s6.parameterize",
    "s6.discretize_ms": "s6.discretize",
    "s6.scan_ms": "s6.scan",
    "nn.conv2d_ms": "nn.conv2d",
    "backbone.embed_ms": "backbone.embed",
    "backbone.ss2d_ms": "backbone.ss2d",
    "backbone.sparse_depthwise_ms": "backbone.sparse_depthwise",
    "backbone.mlp_ms": "backbone.mlp",
    "backbone.gci_ms": "backbone.gci",
    "backbone.lstm_ms": "backbone.lstm",
    "backbone.down_ms": "backbone.down",
}

# Meter labels of the default backbone configuration, in forward order.
LABELS = ("embed",) + tuple(
    f"stage{s}.{block}" for s in range(1, 5)
    for block in ("ss2d", "mlp" if s < 3 else "gci", "lstm") + (("down",) if s < 4 else ()))

BLOCKS = ("backbone.embed", "backbone.ss2d", "backbone.mlp", "backbone.gci",
          "backbone.lstm", "backbone.down")

COUNTS = ("event_io.events", "stca.kept_ratio", "sparsify.gather_calls",
          "sparsify.kept_tokens", "scan_order.calls", "s6.calls", "s6.steps",
          "s6.coeff_elems", "s6.coeff_mb_computed", "nn.conv2d_calls")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {name: "ms" for name in SELF_MS}
    units["backbone.forward_ms"] = "ms"
    units["s6.in_ss2d_ms"] = "ms"
    units["s6.in_gci_ms"] = "ms"
    # embed has no traced children, so its inclusive time is backbone.embed_ms
    units.update({f"backbone.{label}_ms": "ms" for label in LABELS[1:]})
    units.update({name: "count" for name in COUNTS})
    units["stca.kept_ratio"] = "ratio"
    units["s6.coeff_mb_computed"] = "MB"
    units.update({"flops.sparse_mflop": "MFLOP", "flops.dense_mflop": "MFLOP",
                  "flops.reduction": "ratio", "flops.analytic_gap": "ratio"})
    units.update({f"flops.{label}_mflop": "MFLOP" for label in LABELS})
    units["backbone.sparse_mflops_per_s"] = "MFLOP/s"
    units.update({"trace.overhead_pct": "%", "trace.attributed_pct": "%",
                  "trace.unattributed_ms": "ms", "trace.absent_wraps": "count"})
    return units


def _label_param(fn):
    """Position and default of fn's ``label`` parameter, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for i, p in enumerate(params):
        if p.name == "label":
            return i, (None if p.default is p.empty else p.default)
    return None


class Tracer:
    def __init__(self, modules: dict):
        self.spans: list[list] = []    # [name, label, start_ns, end_ns, parent, window]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors = 0
        self._stack: list[int] = []
        self._window = None
        self._swaps = []
        for mod_name, attr, span, hook in WRAPS:
            module = modules.get(mod_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._swaps.append((module, attr, original, self._wrap(original, span, hook)))

    def _wrap(self, fn, name, hook):
        label_param = _label_param(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = None
            if label_param is not None:
                at, default = label_param
                label = kwargs.get("label", args[at] if len(args) > at else default)
            idx = len(spans)
            spans.append([name, label, perf_counter_ns(), 0,
                          stack[-1] if stack else -1, self._window])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter_ns()
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.hook_errors += 1
            return result
        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    @contextmanager
    def window(self, window_id):
        """Trace one window: install the wrappers and open its root span."""
        self._window = window_id
        idx = len(self.spans)
        self.spans.append([WINDOW, None, perf_counter_ns(), 0, -1, window_id])
        self._stack.append(idx)
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self._stack.pop()
            self.spans[idx][3] = perf_counter_ns()
            self._window = None

    def write(self, path):
        with open(path, "w") as fh:
            for name, label, start, end, parent, window in self.spans:
                fh.write(json.dumps({"name": name, "label": label, "start_ns": start,
                                     "end_ns": end, "parent": parent, "window": window}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-window means of self times, inclusive times and counts."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0] * len(spans)
        for s, d in zip(spans, dur):
            if s[4] >= 0:
                child[s[4]] += d
        self_ns, incl_ns, label_ns = Counter(), Counter(), Counter()
        for i, s in enumerate(spans):
            self_ns[s[0]] += dur[i] - child[i]
            incl_ns[s[0]] += dur[i]
            if s[0] in BLOCKS:
                label_ns[s[1]] += dur[i]
            elif s[0] == "s6.forward":
                p = s[4]
                while p >= 0 and spans[p][0] not in BLOCKS:
                    p = spans[p][4]
                if p >= 0:
                    incl_ns[f"s6.in_{spans[p][0].split('.')[1]}"] += dur[i]
        windows = max(1, sum(1 for s in spans if s[0] == WINDOW))
        ms = 1e-6 / windows
        out = {metric: self_ns[span] * ms for metric, span in SELF_MS.items()}
        out["backbone.forward_ms"] = incl_ns["backbone.forward"] * ms
        out["s6.in_ss2d_ms"] = incl_ns["s6.in_ss2d"] * ms
        out["s6.in_gci_ms"] = incl_ns["s6.in_gci"] * ms
        for label in LABELS[1:]:
            out[f"backbone.{label}_ms"] = label_ns[label] * ms
        c = self.counts
        for name in COUNTS:
            out[name] = c[name] / windows
        out["stca.kept_ratio"] = c["stca.kept_sum"] / max(1, c["stca.calls"])
        out["s6.coeff_mb_computed"] = c["s6.coeff_bytes"] / 1e6 / windows
        # window time outside any program span: benchmark glue and its split
        outside = self_ns[WINDOW] + incl_ns["bench.split"]
        out["trace.unattributed_ms"] = outside * ms
        out["trace.attributed_pct"] = 100.0 * (1.0 - outside / max(1, incl_ns[WINDOW]))
        out["trace.absent_wraps"] = float(len(self.absent))
        return out

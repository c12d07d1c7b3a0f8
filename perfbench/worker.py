"""Measuring process for one benchmark run.

Started by ``run.py`` as ``worker.py <plan.json> [--probe]`` in a fresh
interpreter that never generated the inputs. It imports the program,
builds the backbone parameters, runs one warm-up window and prints
``READY``; the parent times that as set-up. A probe exits there. A full
run then measures for the plan's seconds and prints one JSON line with the
raw measurements: closed-loop window and dense latencies plus threaded
throughput when untraced, or the per-layer breakdown when traced.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import workloads
from tracer import LABELS, Tracer
from workloads import WORKLOADS, Runner, check_ingest, check_outputs, import_program

MIN_WINDOWS = 100         # so that ten windows lie beyond the p90
THROUGHPUT_BLOCK_S = 1.2  # length of one throughput block


class Checker:
    """Checks window outputs against the references computed by run.py."""

    def __init__(self, wl, refs):
        self.wl = wl
        n = wl.scenes
        if wl.timesteps:
            self.sparse_ref = [self._arrays(refs, f"sparse{i}_") for i in range(n)]
            self.dense_ref = [self._arrays(refs, f"dense{i}_") for i in range(n)]
        else:
            self.keep = [refs[f"keep{i}"] for i in range(n)]
            self.events = [int(refs[f"events{i}"]) for i in range(n)]
        self.failures: list[str] = []

    @staticmethod
    def _arrays(refs, prefix):
        keys = sorted((k for k in refs.files if k.startswith(prefix)),
                      key=lambda k: int(k[len(prefix):]))
        return [refs[k] for k in keys]

    def sparse(self, i, win) -> str | None:
        if self.wl.timesteps:
            return check_outputs(win.outputs, self.sparse_ref[i], workloads.SPARSE_TOL)
        return check_ingest(win, self.keep[i], self.events[i])

    def dense(self, i, win) -> str | None:
        if self.wl.timesteps:
            return check_outputs(win.outputs, self.dense_ref[i], workloads.DENSE_TOL)
        return check_ingest(win, None, self.events[i])

    def note(self, scene, problem):
        if len(self.failures) < 20:
            self.failures.append(f"scene {scene}: {problem}")


def _run(fn, checker, scene, check) -> tuple[float, object, bool]:
    """Time fn(); returns (seconds, result or None, ok)."""
    t0 = perf_counter()
    try:
        result = fn()
    except Exception:
        checker.note(scene, traceback.format_exc(limit=3))
        return perf_counter() - t0, None, False
    elapsed = perf_counter() - t0
    problem = check(scene, result)
    if problem:
        checker.note(scene, problem)
    return elapsed, result, problem is None


class ClosedLoop:
    """One client: each window starts when the previous one finished.

    A dense reference run of the same window follows whenever dense runs
    have taken less than dense_share of the loop's time so far. A host
    probe follows every call; each call's time is kept both as wall time
    and scaled by the probes on either side of it (``hostspeed``).
    """

    def __init__(self, runner, checker, scenes, dense_share, probe):
        self.runner, self.checker, self.scenes = runner, checker, scenes
        self.dense_share = dense_share
        self.probe = probe
        self.window_s, self.dense_s = [], []                 # wall time
        self.window_scaled_s, self.dense_scaled_s = [], []   # host-scaled
        self.probe_ms = []
        self.last_probe = None
        self.attempted = self.failed = 0
        self.dense_spent = 0.0
        self.i = 0

    def _timed(self, fn, k, check):
        """_run with a probe on either side; returns (wall s, scaled s, result, ok)."""
        before = self.probe.ms() if self.last_probe is None else self.last_probe
        dt, result, ok = _run(fn, self.checker, k, check)
        self.last_probe = self.probe.ms()
        self.probe_ms.append(self.last_probe)
        return dt, dt * hostspeed.scale(before, self.last_probe), result, ok

    def step(self):
        k = self.i % len(self.scenes)
        self.i += 1
        self.attempted += 1
        dt, scaled, win, ok = self._timed(lambda: self.runner.window(self.scenes[k]), k,
                                          self.checker.sparse)
        self.failed += not ok
        if win is None:
            return
        self.window_s.append(dt)
        self.window_scaled_s.append(scaled)
        if self.dense_spent < self.dense_share * (sum(self.window_s) + self.dense_spent):
            self.attempted += 1
            dt, scaled, dense, ok = self._timed(lambda: self.runner.dense(self.scenes[k], win),
                                                k, self.checker.dense)
            self.failed += not ok
            self.dense_spent += dt
            if dense is not None:
                self.dense_s.append(dt)
                self.dense_scaled_s.append(scaled)

    def run(self, seconds):
        self.last_probe = None   # the host may have changed state since the last call
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            self.step()


class Throughput:
    """`threads` closed-loop clients in one process, as `sparsescan bench` runs.

    The rate sums each client's windows over its own busy time, so a
    client that finishes its last window of a block early adds no idle time.
    """

    def __init__(self, runner, checker, scenes, threads):
        self.runner, self.checker, self.scenes = runner, checker, scenes
        self.threads = threads
        self.next = list(range(threads))
        self.attempted = self.failed = 0
        self.blocks = []   # per block, per client: (windows done, busy seconds)

    def _client(self, j, deadline):
        start = perf_counter()
        attempted = done = failed = 0
        while perf_counter() < deadline:
            k = self.next[j] % len(self.scenes)
            self.next[j] += self.threads
            _, win, ok = _run(lambda: self.runner.window(self.scenes[k]), self.checker, k,
                              self.checker.sparse)
            attempted += 1
            done += win is not None
            failed += not ok
        return attempted, done, failed, perf_counter() - start

    def run(self, seconds, pool):
        deadline = perf_counter() + seconds
        futures = [pool.submit(self._client, j, deadline) for j in range(self.threads)]
        block = []
        for future in futures:
            attempted, done, failed, busy = future.result()
            self.attempted += attempted
            self.failed += failed
            block.append((done, busy))
        self.blocks.append(block)

    def windows_per_s(self, factors=None) -> float:
        """Windows over busy time, summed over clients; block b's windows
        are divided by factors[b] when given."""
        factors = factors or [1.0] * len(self.blocks)
        rate = 0.0
        for j in range(self.threads):
            done = sum(block[j][0] / f for block, f in zip(self.blocks, factors))
            busy = sum(block[j][1] for block in self.blocks)
            rate += done / busy if busy > 0 else 0.0
        return rate


def untraced(runner, checker, scenes, seconds, wl):
    """Alternate closed-loop and throughput blocks over the whole run.

    Host load drifts within a run, so each metric samples all of it
    instead of one contiguous slice. The closed loop then continues, by
    at most a quarter of its time, until it has MIN_WINDOWS windows.
    Returns the loop, the throughput clients, a throughput summary and
    the peak RSS.

    A throughput block is scaled for host speed by the median of the
    closed-loop probes in the segments on either side of it. A probe
    taken just after a block reads up to several times slow while the
    clients' OpenBLAS threads still spin, so the block is not probed
    itself.
    """
    threads = len(os.sched_getaffinity(0))
    loop = ClosedLoop(runner, checker, scenes, wl.dense_share, hostspeed.HostProbe())
    tp = Throughput(runner, checker, scenes, threads)
    loop_s = seconds * wl.latency_share
    tp_s = seconds - loop_s
    blocks = max(1, round(tp_s / THROUGHPUT_BLOCK_S))
    peak_rss_mb = None
    marks = [0]   # loop.probe_ms index at the end of each closed-loop segment
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in range(blocks):
            loop.run(loop_s / blocks)
            marks.append(len(loop.probe_ms))
            if peak_rss_mb is None:
                # one client's footprint; concurrent clients make the peak vary
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tp.run(tp_s / blocks, pool)
    cap = perf_counter() + 0.25 * loop_s
    while len(loop.window_s) < MIN_WINDOWS and perf_counter() < cap:
        loop.step()
    marks.append(len(loop.probe_ms))
    factors = [hostspeed.REF_MS / float(np.median(loop.probe_ms[marks[b]:marks[b + 2]]))
               for b in range(blocks)]
    throughput = {"windows_per_s": tp.windows_per_s(factors), "threads": threads,
                  "blocks": blocks, "block_factors": factors,
                  "per_thread": [sum(block[j][0] for block in tp.blocks) for j in range(threads)],
                  "busy_s": [sum(block[j][1] for block in tp.blocks) for j in range(threads)],
                  "wall_windows_per_s": tp.windows_per_s()}
    return loop, tp, throughput, peak_rss_mb


def traced(runner, checker, scenes, seconds, tracer):
    """Alternate untraced and traced runs of each window, for the same time."""
    untraced_s, traced_s = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        k = (i // 2) % len(scenes)
        attempted += 1
        if i % 2:
            def call(window_id=i // 2, path=scenes[k]):
                with tracer.window(window_id):
                    return runner.window(path)
            times = traced_s
        else:
            def call(path=scenes[k]):
                return runner.window(path)
            times = untraced_s
        dt, win, ok = _run(call, checker, k, checker.sparse)
        if win is not None:
            times.append(dt)
        failed += not ok
        i += 1
    return untraced_s, traced_s, attempted, failed


def flops_metrics(ss, runner, scenes, forward_ms):
    """FLOPs from one metered measure() per scene, outside any timing."""
    out = {f"flops.{label}_mflop": 0.0 for label in LABELS}
    out.update({"flops.sparse_mflop": 0.0, "flops.dense_mflop": 0.0, "flops.reduction": 0.0,
                "flops.analytic_gap": 0.0, "backbone.sparse_mflops_per_s": 0.0})
    if not runner.wl.timesteps:
        return out
    sparse = dense = analytic = 0.0
    for path in scenes:
        win = runner.window(path)
        report = ss.flops.measure(runner.cfg, runner.params, win.voxels, win.stca.scores,
                                  win.stca.keep, parallel=runner.wl.parallel)
        model = ss.flops.count_analytic(runner.cfg, report.kept_ratios,
                                        timesteps=runner.wl.timesteps)
        sparse += report.sparse_total
        dense += report.dense_total
        analytic += model.sparse_total
        for label, cost in report.blocks.items():
            key = f"flops.{label}_mflop"
            if key in out:
                out[key] += cost.sparse / 1e6 / len(scenes)
    out["flops.sparse_mflop"] = sparse / 1e6 / len(scenes)
    out["flops.dense_mflop"] = dense / 1e6 / len(scenes)
    out["flops.reduction"] = 1.0 - sparse / dense
    out["flops.analytic_gap"] = abs(analytic - sparse) / sparse
    if forward_ms > 0:
        out["backbone.sparse_mflops_per_s"] = out["flops.sparse_mflop"] / (forward_ms / 1e3)
    return out


def _blas_threads():
    """OpenBLAS's thread count, read from the loaded library when possible."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = None
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": _blas_threads(),
            "blas_env": env}


def main(argv) -> int:
    plan = json.loads(Path(argv[0]).read_text())
    ss = import_program(Path(plan["root"]))
    wl = WORKLOADS[plan["workload"]]
    scenes = plan["scenes"]
    runner = Runner(ss, wl)
    runner.window(scenes[0])
    print("READY", flush=True)
    if "--probe" in argv[1:]:
        return 0

    with np.load(plan["refs"]) as refs:
        checker = Checker(wl, refs)
    seconds = plan["seconds"]
    out = {"env": environment()}
    if plan["trace"]:
        tracer = Tracer({"event_io": ss.event_io, "stca": ss.stca, "backbone": ss.backbone,
                         "s6": ss.s6, "workloads": workloads})
        untraced_s, traced_s, attempted, failed = traced(runner, checker, scenes, seconds, tracer)
        layers = tracer.metrics()
        layers.update(flops_metrics(ss, runner, scenes, layers["backbone.forward_ms"]))
        layers["trace.overhead_pct"] = 100.0 * (np.median(traced_s) / np.median(untraced_s) - 1.0)
        tracer.write(plan["spans"])
        out.update(layers=layers, untraced_ms=[1e3 * s for s in untraced_s],
                   traced_ms=[1e3 * s for s in traced_s], absent=tracer.absent,
                   hook_errors=tracer.hook_errors, spans=len(tracer.spans))
    else:
        loop, tp, throughput, peak_rss_mb = untraced(runner, checker, scenes, seconds, wl)
        attempted, failed = loop.attempted + tp.attempted, loop.failed + tp.failed
        out.update(window_ms=[1e3 * s for s in loop.window_scaled_s],
                   dense_ms=[1e3 * s for s in loop.dense_scaled_s],
                   window_wall_ms=[1e3 * s for s in loop.window_s],
                   dense_wall_ms=[1e3 * s for s in loop.dense_s],
                   probe_ms=loop.probe_ms,
                   throughput=throughput, peak_rss_mb=peak_rss_mb)
    out.update(attempted=attempted, failed=failed, failures=checker.failures)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of sparsescan: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload window-64 --seed 3 --seconds 50 --trace 0

Run it from the repository root; it imports the program from ``src/``.

1. Generate the workload's scenes from the seed, write them as ``.evt``
   files and compute the correctness references, all outside any timing
   and in this process, which is never measured.
2. Start ``worker.py`` in a fresh interpreter. The time until it reports
   ready (import, backbone parameters, one warm-up window) is one set-up
   sample. It then measures for ``--seconds`` and reports raw numbers.
3. Untraced: start more fresh processes for further set-up samples.
4. Print a table with every metric and its quartiles, a ``record`` line
   with the environment, and last one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end
   timings are scaled by a host-speed probe (``hostspeed.py``); the
   table and the record also give them in unscaled wall time.

``--write-digest`` regenerates ``digest.json``, the committed per-stage
digest of the forward workloads' outputs at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import REF_MS, HostProbe, scale
from tracer import metric_units
from workloads import DEFAULT_SEED, DIGEST_PATH, PATCH, WORKLOADS, Runner, check_digest, \
    digest, generate_scene, import_program, load_digest, scene_seed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 4       # fresh processes besides the measuring one
DEADLINE_S = 170.0     # the whole run, children included

END_TO_END = {
    "window_ms_p50": "ms",
    "window_ms_p90": "ms",
    "windows_per_s": "1/s",
    "dense_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def prepare(ss, wl, seed: int, workdir: Path):
    """Write the scenes and references; return (scene paths, problems)."""
    import sparsescan.acceptance as oracle
    runner = Runner(ss, wl)
    digests = load_digest().get(wl.name, []) if wl.timesteps else []
    scenes, refs, problems = [], {}, []

    def against_digest(win, index, what):
        if index >= len(digests):
            problems.append(f"{what}: no committed digest")
            return
        problem = check_digest(win.outputs, digests[index])
        if problem:
            problems.append(f"{what}: {problem}")

    for i in range(wl.scenes):
        path = workdir / f"scene{i}.evt"
        ss.save_events(generate_scene(ss, wl, scene_seed(seed, i)), path)
        scenes.append(str(path))
        if not wl.timesteps:
            stream = ss.load_events(path)
            refs[f"keep{i}"] = oracle._brute_force_keep(stream, PATCH, ss.GaussianConfig(), 1.0)
            refs[f"events{i}"] = np.int64(stream.n_events)
            continue
        win = runner.window(path)
        for k, a in enumerate(a for step in win.outputs for a in step):
            refs[f"sparse{i}_{k}"] = a
        dense = oracle._dense_backbone(win.voxels, win.stca.scores, runner.cfg, runner.params)
        for k, a in enumerate(a for step in dense for a in step):
            refs[f"dense{i}_{k}"] = a
        if seed == DEFAULT_SEED:
            against_digest(win, i, f"scene {i}")
    if wl.timesteps and seed != DEFAULT_SEED:
        # every run checks the program against the committed digest
        anchor = workdir / "anchor.evt"
        ss.save_events(generate_scene(ss, wl, scene_seed(DEFAULT_SEED, 0)), anchor)
        against_digest(runner.window(anchor), 0, "default-seed scene 0")
    np.savez(workdir / "refs.npz", **refs)
    return scenes, problems


def write_digest(ss):
    STATE.mkdir(exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        for wl in WORKLOADS.values():
            if not wl.timesteps:
                continue
            runner = Runner(ss, wl)
            out[wl.name] = []
            for i in range(wl.scenes):
                path = Path(tmp) / f"{wl.name}-{i}.evt"
                ss.save_events(generate_scene(ss, wl, scene_seed(DEFAULT_SEED, i)), path)
                out[wl.name].append(digest(runner.window(path).outputs))
    DIGEST_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {DIGEST_PATH}")


class Child:
    """A worker process, killed if the run's deadline passes.

    Its set-up time is kept as wall time and scaled by host probes taken
    in this process just before the start and just after READY.
    """

    def __init__(self, plan_path: Path, probe: bool, deadline: float, host: HostProbe):
        args = [sys.executable, str(WORKER), str(plan_path)] + (["--probe"] if probe else [])
        before = host.ms()
        start = perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(1.0, deadline - perf_counter()), self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline().strip()
        self.setup_wall_s = perf_counter() - start
        self.setup_s = self.setup_wall_s * scale(before, host.ms())
        if ready != "READY":
            self.close()
            raise SystemExit(f"perfbench: worker did not get ready (exit {self.proc.returncode})")

    def result(self) -> dict:
        lines = self.proc.stdout.read().splitlines()
        self.close()
        if self.proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: worker failed (exit {self.proc.returncode})")
        return json.loads(lines[-1])

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdout.close()
        self.proc.wait()


def quartiles(values) -> list[float]:
    return [float(v) for v in np.percentile(values, [25, 50, 75])] if len(values) else []


def revision() -> dict:
    """Git revision when the root is a git work tree, plus a digest of the sources."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    rev = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, _, head = out.stdout.partition("\n")
        if out.returncode == 0 and Path(top).resolve() == ROOT:
            rev = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git": rev, "sources_sha256": sources.hexdigest()}


def end_to_end(raw: dict, setup: list[float], setup_wall: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, all timings host-scaled, and the samples behind each.

    ``wall`` holds the same figures from unscaled wall time.
    """
    window, dense, tp = raw["window_ms"], raw["dense_ms"], raw["throughput"]
    values = {
        "window_ms_p50": float(np.percentile(window, 50)),
        "window_ms_p90": float(np.percentile(window, 90)),
        "windows_per_s": tp["windows_per_s"],
        "dense_ms_p50": float(np.percentile(dense, 50)),
        "setup_s": float(np.median(setup)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    wall_window, wall_dense = raw["window_wall_ms"], raw["dense_wall_ms"]
    wall = {"window_ms_p50": float(np.percentile(wall_window, 50)),
            "window_ms_p90": float(np.percentile(wall_window, 90)),
            "windows_per_s": tp["wall_windows_per_s"],
            "dense_ms_p50": float(np.percentile(wall_dense, 50)),
            "setup_s": float(np.median(setup_wall))}
    samples = {"window_ms": {"n": len(window), "quartiles": quartiles(window)},
               "dense_ms": {"n": len(dense), "quartiles": quartiles(dense)},
               "setup_s": {"n": len(setup), "quartiles": quartiles(setup), "values": setup,
                           "wall_values": setup_wall},
               "probe_ms": {"n": len(raw["probe_ms"]), "quartiles": quartiles(raw["probe_ms"]),
                            "ref_ms": REF_MS},
               "wall": wall, "throughput": tp}
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digest", action="store_true")
    args = ap.parse_args(argv)
    started = perf_counter()
    ss = import_program(ROOT)
    if args.write_digest:
        write_digest(ss)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    wl = WORKLOADS[args.workload]
    deadline = started + DEADLINE_S
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=STATE))
    try:
        scenes, problems = prepare(ss, wl, args.seed, workdir)
        tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (STATE / "traces").mkdir(exist_ok=True)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps({
            "root": str(ROOT), "workload": wl.name, "scenes": scenes,
            "refs": str(workdir / "refs.npz"), "seconds": args.seconds,
            "trace": args.trace, "spans": str(STATE / "traces" / f"{tag}.jsonl")}))
        host = HostProbe()
        worker = Child(plan_path, False, deadline, host)
        raw = worker.result()
        timed = ("traced_ms", "untraced_ms") if args.trace else ("window_ms", "dense_ms")
        if not all(raw[key] for key in timed):
            for line in raw["failures"]:
                print(f"  FAILED {line}", file=sys.stderr)
            raise SystemExit("perfbench: no window completed")
        if args.trace:
            units = metric_units()
            values = {name: float(raw["layers"][name]) for name in units}
            samples = {"untraced_ms": {"n": len(raw["untraced_ms"]),
                                       "quartiles": quartiles(raw["untraced_ms"])},
                       "traced_ms": {"n": len(raw["traced_ms"]),
                                     "quartiles": quartiles(raw["traced_ms"])},
                       "spans": raw["spans"], "absent": raw["absent"],
                       "hook_errors": raw["hook_errors"]}
        else:
            setup, setup_wall = [worker.setup_s], [worker.setup_wall_s]
            for _ in range(SETUP_PROBES):
                probe = Child(plan_path, True, deadline, host)
                probe.close()
                setup.append(probe.setup_s)
                setup_wall.append(probe.setup_wall_s)
            units = END_TO_END
            values, samples = end_to_end(raw, setup, setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    if problems:
        failed = attempted   # the program disagrees with the committed reference
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "revision": revision(), "env": raw["env"],
              "scenes": wl.scenes, "samples": samples, "reference_problems": problems,
              "failures": raw["failures"], "failed_frac": failed / max(1, attempted)}
    (STATE / "results").mkdir(exist_ok=True)
    (STATE / "results" / f"{tag}.json").write_text(json.dumps(
        dict(record, metrics=values), indent=1))

    print(f"perfbench {wl.name} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:>12.4f} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<30} {failed / max(1, attempted):>12.4f} ({failed}/{attempted})")
        for name in ("window_ms", "dense_ms", "setup_s", "probe_ms"):
            s = samples[name]
            print(f"  {name} n={s['n']} quartiles {', '.join(f'{q:.4f}' for q in s['quartiles'])}")
        print("  unscaled wall time: " + ", ".join(
            f"{name} {value:.4f}" for name, value in samples["wall"].items()))
    for line in problems + raw["failures"][:5]:
        print(f"  FAILED {line}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

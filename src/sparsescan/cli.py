"""Command-line front end.

Subcommands: gen (synthetic scenes), stca (score and threshold a stream),
scan-viz (dump the forward's stage-1 bidi-forward, bidi-backward or IPL
order at the forward's patch size, the IPL window taken from the token
grid), forward (run the backbone on the --timesteps sub-windows
event_io.split_windows cuts, with an optional FLOPs report), bench (one
FLOPs and wall-time row per scene, printed as each scene finishes),
selftest (the acceptance battery). Domain, file and out-of-memory errors
exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, StagePlan, backbone_forward, count_params, \
    init_backbone_params
from .errors import ConfigError, SparseScanError
from .event_io import EVENTS_PER_CROSSING, EventStream, SceneSpec, build_voxel_grid, \
    check_geometry_fits, event_spatial_ratio, generate_synthetic_scene, load_events, \
    save_events, scene_preset, split_windows
from .flops import measure
from .stca import GaussianConfig, kept_ratio, run_stca, write_map_csv, write_map_pgm

_ORDER_CHOICES = ("bidi-forward", "bidi-backward", "ipl")
# gen, stca, scan-viz and forward refuse work whose largest arrays are
# estimated above this
_BUDGET_BYTES = 1 << 30
# gen's per-pixel arrays: the bool swept-pixel mask and the int64 Poisson counts
_GEN_BYTES_PER_PIXEL = 1 + 8
# gen's peak bytes per event: the per-step arrays, their concatenation, the
# sort order and the sorted copy (measured with tracemalloc at 500x500 and
# 1000x1000: ~105 B per edge-burst event, ~126 B per noise event)
_GEN_BYTES_PER_EVENT = 144


def _gen_bytes(spec: SceneSpec) -> int:
    """Estimated peak bytes of generate_synthetic_scene(spec): the per-pixel
    arrays plus the events, each segment's bursts bounded by its swept box
    (extent plus travel, a pixel of rounding at either end) and the noise
    taken at its expected Poisson count."""
    pixels = spec.width * spec.height
    window_s = spec.duration_us * 1e-6
    swept = sum(min(abs(g.x1 - g.x0) + abs(g.vx) * window_s + 2, spec.width)
                * min(abs(g.y1 - g.y0) + abs(g.vy) * window_s + 2, spec.height)
                for g in spec.segments)
    events = EVENTS_PER_CROSSING * min(swept, pixels) + spec.noise_rate * window_s * pixels
    return int(_GEN_BYTES_PER_PIXEL * pixels + _GEN_BYTES_PER_EVENT * events)


def _check_score_map(stream: EventStream) -> None:
    """Refuse a geometry whose float64 (H, W) STCA score map is above the budget."""
    need = 8 * stream.width * stream.height
    if need > _BUDGET_BYTES:
        raise ConfigError(f"a {stream.width}x{stream.height} sensor needs a {need}-byte "
                          f"score map, above the {_BUDGET_BYTES}-byte limit")


def cmd_gen(args) -> int:
    check_geometry_fits(args.out, args.width, args.height)
    spec = scene_preset(args.preset, width=args.width, height=args.height,
                        duration_us=args.duration_us)
    need = _gen_bytes(spec)
    # non-positive sizes are refused by generate_synthetic_scene
    if min(args.width, args.height) > 0 and need > _BUDGET_BYTES:
        raise ConfigError(f"a {args.width}x{args.height} scene needs an estimated {need} bytes "
                          f"of per-pixel and event arrays, above the {_BUDGET_BYTES}-byte limit")
    stream, truth = generate_synthetic_scene(spec, seed=args.seed)
    save_events(stream, args.out)
    if args.truth:
        write_map_pgm(truth, args.truth)
    print(f"wrote {stream.n_events} events to {args.out} "
          f"({stream.width}x{stream.height}, span {stream.span} us, "
          f"spatial ratio {event_spatial_ratio(stream):.3f})")
    return 0


def cmd_stca(args) -> int:
    stream = load_events(args.events)
    _check_score_map(stream)
    res = run_stca(stream, patch=args.patch, beta=args.beta,
                   gauss=GaussianConfig(radius=args.radius, sigma=args.sigma))
    if args.out:
        if Path(args.out).suffix.lower() == ".pgm":
            write_map_pgm(res.keep, args.out)
        else:
            write_map_csv(res.keep, args.out)
    if args.scores:
        write_map_csv(res.scores, args.scores)
    th, tw = res.keep.shape
    print(f"token grid {th}x{tw}, threshold {res.threshold:.6g}, "
          f"kept {int(res.keep.sum())}/{res.keep.size} "
          f"({100 * kept_ratio(res.keep):.1f}%)")
    return 0


def cmd_scan_viz(args) -> int:
    stream = load_events(args.events)
    _check_score_map(stream)
    res = run_stca(stream, patch=BackboneConfig.patch, beta=args.beta)
    plan = StagePlan.build(res.keep, res.scores)
    if args.order == "ipl":
        perm = plan.ipl
    else:
        perm = np.arange(len(plan))
        if args.order == "bidi-backward":
            perm = perm[::-1]
    lines = ["position,row,col"]
    for i, t in enumerate(perm):
        lines.append(f"{i},{plan.coords[t, 0]},{plan.coords[t, 1]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(perm)} positions to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_forward(args) -> int:
    if args.timesteps < 1:
        raise ConfigError("--timesteps must be at least 1")
    stream = load_events(args.events)
    if args.timesteps > max(1, stream.span):
        raise ConfigError(f"--timesteps {args.timesteps} exceeds the stream's span of "
                          f"{stream.span} us; each timestep needs at least 1 us")
    cfg = BackboneConfig(height=stream.height, width=stream.width, bins=args.bins)
    # float64 (2B, H, W) grid per timestep and every backbone parameter
    need = 8 * (2 * cfg.bins * args.timesteps * cfg.height * cfg.width + count_params(cfg))
    if need > _BUDGET_BYTES:
        raise ConfigError(f"--timesteps {args.timesteps} and -B {args.bins} need an estimated "
                          f"{need} bytes of voxel grids and parameters, above the "
                          f"{_BUDGET_BYTES}-byte limit")
    res = run_stca(stream, patch=cfg.patch, beta=args.beta)
    voxels = [build_voxel_grid(sub, cfg.bins) for sub in
              split_windows(stream, args.timesteps)]
    params = init_backbone_params(cfg, seed=args.seed)
    t0 = time.perf_counter()
    outputs, _ = backbone_forward(voxels, res.keep, res.scores, cfg, params)
    wall = time.perf_counter() - t0
    print(f"{len(voxels)} timestep(s), kept ratio {kept_ratio(res.keep):.3f}, "
          f"forward {1000 * wall:.1f} ms")
    for s, out in enumerate(outputs[-1]):
        print(f"  stage{s + 1} out {out.shape}, rms {np.sqrt(np.mean(out ** 2)):.4f}")
    if args.report:
        report = measure(cfg, params, voxels, res.scores, res.keep)
        report.save_json(args.report)
        print(report.table())
        print(f"wrote FLOPs report to {args.report}")
    return 0


def cmd_bench(args) -> int:
    if args.scenes < 1:
        raise ConfigError("--scenes must be at least 1")
    cfg = BackboneConfig()
    params = init_backbone_params(cfg, seed=args.seed)
    spec = scene_preset(args.preset)
    print(f"bench: {args.scenes} scene(s)")
    print(f"{'scene':>5} {'events':>8} {'spatial':>8} {'kept':>6} "
          f"{'sparse MF':>10} {'dense MF':>9} {'saved':>6} {'ms':>8}")
    total_sp = total_dn = 0
    for i in range(args.scenes):
        stream, _ = generate_synthetic_scene(spec, seed=args.seed + i)
        t0 = time.perf_counter()
        res = run_stca(stream, patch=cfg.patch)
        vox = build_voxel_grid(stream, cfg.bins)
        report = measure(cfg, params, [vox], res.scores, res.keep)
        wall = time.perf_counter() - t0
        print(f"{i:>5} {stream.n_events:>8} {event_spatial_ratio(stream):>8.3f} "
              f"{kept_ratio(res.keep):>6.3f} {report.sparse_total / 1e6:>10.2f} "
              f"{report.dense_total / 1e6:>9.2f} {100 * report.reduction:>5.1f}% "
              f"{1000 * wall:>8.1f}", flush=True)
        total_sp += report.sparse_total
        total_dn += report.dense_total
    print(f"total sparse {total_sp / 1e6:.2f} MF, dense {total_dn / 1e6:.2f} MF, "
          f"saved {100 * (1 - total_sp / total_dn):.1f}%")
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all
    results = run_all(verbose=True)
    total = sum(r.seconds for r in results)
    runtime_ok = total < 60.0
    status = "PASS" if runtime_ok else "FAIL"
    print(f"{status}  battery runtime: {total:.1f}s (budget 60s)")
    n_pass = sum(r.passed for r in results) + int(runtime_ok)
    n_all = len(results) + 1
    print(f"{n_pass}/{n_all} criteria passed")
    return 0 if n_pass == n_all else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsescan",
        description="Sparse event-stream state-space backbone tools")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic event scene")
    g.add_argument("--preset", required=True,
                   choices=("edge-noise", "sparse30", "noise-only"))
    g.add_argument("-o", "--out", required=True,
                   help="output path; .csv is text, anything else binary")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--duration-us", type=int, default=100_000)
    g.add_argument("--truth", help="optional PGM of the true activity mask")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("stca", help="score a stream and write the keep mask")
    s.add_argument("events")
    s.add_argument("-o", "--out", help="mask output, .pgm or .csv")
    s.add_argument("--scores", help="optional aggregated score CSV")
    s.add_argument("-P", "--patch", type=int, default=4)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--sigma", type=float, default=1.0)
    s.add_argument("--radius", type=int, default=1)
    s.set_defaults(func=cmd_stca)

    v = sub.add_parser("scan-viz", help="dump the forward's stage-1 token order")
    v.add_argument("events")
    v.add_argument("--order", choices=_ORDER_CHOICES, default="ipl")
    v.add_argument("--beta", type=float, default=1.0)
    v.add_argument("-o", "--out", help="CSV output (default stdout)")
    v.set_defaults(func=cmd_scan_viz)

    f = sub.add_parser("forward", help="run the backbone on a stream")
    f.add_argument("events")
    f.add_argument("--seed", type=int, default=0, help="parameter init seed")
    f.add_argument("--timesteps", type=int, default=1)
    f.add_argument("-B", "--bins", type=int, default=10, help="voxel time bins")
    f.add_argument("--beta", type=float, default=1.0)
    f.add_argument("--report", help="write a FLOPs report JSON here")
    f.set_defaults(func=cmd_forward)

    b = sub.add_parser("bench", help="multi-scene FLOPs and wall-time table")
    b.add_argument("--scenes", type=int, default=4)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--preset", choices=("edge-noise", "sparse30", "noise-only"),
                   default="sparse30")
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("selftest", help="run the acceptance battery")
    t.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparseScanError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

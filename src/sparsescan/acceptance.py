"""Self-check battery: one callable per acceptance criterion.

Each criterion returns a :class:`CriterionResult`; ``run_all`` executes
the lot and is what the CLI selftest and the acceptance test module
drive. Oracles here are deliberately independent routes: brute-force
per-token scoring loops, a dense reference assembly without any
gather/scatter plumbing, a hand-rolled batched recurrence for finite
differences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from .event_io import EventStream, build_voxel_grid, event_spatial_ratio, \
    generate_synthetic_scene, scene_preset
from .flops import count_analytic, measure
from .nn import depthwise_conv2d, gelu, layer_norm, silu
from .s6 import S6Discretized, discretize_zoh, selective_scan_backward, \
    selective_scan_parallel, selective_scan_seq, s6_forward
from .scan_order import invert, ipl_order
from .stca import GaussianConfig, gaussian_aggregate, max_pool2d, run_stca

# A backbone small enough for block-level checks: 8x8 stage-1 tokens, 8 channels
SMALL_CONFIG = bb.BackboneConfig(height=32, width=32, bins=2, channels=(8, 12, 16, 24),
                                 n_state=4, inner_expand=2)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _random_scan_instance(rng, t_len, lanes, n_state, a_low=0.01):
    """Draws in (T, L, N) order, returned in the kernels' (T, N, L) and (N, L)."""
    abar = rng.uniform(a_low, 1.0, size=(t_len, lanes, n_state))
    bx = rng.normal(size=(t_len, lanes, n_state))
    c = rng.normal(size=(t_len, n_state))
    skip = rng.normal(size=lanes)
    x = rng.normal(size=(t_len, lanes))
    h0 = rng.normal(size=(lanes, n_state))
    abar, bx, h0 = (np.ascontiguousarray(np.swapaxes(v, -1, -2)) for v in (abar, bx, h0))
    return S6Discretized(abar=abar, bx=bx, c=c), skip, x, h0


def criterion_scan_equivalence() -> CriterionResult:
    """Parallel scan matches sequential to 1e-9 relative on 100 instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        t_len = int(rng.integers(1, 513))
        lanes = int(rng.integers(1, 17))
        n_state = int(rng.integers(1, 17))
        d, skip, x, h0 = _random_scan_instance(rng, t_len, lanes, n_state)
        ys, hs = selective_scan_seq(d, h0, skip, x)
        yp, hp = selective_scan_parallel(d, h0, skip, x)
        scale = max(np.abs(ys).max(), 1e-12)
        worst = max(worst,
                    np.abs(yp - ys).max() / scale,
                    np.abs(hp - hs).max() / max(np.abs(hs).max(), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    return CriterionResult("scan equivalence", ok,
                           f"max rel err {worst:.2e}, runtime {elapsed:.2f}s", elapsed)


def _batch_loss(abar, bx, c, skip, x, h0, upstream):
    """Independent batched evaluation of the recurrence and loss <up, y>."""
    nb, t_len = abar.shape[0], abar.shape[1]
    h = h0.copy()
    loss = np.zeros(nb)
    for t in range(t_len):
        h = abar[:, t] * h + bx[:, t]
        y = np.einsum("bnl,bn->bl", h, c[:, t]) + skip * x[t]
        loss += y @ upstream[t]
    return loss


def _fd_gradients(d, skip, x, h0, upstream, step=1e-5):
    base = {"abar": d.abar, "bx": d.bx, "c": d.c, "skip": skip, "h0": h0}
    grads = {}
    for name, arr in base.items():
        p = arr.size
        stack = np.repeat(arr[None], 2 * p, axis=0)
        flat = stack.reshape(2 * p, p)
        idx = np.arange(p)
        flat[2 * idx, idx] += step
        flat[2 * idx + 1, idx] -= step
        nb = 2 * p
        args = {k: np.broadcast_to(v, (nb,) + v.shape) for k, v in base.items()}
        args[name] = stack
        losses = _batch_loss(args["abar"], args["bx"], args["c"],
                             args["skip"], x, args["h0"], upstream)
        grads[name] = ((losses[0::2] - losses[1::2]) / (2 * step)).reshape(arr.shape)
    return grads


def criterion_gradient_check() -> CriterionResult:
    """Manual adjoint matches central finite differences to 1e-4 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        d, skip, x, h0 = _random_scan_instance(rng, 32, 3, 4, a_low=0.9)
        upstream = rng.normal(size=(32, 3))
        g = selective_scan_backward(d, h0, x, upstream)
        analytic = {"abar": g.abar, "bx": g.bx, "c": g.c, "skip": g.skip, "h0": g.h0}
        fd = _fd_gradients(d, skip, x, h0, upstream)
        for name in analytic:
            scale = max(np.abs(fd[name]).max(), 1e-8)
            worst = max(worst, np.abs(analytic[name] - fd[name]).max() / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    return CriterionResult("gradient check", ok,
                           f"max rel err {worst:.2e}, runtime {elapsed:.2f}s", elapsed)


def criterion_zoh_exactness() -> CriterionResult:
    """Closed-form discretization cases to 1e-12; continuity of bbar as z -> 0."""
    start = time.perf_counter()
    errs = []
    cases = [(-1.0, 2.0, math.log(2.0)), (-0.5, 1.0, 0.25), (-2.0, 3.0, 1.0), (-1.0, 1.0, 0.0)]
    for a, b, dt in cases:
        abar, bbar = discretize_zoh(a, b, dt)
        ref_a = math.exp(dt * a)
        ref_b = b * (math.exp(dt * a) - 1.0) / a if dt * a != 0.0 else 0.0
        errs.append(abs(float(abar) - ref_a))
        errs.append(abs(float(bbar) - ref_b))
    abar, bbar = discretize_zoh(-1.0, 2.0, math.log(2.0))
    errs.append(abs(float(abar) - 0.5))
    errs.append(abs(float(bbar) - 1.0))
    zero_a, zero_b = discretize_zoh(0.0, 1.0, 0.5)
    errs.append(abs(float(zero_a) - 1.0))
    errs.append(abs(float(zero_b) - 0.5))
    worst = max(errs)
    cont = 0.0
    for a in (1e-9, -1e-9):
        _, bbar = discretize_zoh(a, 1.0, 1.0)   # |dt * a| = 1e-9, expm1(z) / z near z = 0
        cont = max(cont, abs(float(bbar) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and cont <= 1e-8 * 1.0 + 1e-12
    return CriterionResult("zoh exactness", ok,
                           f"case err {worst:.2e}, continuity {cont:.2e}", elapsed)


def _random_stream(rng, width=32, height=32, n_events=300, span=100_000):
    xs = rng.integers(0, width, n_events)
    ys = rng.integers(0, height, n_events)
    ts = np.sort(rng.integers(0, span // 10 + 1, n_events) * 10)
    ps = rng.choice((-1, 1), n_events)
    return EventStream(xs, ys, ts, ps, width=width, height=height,
                       window_start=0, window_end=span)


def criterion_scaling_invariance() -> CriterionResult:
    """Keep masks are bit-identical under timestamp scaling on 50 scenes."""
    start = time.perf_counter()
    rng = np.random.default_rng(37)
    ok = True
    for _ in range(50):
        stream = _random_stream(rng)
        ref = run_stca(stream, patch=4).keep
        for lam in (0.5, 2.0, 10.0):
            scaled = EventStream(stream.xs, stream.ys,
                                 (stream.ts * lam).astype(np.int64), stream.ps,
                                 width=stream.width, height=stream.height,
                                 window_start=int(stream.window_start * lam),
                                 window_end=int(stream.window_end * lam))
            if not np.array_equal(run_stca(scaled, patch=4).keep, ref):
                ok = False
    elapsed = time.perf_counter() - start
    return CriterionResult("stca scaling invariance", ok,
                           "50 scenes x scale factors {0.5, 2, 10}", elapsed)


def _brute_force_keep(stream, patch, gauss, beta):
    """Per-token recomputation of the scoring pipeline in plain loops."""
    pix = np.zeros((stream.height, stream.width))
    span = float(stream.span)
    for x, y, t in zip(stream.xs, stream.ys, stream.ts):
        pix[y, x] += (t - stream.window_start) / span
    th, tw = stream.height // patch, stream.width // patch
    tok = np.zeros((th, tw))
    for i in range(th):
        for j in range(tw):
            tok[i, j] = pix[i * patch:(i + 1) * patch, j * patch:(j + 1) * patch].mean()
    agg = np.zeros_like(tok)
    r = gauss.radius
    for i in range(th):
        for j in range(tw):
            num = den = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    if 0 <= i + dy < th and 0 <= j + dx < tw:
                        wgt = math.exp(-(dy * dy + dx * dx) / (2 * gauss.sigma ** 2))
                        num += wgt * tok[i + dy, j + dx]
                        den += wgt
            agg[i, j] = num / den
    alpha = agg.sum() / (beta * agg.size)
    return agg >= alpha


def _separation_scene(rng, width=64, height=64, patch=4, span=100_000,
                      blob=5, n_noise=28):
    """Object tokens carry late 5-event bursts per pixel; noise is isolated."""
    th, tw = height // patch, width // patch
    oy = int(rng.integers(0, th - blob + 1))
    ox = int(rng.integers(0, tw - blob + 1))
    object_tokens = np.zeros((th, tw), dtype=bool)
    object_tokens[oy:oy + blob, ox:ox + blob] = True
    xs, ys, ts, ps = [], [], [], []
    for ty in range(oy, oy + blob):
        for tx in range(ox, ox + blob):
            for py in range(ty * patch, (ty + 1) * patch):
                for px in range(tx * patch, (tx + 1) * patch):
                    t0 = int(rng.integers(int(0.9 * span), span - 5))
                    for k in range(5):
                        xs.append(px); ys.append(py); ts.append(t0 + k); ps.append(1)
    noise_tokens = np.zeros((th, tw), dtype=bool)
    placed = 0
    while placed < n_noise:
        px = int(rng.integers(0, width))
        py = int(rng.integers(0, height))
        if object_tokens[py // patch, px // patch]:
            continue
        xs.append(px); ys.append(py)
        ts.append(int(rng.integers(0, span + 1)))
        ps.append(int(rng.choice((-1, 1))))
        noise_tokens[py // patch, px // patch] = True
        placed += 1
    order = np.argsort(ts, kind="stable")
    stream = EventStream(np.array(xs)[order], np.array(ys)[order],
                         np.array(ts)[order], np.array(ps)[order],
                         width=width, height=height, window_start=0, window_end=span)
    return stream, object_tokens, noise_tokens


def criterion_stca_separation() -> CriterionResult:
    """Activity recall >= 0.95 and noise keep rate <= 0.20 over 20 seeds."""
    start = time.perf_counter()
    recalls, noise_rates = [], []
    oracle_ok = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        stream, object_tokens, noise_tokens = _separation_scene(rng)
        res = run_stca(stream, patch=4)
        if not np.array_equal(res.keep, _brute_force_keep(stream, 4, GaussianConfig(), 1.0)):
            oracle_ok = False
        recalls.append((res.keep & object_tokens).sum() / object_tokens.sum())
        if noise_tokens.any():
            noise_rates.append((res.keep & noise_tokens).sum() / noise_tokens.sum())
    recall = float(np.mean(recalls))
    noise_rate = float(np.mean(noise_rates))
    elapsed = time.perf_counter() - start
    ok = oracle_ok and recall >= 0.95 and noise_rate <= 0.20
    return CriterionResult("stca separation", ok,
                           f"recall {recall:.3f}, noise keep {noise_rate:.3f}, "
                           f"oracle match {oracle_ok}", elapsed)


def criterion_ipl_properties() -> CriterionResult:
    """Permutation laws on 1000 random (scores, keep, k) triples."""
    start = time.perf_counter()
    rng = np.random.default_rng(53)
    ok = True
    detail = "all properties hold"
    for trial in range(1000):
        h = w = int(rng.choice((4, 8)))
        k = int(rng.choice([v for v in (1, 2, 4, 8) if h % v == 0 and v <= h]))
        scores = rng.choice(np.arange(6, dtype=np.float64), size=(h, w)) \
            if rng.random() < 0.5 else rng.random((h, w))
        keep = rng.random((h, w)) < rng.uniform(0.2, 1.0)
        plan = bb.StagePlan.build(keep, scores)
        perm = ipl_order(plan.index, scores, k)
        n = len(plan)
        if sorted(perm.tolist()) != list(range(n)):
            ok, detail = False, f"not a bijection at trial {trial}"
            break
        if n and not np.array_equal(perm[invert(perm)], np.arange(n)):
            ok, detail = False, f"inverse failed at trial {trial}"
            break
        maxima = scores.reshape(h // k, k, w // k, k).max(axis=(1, 3)).ravel()
        win_of_token = (plan.coords[:, 0] // k) * (w // k) + (plan.coords[:, 1] // k)
        visited = win_of_token[perm]
        # each window's tokens form one contiguous run
        change = np.flatnonzero(np.diff(visited)) + 1
        runs = visited[np.concatenate(([0], change))] if n else np.empty(0, np.int64)
        if len(set(runs.tolist())) != len(runs):
            ok, detail = False, f"window split across runs at trial {trial}"
            break
        if n and np.any(np.diff(maxima[runs]) > 0):
            ok, detail = False, f"window maxima increase at trial {trial}"
            break
        best = maxima.max() if n else 0.0
        if n and maxima[runs[0]] != best:
            # first visited window must carry the global max if it kept tokens
            first_win = int(np.flatnonzero(maxima == best).min())
            if np.any(win_of_token == first_win):
                ok, detail = False, f"global max window not first at trial {trial}"
                break
        if k == h:
            if not np.array_equal(perm, np.arange(n)):
                ok, detail = False, f"single-window order not row-major at trial {trial}"
                break
    elapsed = time.perf_counter() - start
    return CriterionResult("ipl properties", ok, detail, elapsed)


def criterion_gather_scatter() -> CriterionResult:
    """Round-trips are bit-exact; sparse blocks pass discarded tokens through."""
    start = time.perf_counter()
    rng = np.random.default_rng(67)
    ok = True
    detail = "1000 round-trips bit-exact, passthrough bit-exact"
    for trial in range(1000):
        c = int(rng.integers(1, 9))
        h = int(rng.choice((2, 4, 8)))
        w = int(rng.choice((2, 4, 8)))
        x = rng.normal(size=(h, w, c))
        keep = rng.random((h, w)) < rng.random()
        plan = bb.StagePlan.build(keep, np.zeros((h, w)))
        back = plan.scatter(plan.gather(x), x)
        if back.tobytes() != x.tobytes():
            ok, detail = False, f"round-trip mismatch at trial {trial}"
            break
    if ok:
        params = bb.init_backbone_params(SMALL_CONFIG, seed=3)
        for trial in range(20):
            x = rng.normal(size=(8, 8, 8))
            keep = rng.random((8, 8)) < 0.5
            scores = rng.random((8, 8))
            disc = ~keep
            plan = bb.StagePlan.build(keep, scores)
            y1 = bb.sparse_ss2d(x, plan, params.stages[0].ss2d)
            y2 = bb.sparse_mlp(x, plan, params.stages[0].mixer)
            if not (np.array_equal(y1[disc], x[disc])
                    and np.array_equal(y2[disc], x[disc])):
                ok, detail = False, f"passthrough mismatch at trial {trial}"
                break
    elapsed = time.perf_counter() - start
    return CriterionResult("gather/scatter exactness", ok, detail, elapsed)


def _full_grid_ipl(scores):
    h, w = scores.shape
    k = bb.ipl_window(scores.shape)
    maxima = scores.reshape(h // k, k, w // k, k).max(axis=(1, 3)).ravel()
    order = np.argsort(-maxima, kind="stable")
    flat = np.arange(h * w, dtype=np.int64).reshape(h, w)
    wins = flat.reshape(h // k, k, w // k, k).transpose(0, 2, 1, 3).reshape(-1, k * k)
    return wins[order].ravel()


def _dense_ss2d(x, scores, p):
    """Reference block without any gather/scatter or StagePlan plumbing."""
    h, w, c = x.shape
    m = h * w
    t = layer_norm(x.reshape(m, c), p.norm.gain, p.norm.bias)
    pre = t @ p.w_in.T + p.b_in
    gate = silu(t @ p.w_gate.T + p.b_gate)
    d = pre.shape[1]
    u = silu(depthwise_conv2d(pre.reshape(h, w, d), p.dw_kernel, p.dw_bias)).reshape(m, d)
    fwd = np.arange(m, dtype=np.int64)
    orders = (fwd, fwd[::-1].copy(), _full_grid_ipl(scores))
    acc = np.zeros_like(u)
    for perm, sp in zip(orders, (p.s6_fwd, p.s6_bwd, p.s6_ipl)):
        y, _ = s6_forward(u[perm], sp)
        acc += y[invert(perm)]
    upd = (acc * gate) @ p.w_out.T + p.b_out
    return x + upd.reshape(x.shape)


def _dense_mlp(x, p):
    t = layer_norm(x.reshape(-1, x.shape[-1]), p.norm.gain, p.norm.bias)
    upd = gelu(t @ p.w1.T + p.b1) @ p.w2.T + p.b2
    return x + upd.reshape(x.shape)


def _dense_backbone(voxels, scores, cfg, params):
    states = bb.init_lstm_states(cfg)
    outputs = []
    for vox in voxels:
        values = vox.values if hasattr(vox, "values") else vox
        x = bb.patch_embed(values, cfg.patch, params.w_embed, params.b_embed)
        s_map = scores
        stage_outs = []
        for s, sp in enumerate(params.stages):
            x = _dense_ss2d(x, s_map, sp.ss2d)
            if isinstance(sp.mixer, bb.GciParams):
                x = bb.gci_forward(x, sp.mixer)
            else:
                x = _dense_mlp(x, sp.mixer)
            x, states[s] = bb.convlstm_step(x, states[s], sp.lstm)
            stage_outs.append(np.moveaxis(x, -1, 0))   # backbone_forward's (C, H, W)
            if sp.down_w is not None:
                x = bb.downsample_features(x, sp.down_w, sp.down_b)
                s_map = max_pool2d(s_map, 2)
        outputs.append(stage_outs)
    return outputs


def _rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


def criterion_dense_consistency() -> CriterionResult:
    """With every token kept, sparse blocks equal their dense references."""
    start = time.perf_counter()
    rng = np.random.default_rng(79)
    worst = 0.0
    sp = bb.init_backbone_params(SMALL_CONFIG, seed=5)
    ones = np.ones((8, 8), dtype=bool)
    for _ in range(5):
        x = rng.normal(size=(8, 8, 8))
        scores = rng.random((8, 8))
        plan = bb.StagePlan.build(ones, scores)
        worst = max(worst, _rel_err(bb.sparse_ss2d(x, plan, sp.stages[0].ss2d),
                                    _dense_ss2d(x, scores, sp.stages[0].ss2d)))
        worst = max(worst, _rel_err(bb.sparse_mlp(x, plan, sp.stages[0].mixer),
                                    _dense_mlp(x, sp.stages[0].mixer)))
    cfg = bb.BackboneConfig()
    params = bb.init_backbone_params(cfg, seed=0)
    stream, _ = generate_synthetic_scene(scene_preset("sparse30"), seed=9)
    vox = build_voxel_grid(stream, cfg.bins)
    res = run_stca(stream, patch=cfg.patch)
    keep_all = np.ones_like(res.keep)
    got, _ = bb.backbone_forward([vox], keep_all, res.scores, cfg, params)
    want = _dense_backbone([vox], res.scores, cfg, params)
    for a, b in zip(got[0], want[0]):
        worst = max(worst, _rel_err(a, b))
    elapsed = time.perf_counter() - start
    return CriterionResult("dense consistency", worst <= 1e-6,
                           f"max rel err {worst:.2e}", elapsed)


def criterion_flops_consistency() -> CriterionResult:
    """Counters vs analytic within 2%; token ratios track kept ratios;
    end-to-end reduction in [20%, 35%] on a ~30% spatial-ratio scene."""
    start = time.perf_counter()
    cfg = bb.BackboneConfig()
    params = bb.init_backbone_params(cfg, seed=0)
    stream, _ = generate_synthetic_scene(scene_preset("sparse30"), seed=17)
    spatial = event_spatial_ratio(stream)
    res = run_stca(stream, patch=cfg.patch)
    vox = build_voxel_grid(stream, cfg.bins)
    report = measure(cfg, params, [vox], res.scores, res.keep)
    ratios = report.kept_ratios
    analytic = count_analytic(cfg, ratios)
    agree = 0.0
    for name, got in report.blocks.items():
        want = analytic.blocks[name]
        agree = max(agree,
                    abs(got.dense - want.dense) / want.dense,
                    abs(got.sparse - want.sparse) / max(want.sparse, 1))
    ratio_err = 0.0
    for s in range(cfg.n_stages):
        for kind in (".ss2d", ".mlp"):
            name = f"stage{s + 1}{kind}"
            if name in report.blocks:
                blk = report.blocks[name]
                ratio_err = max(ratio_err, abs(blk.sparse / blk.dense - ratios[s]))
    red = report.reduction
    elapsed = time.perf_counter() - start
    ok = (agree <= 0.02 and ratio_err <= 0.02 and 0.20 <= red <= 0.35
          and 0.2 <= spatial <= 0.4)
    return CriterionResult(
        "flops consistency", ok,
        f"analytic gap {100 * agree:.2f}%, ratio gap {ratio_err:.4f}, "
        f"reduction {100 * red:.1f}%, spatial ratio {spatial:.2f}", elapsed)


def criterion_gaussian_aggregation() -> CriterionResult:
    """Constant preservation to 1e-12 and the interior delta response."""
    start = time.perf_counter()
    rng = np.random.default_rng(97)
    worst_const = 0.0
    for v in (0.0, 1.0, 3.5, float(rng.uniform(5, 10))):
        m = np.full((7, 9), v)
        worst_const = max(worst_const, np.abs(gaussian_aggregate(m) - v).max())
    delta_err = 0.0
    for v in (1.0, 2.5):
        m = np.zeros((9, 9))
        m[4, 4] = v
        out = gaussian_aggregate(m)
        expected = v / (1.0 + 4.0 * math.exp(-0.5) + 4.0 * math.exp(-1.0))
        delta_err = max(delta_err,
                        abs(out[4, 4] - expected),
                        abs(out[4, 4] - 0.20418 * v) / v)
    elapsed = time.perf_counter() - start
    ok = worst_const <= 1e-12 and delta_err <= 1e-5
    return CriterionResult("gaussian aggregation", ok,
                           f"const dev {worst_const:.2e}, delta dev {delta_err:.2e}",
                           elapsed)


CRITERIA = (
    criterion_scan_equivalence,
    criterion_gradient_check,
    criterion_zoh_exactness,
    criterion_scaling_invariance,
    criterion_stca_separation,
    criterion_ipl_properties,
    criterion_gather_scatter,
    criterion_dense_consistency,
    criterion_flops_consistency,
    criterion_gaussian_aggregation,
)


def run_all(verbose: bool = False) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results

"""OpenBLAS's thread count while forwards overlap (sparsescan.blas).

The policy is checked against a fake thread-count API, with the overlap
forced by a barrier inside the forward; the real library runs the
concurrent forwards, whose outputs must equal sequential calls byte for byte.
"""

import ctypes
import io
import sys
import threading
import time
import types

import numpy as np
import pytest

from sparsescan import backbone as bb
from sparsescan import blas
from sparsescan.acceptance import SMALL_CONFIG as SMALL
from sparsescan.backbone import LstmState, backbone_forward, init_backbone_params, \
    init_lstm_states
from sparsescan.errors import ShapeError
from sparsescan.event_io import build_voxel_grid, generate_synthetic_scene, scene_preset
from sparsescan.stca import run_stca

PARAMS = init_backbone_params(SMALL, seed=61)


class FakeBlas:
    """A thread-count API that records its calls and, as a ctypes call does,
    lets other threads run during each."""

    def __init__(self, threads=2):
        self.threads = threads
        self.calls = []
        self.lookups = 0

    def find(self):
        self.lookups += 1
        return self.get, self.set

    def get(self):
        self.calls.append(("get",))
        time.sleep(0)
        return self.threads

    def set(self, n):
        self.calls.append(("set", n))
        time.sleep(0)
        self.threads = n


def scene_inputs(timesteps, dense):
    """Voxel grids of `timesteps` sparse30 scenes with the first one's STCA mask,
    or an all-true mask when dense."""
    streams = [generate_synthetic_scene(scene_preset("sparse30", width=32, height=32),
                                        seed=70 + t)[0] for t in range(timesteps)]
    voxels = [build_voxel_grid(stream, SMALL.bins) for stream in streams]
    res = run_stca(streams[0], patch=SMALL.patch)
    keep = np.ones_like(res.keep) if dense else res.keep
    return voxels, keep, res.scores


def run_threads(targets, timeout=60):
    """Run each target in its own thread; returns what each raised (or None)."""
    raised = [None] * len(targets)

    def run(i):
        try:
            targets[i]()
        except Exception as exc:    # reported to the test through `raised`
            raised[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(targets))]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=timeout)
    assert not any(th.is_alive() for th in threads)
    return raised


@pytest.fixture
def fake(monkeypatch):
    """A fresh policy over a fake API in place of the process's one."""
    api = FakeBlas()
    monkeypatch.setattr(blas, "POLICY", blas.ThreadPolicy(find=api.find))
    return api


def overlap_in_embed(monkeypatch, api=None):
    """Make every patch_embed call wait until two forwards are inside one;
    returns the fake API's thread counts seen just after each wait."""
    barrier = threading.Barrier(2, timeout=10)
    embed, seen = bb.patch_embed, []

    def waiting_embed(*args, **kwargs):
        barrier.wait()
        if api is not None:
            seen.append(api.threads)
        return embed(*args, **kwargs)

    monkeypatch.setattr(bb, "patch_embed", waiting_embed)
    return seen


class TestThreadPolicy:
    def test_lone_forwards_never_touch_the_library(self, fake):
        voxels, keep, scores = scene_inputs(2, dense=False)
        for _ in range(3):
            backbone_forward(voxels, keep, scores, SMALL, PARAMS)
        assert fake.calls == [] and fake.lookups == 0
        assert blas.POLICY._in_flight == 0

    def test_overlap_runs_one_thread_then_restores(self, fake, monkeypatch):
        seen = overlap_in_embed(monkeypatch, fake)
        voxels, keep, scores = scene_inputs(1, dense=False)

        def forward():
            backbone_forward(voxels, keep, scores, SMALL, PARAMS)

        assert run_threads([forward, forward]) == [None, None]
        assert seen == [1, 1]
        assert fake.calls == [("get",), ("set", 1), ("set", 2)]
        assert fake.lookups == 1 and fake.threads == 2
        assert blas.POLICY._in_flight == 0

    def test_forward_raising_during_overlap_still_restores(self, fake, monkeypatch):
        overlap_in_embed(monkeypatch)
        voxels, keep, scores = scene_inputs(1, dense=False)
        bad_states = init_lstm_states(SMALL)
        gh, gw, c = bad_states[0].h.shape
        bad_states[0] = LstmState(h=np.zeros((gh // 2, gw, c)), c=np.zeros((gh // 2, gw, c)))
        good_done = threading.Event()
        lstm = bb.convlstm_step

        def lstm_after_good(x, state, *args):
            if state is bad_states[0]:   # raise after the other left: this exit restores
                assert good_done.wait(timeout=10)
            return lstm(x, state, *args)

        monkeypatch.setattr(bb, "convlstm_step", lstm_after_good)

        def good():
            backbone_forward(voxels, keep, scores, SMALL, PARAMS)
            good_done.set()

        raised = run_threads([good, lambda: backbone_forward(voxels, keep, scores, SMALL,
                                                             PARAMS, states=bad_states)])
        assert raised[0] is None and isinstance(raised[1], ShapeError)
        assert fake.calls == [("get",), ("set", 1), ("set", 2)]
        assert blas.POLICY._in_flight == 0 and fake.threads == 2

    def test_no_library_is_a_no_op(self, monkeypatch):
        lookups = []

        def find_nothing():
            lookups.append(1)
            return None

        monkeypatch.setattr(blas, "POLICY", blas.ThreadPolicy(find=find_nothing))
        barrier = threading.Barrier(2, timeout=10)

        def overlapping():
            for _ in range(3):
                with blas.POLICY.forward():
                    barrier.wait()
                barrier.wait()      # both out before the next overlap

        assert run_threads([overlapping, overlapping]) == [None, None]
        assert lookups == [1] and blas.POLICY._in_flight == 0

    def test_many_threads_keep_the_count(self):
        """More threads than cores, switching often: while a thread sees two
        forwards in flight, one BLAS thread runs; afterwards the count is back."""
        api = FakeBlas(threads=4)
        policy = blas.ThreadPolicy(find=api.find)
        wrong = []

        def client():
            for _ in range(300):
                with policy.forward():
                    time.sleep(0)
                    if policy._in_flight >= 2 and api.threads != 1:
                        wrong.append(api.threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            raised = run_threads([client] * 8)
        finally:
            sys.setswitchinterval(interval)
        assert raised == [None] * 8 and wrong == []
        assert policy._in_flight == 0 and api.threads == 4
        sets = [c[1] for c in api.calls if c[0] == "set"]
        assert sets and sets == [1, 4] * (len(sets) // 2)
        assert api.lookups == 1


class FakeLibrary:
    """A loaded library that exports the given symbols, as ctypes functions do."""

    def __init__(self, *names):
        for name in names:
            setattr(self, name, types.SimpleNamespace())


class TestFindThreadApi:
    """find_thread_api's fallbacks, over a fake /proc/self/maps and ctypes.CDLL."""

    @staticmethod
    def fake_maps(monkeypatch, *libs):
        lines = "".join(f"7f00-7f01 r-xp 0 08:01 1 {lib}\n" for lib in libs)
        monkeypatch.setattr(blas, "open", lambda path: io.StringIO(lines), raising=False)

    def test_unreadable_maps_give_none(self, monkeypatch):
        def refuse(path):
            raise PermissionError(path)

        monkeypatch.setattr(blas, "open", refuse, raising=False)
        assert blas.find_thread_api() is None

    def test_library_that_fails_to_load_is_skipped(self, monkeypatch):
        get_name, set_name = blas._SYMBOLS[-1]
        good = FakeLibrary(get_name, set_name)
        loads = []

        def cdll(path):
            loads.append(path)
            if path == "/lib/a-libopenblas.so":
                raise OSError(path)
            return good

        self.fake_maps(monkeypatch, "/lib/b-libopenblas.so", "/lib/a-libopenblas.so")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert blas.find_thread_api() == (getattr(good, get_name), getattr(good, set_name))
        assert loads == ["/lib/a-libopenblas.so", "/lib/b-libopenblas.so"]

    def test_library_without_a_symbol_pair_gives_none(self, monkeypatch):
        # each pair lacks one half, so no (get, set) pair is complete
        halves = [pair[i % 2] for i, pair in enumerate(blas._SYMBOLS)]
        self.fake_maps(monkeypatch, "/lib/libopenblas.so")
        monkeypatch.setattr(ctypes, "CDLL", lambda path: FakeLibrary(*halves))
        assert blas.find_thread_api() is None


class TestConcurrentForwards:
    @pytest.mark.parametrize("dense", [False, True], ids=["stca", "all-true"])
    @pytest.mark.parametrize("timesteps", [1, 2])
    def test_two_threads_match_sequential_calls(self, timesteps, dense, monkeypatch):
        voxels, keep, scores = scene_inputs(timesteps, dense)
        want = backbone_forward(voxels, keep, scores, SMALL, PARAMS)
        api = blas.find_thread_api()
        threads_before = api and api[0]()
        overlap_in_embed(monkeypatch)
        got = [[], []]

        def client(i):
            for _ in range(3):
                got[i].append(backbone_forward(voxels, keep, scores, SMALL, PARAMS))

        assert run_threads([lambda: client(0), lambda: client(1)]) == [None, None]
        assert blas.POLICY._in_flight == 0
        assert (api and api[0]()) == threads_before
        for outs, states in got[0] + got[1]:
            assert [o.tobytes() for step in outs for o in step] == \
                [o.tobytes() for step in want[0] for o in step]
            assert [(s.h.tobytes(), s.c.tobytes()) for s in states] == \
                [(s.h.tobytes(), s.c.tobytes()) for s in want[1]]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_first_forwards_racing_on_fresh_parameters_match_sequential(self, parallel,
                                                                        monkeypatch):
        """Both threads may build a block's cached a and 1/a; the bits agree."""
        voxels, keep, scores = scene_inputs(1, dense=False)
        want_outs, want_states = backbone_forward(voxels, keep, scores, SMALL,
                                                  init_backbone_params(SMALL, seed=62),
                                                  parallel=parallel)
        shared = init_backbone_params(SMALL, seed=62)
        overlap_in_embed(monkeypatch)
        got = [None, None]

        def client(i):
            got[i] = backbone_forward(voxels, keep, scores, SMALL, shared, parallel=parallel)

        assert run_threads([lambda: client(0), lambda: client(1)]) == [None, None]
        for outs, states in got:
            assert [o.tobytes() for step in outs for o in step] == \
                [o.tobytes() for step in want_outs for o in step]
            assert [(s.h.tobytes(), s.c.tobytes()) for s in states] == \
                [(s.h.tobytes(), s.c.tobytes()) for s in want_states]

"""OpenBLAS's thread count while forwards overlap in one process.

Every matmul of a forward runs on OpenBLAS's thread pool, and there is one
pool per process. A lone forward has the pool to itself. Two forwards in two
threads would both drive it and contend for its threads, and then finish
fewer windows per second together than one does alone. So while more than
one forward is in flight, OpenBLAS runs each call on the calling thread
alone and the forwards share the cores between them; when the last one
finishes, the thread count from before the overlap is restored. Outputs do
not depend on the thread count: stage outputs and LSTM states are
byte-identical at one and at two threads.

A lone forward never calls into OpenBLAS: the library is looked up only on
the first overlap, and where none is found the policy does nothing. Another
process taking a core is not covered.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

# (get, set) thread-count symbols, by how the library was built and named
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


def find_thread_api():
    """(get, set) of the loaded OpenBLAS's thread count, or None if there is none."""
    import ctypes

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
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class ThreadPolicy:
    """Counts the forwards in flight; while more than one is, OpenBLAS runs one thread.

    find() returns the (get, set) pair of the thread-count API, or None; it
    is called once, on the first overlap.
    """

    def __init__(self, find=find_thread_api):
        self._find = find
        self._lock = threading.Lock()
        self._in_flight = 0
        self._looked_up = False
        self._api = None
        self._saved = None      # the count to restore, while lowered

    @contextmanager
    def forward(self):
        """Hold for the length of one forward."""
        with self._lock:
            if self._in_flight == 1 and self._saved is None:
                self._lower()
            self._in_flight += 1
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1
                if self._in_flight == 0 and self._saved is not None:
                    self._api[1](self._saved)
                    self._saved = None

    def _lower(self):
        if not self._looked_up:
            self._api, self._looked_up = self._find(), True
        if self._api is not None:
            get, put = self._api
            self._saved = get()
            put(1)


# OpenBLAS's thread count belongs to the process, and so does this policy.
POLICY = ThreadPolicy()

"""Worker processes that run jobs.

A job is `fn(arg, item)` for one item of a list: a pyramid build, a no-grad
encode, a few-shot head fit or a training pack's gradient. It reads nothing
but `arg` and its item and returns its value, so it gives the same value on
any process. A call's `Session` sends each worker `fn` and `arg` once, on that
worker's first use, and then lists of items. The pool decides where a run's
items go and on how many workers: one per CPU this process may run on besides
its own, and one per item after the first, never from a config value or an
input. The workers start once `_SPREAD_AFTER` spreadable items ran here.
"""
from __future__ import annotations

import atexit
import functools
import itertools
import os
import threading

from .errors import PamrError, WorkerError

__all__ = ["Session", "started"]


@functools.cache
def _openblas():
    """The get and set thread-count functions of the OpenBLAS this process
    has loaded, or None: another BLAS, or no /proc/self/maps to find it by."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _set_blas_threads(n: int) -> int | None:
    """Run OpenBLAS on `n` threads; returns the count it had, or None where
    no OpenBLAS was found. The model's bits do not depend on the BLAS thread
    count (the row blocks of `tensor`), so this changes only its speed."""
    found = _openblas()
    if found is None:
        return None
    get, put = found
    old = get()
    put(n)
    return old


class _Pool:
    """Worker processes that run the jobs of one session at a time.

    Workers start on first use and serve every later call of the process, so
    repeated calls pay the start-up once. Each remembers the session whose
    `fn` and `arg` it holds. A worker's PamrError comes back as its reply and
    is raised after every reply of the run is read, so the pool stays in
    step; a worker that dies is a WorkerError, and the pool closes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.procs: list = []
        self.conns: list = []
        self.keys: list = []  # per worker, the key of the session it holds

    def grow(self, workers: int) -> None:
        """Start workers until there are `workers`."""
        if len(self.conns) >= workers:
            return
        import multiprocessing

        # forkserver: workers fork from a fresh single-threaded server that
        # has imported this module, never from a process running BLAS threads
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload([__name__])
        if not self.procs:
            atexit.register(self.close)
        while len(self.conns) < workers:
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(there,), name="pamr-pool-worker", daemon=True)
            proc.start()
            there.close()  # the worker holds the only other end: its death reads as EOF here
            self.procs.append(proc)
            self.conns.append(here)
            self.keys.append(None)

    def send(self, w: int, session: Session, items: list) -> None:
        """Hand worker `w` items of `session`, with its `fn` and `arg` unless it holds them."""
        job = None if self.keys[w] == session.key else session.job
        self._io(self.conns[w].send, (job, items))
        self.keys[w] = session.key

    def run(self, session: Session, items: list, here) -> list:
        """`session.run` on `used` workers (at least one): the session's,
        but at most one per item after the first (the one cap by a run's
        items), the first ceil(n / (used + 1)) items here, the rest
        round-robin on the workers."""
        used = min(session.workers, len(items) - 1)
        self.grow(used)
        mine = -(-len(items) // (used + 1))
        for w in range(used):
            self.send(w, session, items[mine + w :: used])
        results: list = []
        try:
            for item in items[:mine]:
                results.append(here(item))
        except PamrError as e:
            results.append(e)  # the items after it here cannot be earlier failures
        finally:  # read every reply, so the pool stays in step
            results += [self._io(self.conns[(j - mine) % used].recv) for j in range(mine, len(items))]
        return _raise_first(results)

    def _io(self, fn, *args):
        try:
            return fn(*args)
        except (EOFError, OSError):
            self.close()
            raise WorkerError("a pool worker exited before it returned its work") from None

    def close(self) -> None:
        """Close every pipe, so each worker reads EOF and exits, then reap them."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            proc.close()
        self.procs, self.conns, self.keys = [], [], []
        atexit.unregister(self.close)


_POOL = _Pool()  # one per process, so that repeated calls reuse its workers
_KEYS = itertools.count()

# A pool start (a forkserver and a worker, and their exit) costs about 0.16 s
# on a 2-vCPU host, so `Session.run` starts one only after this many items
# (packs or jobs) ran here that could have spread: more than one-shot desk
# `pretrain`, `fewshot`, frozen `finetune` and `reconstruct` run (24, 24, 20,
# 0) or a benchmark trace by its traced call's end (38), and fewer than a
# desk caller runs in one second of such work (60 to 160).
_SPREAD_AFTER = 64
_unspread = 0  # the items `Session.run` ran here instead of spreading them; under `_POOL.lock`


def _raise_first(replies: list) -> list:
    """`replies`, unless one is a PamrError: then the earliest of them is raised."""
    for reply in replies:
        if isinstance(reply, PamrError):
            raise reply
    return replies


class Session:
    """One call's jobs `fn(arg, item)`: with `spread`, on up to one worker
    per CPU this process may run on besides its own (`os.sched_getaffinity`,
    one CPU where it is missing), and all here without it. `fn` must be a
    module-level function; each worker is sent `fn` and `arg` once, on its
    first use by this session, however many runs follow."""

    def __init__(self, fn, arg, spread: bool):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        self.workers, self.job, self.key = cpus - 1 if spread else 0, (fn, arg), next(_KEYS)

    def run(self, items: list, here) -> list:
        """[fn(arg, item) for item in items], in item order: this process
        runs its share, the first ceil(n / (w + 1)) items for the w workers
        used, through `here(item)`, and a worker runs fn(arg, item). A
        PamrError of any item is raised after every reply is read, the
        earliest item's first. The one place that decides where items go:
        all run here with no worker, for one item, while another thread's
        run holds the pool, or while the pool is down and this process has
        run fewer than `_SPREAD_AFTER` items here that it could have spread.
        A spread run pins this process's BLAS to one thread until it ends:
        the workers fill the other CPUs, and its BLAS threads would contend."""
        global _unspread
        if self.workers < 1 or len(items) < 2 or not _POOL.lock.acquire(blocking=False):
            return [here(item) for item in items]
        threads = None
        try:
            if not _POOL.conns and _unspread < _SPREAD_AFTER:
                _unspread += len(items)
                return [here(item) for item in items]
            threads = _set_blas_threads(1)
            return _POOL.run(self, items, here)
        finally:
            if threads is not None:
                _set_blas_threads(threads)
            _POOL.lock.release()


def started() -> bool:
    """Whether this process's pool has workers running."""
    return bool(_POOL.conns)


def _serve(conn) -> None:
    """A pool worker: per message, keep the `fn` and `arg` it brings, if any,
    and reply fn(arg, item) for each of its items. Exits when the parent's
    end closes, the parent's exit included."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's; EOF ends this loop
    _set_blas_threads(1)  # each worker has a CPU of its own
    while True:
        try:
            job, items = conn.recv()
        except (EOFError, OSError):
            return
        if job is not None:
            fn, arg = job
        for item in items:
            try:
                reply = fn(arg, item)
            except PamrError as e:
                reply = e
            try:
                conn.send(reply)
            except OSError:  # the parent is gone
                return

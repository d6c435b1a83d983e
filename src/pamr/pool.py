"""Worker processes that run training packs and stateless jobs.

A batch's packs share no graph, so a worker can back a pack into its own
copy of the model: that copy's leaf gradients are the pack's gradient, which
the caller adds to its own leaves in pack order by backward()'s rule
(`pack_pool`, for `training._fit`). A job is `fn(arg, item)` for one item of
a list, such as a pyramid build, a no-grad encode or a few-shot head fit; it
reads nothing else and returns its value (`run_jobs`). The pool is imported
only when a call could run on more than one process, and its workers start
only when one first does.
"""
from __future__ import annotations

import atexit
import functools
import os
import threading
from contextlib import contextmanager

from .errors import PamrError, WorkerError
from .training import _back_pack

__all__ = ["pack_pool", "run_jobs", "started"]


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


class _PackPool:
    """Worker processes that back packs into their own copy of a model, or
    run jobs.

    Workers start on first use and serve every later call of the process, so
    repeated calls pay the start-up once. A call sends its model once; a step
    sends the parameters once per worker, and its packs round-robin. Replies
    come back in pack order. A worker's PamrError comes back as its reply and
    is raised after every reply of the step is read, so the pool stays in
    step; a worker that dies is a WorkerError, and the pool closes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.procs: list = []
        self.conns: list = []

    def load(self, workers: int, model, pack_loss, names: list[str]) -> None:
        """Send the first `workers` workers the model, the pack loss and the
        names of the parameters to train."""
        for conn in self.conns[:workers]:
            self._io(conn.send, ("model", model, pack_loss, names))

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
            proc = ctx.Process(target=_serve, args=(there,), name="pamr-pack-worker", daemon=True)
            proc.start()
            there.close()  # the worker holds the only other end: its death reads as EOF here
            self.procs.append(proc)
            self.conns.append(here)

    def send(self, workers: int, arrays: list, packs: list, shares: list) -> list:
        """Hand `packs` with their batch shares round-robin to the first
        `workers` workers, each with the parameter `arrays`; returns the pipe
        each pack's reply comes on, in pack order."""
        used = self.conns[: min(workers, len(packs))]
        for w, conn in enumerate(used):
            self._io(conn.send, ("step", arrays, list(zip(packs[w :: len(used)], shares[w :: len(used)]))))
        return [used[j % len(used)] for j in range(len(packs))]

    def gather(self, sent: list) -> list:
        """(loss value, hits, leaf gradients) of each pack sent, in pack order."""
        return _raise_first([self._io(conn.recv) for conn in sent])

    def discard(self, sent: list) -> None:
        """Read and drop the replies of the packs sent."""
        try:
            self.gather(sent)
        except PamrError:
            pass

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
        self.procs, self.conns = [], []
        atexit.unregister(self.close)


_POOL = _PackPool()  # one per process, so that repeated calls reuse its workers


def _raise_first(replies: list) -> list:
    """`replies`, unless one is a PamrError: then the earliest of them is raised."""
    for reply in replies:
        if isinstance(reply, PamrError):
            raise reply
    return replies


@contextmanager
def _held(workers: int):
    """The process's pool with at least `workers` workers, or None while
    another thread's call holds it (in-process gives the same bits). Until
    the call ends, this process runs BLAS on one thread: the workers fill the
    other CPUs, and its BLAS threads would only contend with them."""
    if not _POOL.lock.acquire(blocking=False):
        yield None
        return
    threads = _set_blas_threads(1)
    try:
        _POOL.grow(workers)
        yield _POOL
    finally:
        _POOL.lock.release()
        if threads is not None:
            _set_blas_threads(threads)


@contextmanager
def pack_pool(workers: int, model, pack_loss, names: list[str]):
    """The process's pool, its first `workers` workers loaded with `model`,
    `pack_loss` and the names of the parameters to train; or None while
    another thread's call holds it."""
    with _held(workers) as pool:
        if pool is not None:
            pool.load(workers, model, pack_loss, names)
        yield pool


def started() -> bool:
    """Whether this process's pool has workers running."""
    return bool(_POOL.conns)


def run_jobs(workers: int, fn, arg, items: list) -> list:
    """[fn(arg, item) for item in items] on this process and up to `workers`
    workers: item j runs here when j % (w + 1) == 0 and on worker
    j % (w + 1) - 1 otherwise, for the w workers used. `fn` must be a
    module-level function; each worker used is sent `arg` once and its items.
    A PamrError of any item is raised after every reply is read, the earliest
    item's first; a worker that dies is a WorkerError, and the pool closes.
    While another thread's call holds the pool, every item runs here."""
    with _held(workers) as pool:
        used = pool.conns[: min(workers, len(items) - 1)] if pool else []
        slots = len(used) + 1
        for w, conn in enumerate(used):
            pool._io(conn.send, ("jobs", fn, arg, items[w + 1 :: slots]))
        results: list = [None] * len(items)
        try:
            for j in range(0, len(items), slots):
                results[j] = fn(arg, items[j])
        except PamrError as e:
            results[j] = e  # the items after it here cannot be earlier failures
        finally:  # read every reply, so the pool stays in step
            for w, conn in enumerate(used):
                for j in range(w + 1, len(items), slots):
                    results[j] = pool._io(conn.recv)
        return _raise_first(results)


def _serve(conn) -> None:
    """A pool worker: load each call's model, then per step the parameters,
    and back each pack into this copy alone; or run a call's jobs. Exits when
    the parent's end closes, the parent's exit included."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's; EOF ends this loop
    _set_blas_threads(1)  # each worker has a CPU of its own
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "model":
            _, model, pack_loss, names = message
            params = model.param_dict()
            leaves = [params[name] for name in names]
            continue
        if message[0] == "jobs":
            _, fn, arg, items = message
            runs = [functools.partial(fn, arg, item) for item in items]
        else:
            _, arrays, jobs = message
            for p, a in zip(leaves, arrays):
                p.data = a
            runs = [functools.partial(_back_in_copy, model, pack_loss, leaves, *job) for job in jobs]
        for run in runs:
            try:
                reply = run()
            except PamrError as e:
                reply = e
            try:
                conn.send(reply)
            except OSError:  # the parent is gone
                return


def _back_in_copy(model, pack_loss, leaves: list, pack: list, share: float) -> tuple:
    """One pack backed into this process's model copy alone: its loss value,
    its hits and each leaf's gradient (None: no gradient reached it)."""
    for p in leaves:
        p.zero_grad()
    value, hit = _back_pack(model, pack_loss, pack, share)
    return value, hit, [p._grad for p in leaves]

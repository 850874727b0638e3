"""Helpers shared by several modules: the one thread pool of the process,
per-thread scratch buffers for hot loops, and the one CSV and JSON artifact
layout.

Work fans out through ``map_in_order`` only.  A fan-out runs on the calling
thread plus at most ``workers() - 1`` threads of one lazily built,
process-wide pool with one worker per CPU the process may use; the caller
runs the first item itself and then, like the pool threads, claims items
no thread has started.  On a pool thread, or on a caller busy with items
of its own fan-out, a nested fan-out runs inline, so pools never nest and
no more threads compute than there are CPUs.  The kernel fans out its
tiles of lag columns, ``value`` its rows and ``montecarlo`` its path
blocks; each item does the same arithmetic on whichever thread runs it, so
no output depends on the worker count.

A hot loop that would allocate the same large temporaries on every pass
asks a ``Scratch`` for them instead and writes into them with ufunc
``out=`` arguments.  A ``Scratch`` holds, per thread, one float64 buffer
per name; it grows to the largest request and is reused, so a loop's
steady state faults in no new pages.  The owner of a ``Scratch`` decides
its lifetime: the kernel keeps one for the process (each thread's buffers
live as long as the thread), a Monte Carlo stream one per stream.
"""

from __future__ import annotations

import contextvars
import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

# ``inline`` is set for good on pool threads and while a caller runs items
# of its own fan-out.
_thread_state = threading.local()


def workers() -> int:
    """Threads one fan-out may compute on: one per CPU this process may run
    on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mark_inline() -> None:
    _thread_state.inline = True


@lru_cache(maxsize=None)
def _pool(n_workers: int) -> ThreadPoolExecutor:
    """The process's pool for a worker count (cached, so tests may vary it)."""
    return ThreadPoolExecutor(max_workers=n_workers,
                              thread_name_prefix="lastzero",
                              initializer=_mark_inline)


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]``, computed on up to ``workers()``
    threads; runs inline with one item or when already inside a fan-out."""
    items = list(items)
    n_workers = workers()
    n_threads = min(n_workers, len(items))
    if n_threads <= 1 or getattr(_thread_state, "inline", False):
        return [fn(item) for item in items]
    results = [None] * len(items)
    unclaimed = iter(range(1, len(items)))   # item 0 is the caller's
    lock = threading.Lock()
    failed = threading.Event()

    def claim():
        with lock:
            return next(unclaimed, None)

    def drain(i):
        try:
            while i is not None and not failed.is_set():
                results[i] = fn(items[i])
                i = claim()
        except BaseException:
            failed.set()
            raise

    # each helper runs in a copy of the caller's context, so settings such
    # as ``np.errstate`` hold on every thread of the fan-out
    helpers = [_pool(n_workers).submit(contextvars.copy_context().run,
                                       lambda: drain(claim()))
               for _ in range(n_threads - 1)]
    _thread_state.inline = True
    try:
        drain(0)
    finally:
        _thread_state.inline = False
        wait(helpers)
    for helper in helpers:
        helper.result()                 # re-raises a helper's error
    return results


class Scratch(threading.local):
    """Named float64 work arrays, one set per thread, reused across calls.

    ``array(name, shape)`` returns a C-contiguous view of the calling
    thread's buffer ``name``, laid out like ``np.empty(shape)``, with
    undefined contents.  A buffer grows to the largest shape asked of it
    and is freed with its thread or with this object, whichever goes
    first.  Two arrays taken under one name on one thread share memory.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def write_csv(path, header, rows, comments: dict) -> None:
    """CSV with '\\n' line ends: a '# key=value' line per comment whose
    value is not None, the header, then the rows (sequences of already
    formatted fields)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in comments.items():
            if value is not None:
                fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc: dict) -> None:
    """JSON indented by one space, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

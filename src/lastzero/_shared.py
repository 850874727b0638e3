"""Helpers shared by several modules: the one thread pool of the process,
per-thread scratch buffers for hot loops, the integer check of config
fields, and the one CSV and JSON artifact layout.

Work fans out through ``map_in_order`` only.  A fan-out queues its items,
in order, on one lazily built, process-wide pool with one worker per CPU
the process may use, and the caller waits for them.  A fan-out started on
a pool thread runs inline there, so pools never nest and no more threads
compute than there are CPUs.  Only callers holding independent work fan
out (``value`` its rows, the boundary certificate its times,
``montecarlo`` its path blocks); each item does the same arithmetic on
whichever thread runs it, so no output depends on the worker count.

A hot loop that would allocate the same large temporaries on every pass
asks a ``Scratch`` for them instead and writes into them with ufunc
``out=`` arguments.  A ``Scratch`` holds, per thread, one float64 buffer
per name; it grows to the largest request and is reused, so a loop's
steady state faults in no new pages.  The owner of a ``Scratch`` decides
its lifetime: the kernel keeps one for the process (each thread's buffers
live as long as the thread), the Monte Carlo one per call.
"""

from __future__ import annotations

import contextvars
import json
import math
import numbers
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

# ``inline`` is set for good on pool threads by the pool's initializer: a
# fan-out there must not queue work only the pool's busy threads could run.
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
    """``[fn(item) for item in items]`` on the pool's ``workers()`` threads
    while the caller waits; inline with one item, one worker or on a pool
    thread.  An error, or an interrupt of the wait, cancels the items not
    yet started and propagates once the running ones have finished."""
    items = list(items)
    n_workers = workers()
    if (min(n_workers, len(items)) <= 1
            or getattr(_thread_state, "inline", False)):
        return [fn(item) for item in items]
    pool = _pool(n_workers)
    # each item runs in a copy of the caller's context, so settings such as
    # ``np.errstate`` hold on every thread of the fan-out
    futures = [pool.submit(contextvars.copy_context().run, fn, item)
               for item in items]
    try:
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
    return [future.result() for future in futures]


class Scratch(threading.local):
    """Named float64 work arrays, one set per thread, reused across calls.

    ``array(name, shape)`` returns a C-contiguous view of the calling
    thread's buffer ``name``, laid out like ``np.empty(shape)``, with
    undefined contents.  A buffer grows to the largest shape asked of it
    and is freed with its thread or with this object, whichever goes
    first.  Two arrays taken under one name on one thread share memory.

    Buffers stay resident on purpose: freed after each pass, their pages
    would be faulted in again on the next (Monte Carlo blocks that freed
    their arrays took 66k-115k minor faults per 1e4 x 4000 run, against
    6k with reuse).  The price is memory held while the owner lives: in
    ``simulate`` (1e4 paths x 4000 steps on two CPUs) two 2 MB arrays per
    thread until the run ends, and in the kernel one buffer per thread, for
    the thread's life, of 6 x 2^15 floats (1.5 MB), out of which every
    tile carves its arrays; its pages become resident as tiles reach
    them.  What a thread frees may also stay in its malloc arena, about
    0.5 MB of peak RSS per pool thread in ``value``.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def integer_fields(config, **least) -> None:
    """Store each named field of the frozen dataclass ``config`` as a Python
    int; one that is not an integer (numpy integers are, bools are not), or
    is below its ``least``, raises a ValueError naming the field."""
    for name, low in least.items():
        value = getattr(config, name)
        if not (isinstance(value, numbers.Integral)
                and not isinstance(value, bool) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, "
                             f"got {value!r}")
        object.__setattr__(config, name, int(value))


def write_csv(path, header, rows, comments: dict) -> None:
    """CSV with '\\n' line ends: a '# key=value' line per comment whose
    value is not None, the header, then the rows (sequences of already
    formatted strings).  Fields are joined with commas as they are: every
    caller's are column names and formatted numbers, which a CSV writer
    never quotes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in comments.items():
            if value is not None:
                fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(fields) + "\n" for fields in rows)


def write_json(path, doc: dict) -> None:
    """JSON indented by one space, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

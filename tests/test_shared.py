"""Tests for the process's one thread pool and its ordered fan-out."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import lastzero._shared as shared_module
from lastzero._shared import map_in_order

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cpus(monkeypatch):
    def set_workers(n):
        monkeypatch.setattr(shared_module, "workers", lambda: n)
    return set_workers


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_results_in_item_order(cpus, workers):
    cpus(workers)
    assert map_in_order(lambda i: i * i, range(50)) == [i * i for i in
                                                         range(50)]
    assert map_in_order(str, []) == []


def test_caller_runs_first_item(cpus):
    cpus(4)
    seen = map_in_order(lambda _: threading.current_thread(), range(6))
    assert seen[0] is threading.current_thread()


@pytest.mark.parametrize("workers", [2, 8])
def test_items_run_in_callers_errstate(cpus, workers):
    # numpy's error settings live in the caller's context; every thread of
    # the fan-out must see them, and the caller's own state is restored
    import numpy as np

    cpus(workers)
    outside = np.geterr()
    with np.errstate(all="ignore"):
        seen = map_in_order(lambda _: np.geterr()["over"], range(16))
    assert seen == ["ignore"] * 16
    assert np.geterr() == outside
    assert map_in_order(lambda _: np.geterr(), range(4)) == [outside] * 4


# Every pool thread runs a task that fans out; had the fan-out queued work on
# the pool, each thread would wait on work only a thread of the pool can do.
# A deadlock leaves the pool's threads blocked, and they would also block
# interpreter exit, so the check runs in a child process that leaves by
# os._exit when a result times out.
NESTED_ON_WORKERS = """
import concurrent.futures, os, sys, threading
import lastzero._shared as shared

workers = int(sys.argv[1])
shared.workers = lambda: workers


def task():
    return shared.map_in_order(lambda _: threading.current_thread(), range(5))


futures = [shared._pool(workers).submit(task) for _ in range(workers)]
try:
    done = [future.result(timeout=30) for future in futures]
except concurrent.futures.TimeoutError:
    print("deadlock", flush=True)
    os._exit(3)
inline = all(len(set(threads)) == 1 and threads[0] is not threading.main_thread()
             for threads in done)
print("inline" if inline else "fanned out", flush=True)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_nested_call_on_a_worker_runs_inline(workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NESTED_ON_WORKERS,
                           str(workers)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (0, "inline\n"), proc.stderr


def test_nested_call_from_the_caller_runs_inline(cpus):
    cpus(2)

    def item(i):
        inner = map_in_order(lambda _: threading.current_thread(), range(4))
        return len(set(inner)) == 1 and inner[0] is threading.current_thread()

    assert all(map_in_order(item, range(6)))


def test_error_stops_every_thread_before_it_propagates(cpus):
    cpus(3)
    started = []

    def item(i):
        started.append(i)
        if i == 4:
            raise KeyError(i)
        time.sleep(1e-3)
        return i

    with pytest.raises(KeyError):
        map_in_order(item, range(200))
    n_started = len(started)
    assert n_started < 200
    time.sleep(0.05)
    assert len(started) == n_started

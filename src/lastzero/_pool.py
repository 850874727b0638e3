"""Worker count shared by the thread pools in ``value`` and ``montecarlo``."""

from __future__ import annotations

import os


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1

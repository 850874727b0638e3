"""Helpers shared by several modules: the worker count of the thread pools
in ``value`` and ``montecarlo``, and the one CSV and JSON artifact layout."""

from __future__ import annotations

import csv
import json
import os


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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

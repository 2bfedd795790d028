"""Shared measurement helpers: latency ranking, CPU and memory readings.

Nothing here imports :mod:`repro`; the orchestrator uses these helpers
without loading the program under test.
"""

from __future__ import annotations

import math
import os
import platform
import resource
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

#: How many samples must lie beyond a tail percentile for it to count.
TAIL_BEYOND = 10


def latency_summary(
    samples: Sequence[Tuple[float, bool]], penalty_s: float
) -> Dict[str, float]:
    """Median and tail of ``(latency_s, ok)`` samples, failures included.

    A failed or mismatched operation never produced a verified answer, so
    it misses every latency limit: it is ranked above every served
    operation and charged ``penalty_s`` (the caller passes the timed
    window, at least as long as any served latency).  The tail is the
    highest nearest-rank percentile with at least :data:`TAIL_BEYOND`
    samples beyond it; with too few samples it falls back to the maximum
    and says so through ``tail_beyond``.
    """
    served = sorted(latency for latency, ok in samples if ok)
    failed = len(samples) - len(served)
    penalty = max([penalty_s] + served[-1:])
    ranked = served + [penalty] * failed
    count = len(ranked)
    if count == 0:
        raise ValueError("no latency samples")
    median = ranked[math.ceil(0.5 * count) - 1]
    index = max(0, count - 1 - TAIL_BEYOND)
    return {
        "p50_s": median,
        "tail_s": ranked[index],
        "tail_percentile": round(100.0 * (index + 1) / count, 2),
        "tail_beyond": count - 1 - index,
        "samples": count,
        "failed": failed,
    }


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(live_pids: Iterable[int] = ()) -> float:
    """CPU used so far by this process, its reaped children and the
    given live children (whose CPU ``getrusage`` cannot see yet)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    return total + sum(_proc_cpu_s(pid) for pid in live_pids)


def peak_rss_mb(live_pids: Iterable[int] = ()) -> float:
    """The larger of this process's peak RSS and its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = [_proc_hwm_kb(pid) for pid in live_pids]
    return max([own, reaped] + live) / 1024.0


def machine() -> Dict[str, object]:
    """What the run record states about the box it ran on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": "numpy" if numpy_version else "int",
    }


def count_metric_names(names: Iterable[str]) -> List[str]:
    """The per-layer metrics that are counts: two traced runs of one seed
    must agree on them exactly."""
    counted = ("sat.models", "sat.conflicts", "sat.propagations",
               "pool.maps", "select.delta_rows", "store.hits",
               "store.misses", "store.puts", "query.count")
    return [name for name in names
            if name in counted or name.startswith(("select.tier.", "batch.",
                                                    "service.failed."))]

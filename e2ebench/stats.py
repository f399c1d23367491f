"""Small statistics shared by the workloads: percentiles and memory."""

from __future__ import annotations

import math
import resource
from typing import Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it; otherwise it would be the largest few samples, not a tail.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of non-empty samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond its rank."""
    if not samples:
        return None
    rank = max(1, math.ceil(q * len(samples)))
    if len(samples) - rank < MIN_BEYOND:
        return None
    return nearest_rank(samples, q)


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live child process (MB), from VmHWM."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")

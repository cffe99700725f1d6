"""Timing arithmetic and machine details shared by the benchmark entry points."""

from __future__ import annotations

import os
import platform
import statistics


def tail_latency(latencies, beyond: int = 10):
    """Latency at the highest percentile that has at least `beyond` ops above it.

    Returns (value, percentile, n_ops). The op at sorted index n - beyond - 1
    has exactly `beyond` ops after it, so its percentile is its rank share.
    With `beyond` or fewer ops no such percentile exists; the maximum is
    returned with percentile 100 so the result says it is not a tail.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no latencies")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    """Core count, CPU model, Python and library versions, BLAS thread settings."""
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }

"""Summary helpers of the benchmark: the tail rule, failure counting, the
output digest and the environment record.  Nothing here imports mvamp, so
the helpers can be tested without the package on the path.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.special import betainc

#: A tail percentile is quoted only with at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Outcome:
    """What one item produced: the value-bearing outputs, and the error
    message when the program reported a failure instead of a value."""

    values: tuple
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class Tail:
    """The tail latency with the percentile it sits at and the sample count."""

    percentile: float
    value: float
    samples: int


def samples_beyond(n: int, q: float) -> int:
    """Samples above the q-quantile of n samples: N - ceil(q N)."""
    return n - math.ceil(q * n - 1e-9)


def tail_latency(samples, q: float, beyond: int = TAIL_BEYOND) -> Tail:
    """The q-quantile of the samples, quoted only when at least ``beyond``
    samples lie beyond it.

    Each workload fixes q in advance, at the highest percentile that a run
    of the benchmark's length has ``beyond`` samples above, and a run goes
    on until it has them.  So every run quotes the same percentile, however
    many items it completed.  The value is the Harrell-Davis estimate of the
    q-quantile: a mean of all order statistics weighted by a
    Beta(q (N+1), (1-q) (N+1)) density, which varies less from run to run
    than a single order statistic.  Raises ValueError when fewer than
    ``beyond`` samples lie beyond q.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    if samples_beyond(n, q) < beyond:
        raise ValueError(f"need {beyond} samples beyond the {100 * q:g}th percentile, "
                         f"got {samples_beyond(n, q)} of {n}")
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return Tail(percentile=100.0 * q, value=float(np.diff(cdf) @ ordered), samples=n)


def count_failed(outcomes) -> int:
    """Number of items whose program call reported a failure."""
    return sum(1 for o in outcomes if o.failed)


def failure_kinds(outcomes) -> dict[str, int]:
    """Failed items by error type (the text before the first colon)."""
    kinds: dict[str, int] = {}
    for o in outcomes:
        if o.failed:
            kind = o.error.split(":", 1)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def digest(outcomes) -> str:
    """SHA-256 of the value-bearing outputs, in order, at full precision."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr(o.values).encode())
        h.update(b"\n")
    return h.hexdigest()


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median
    (0 when the quartiles coincide)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2) if q2 else math.inf


def _openblas_threads() -> int | None:
    """Thread count in effect in the OpenBLAS that numpy loaded, when the
    wheel bundles one; None when it cannot be queried."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Versions, core count and BLAS threading of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas.strip(),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }

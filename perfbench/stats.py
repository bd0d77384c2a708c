"""Statistics shared by every workload of the benchmark.

Rules (see README.md in this directory):

* **Warm-up.**  Each workload sends untimed requests before its timed
  phase opens (first engine preparation per release and connection), and
  records only requests issued inside the phase.
* **Tail percentile.**  A tail is reported at the highest percentile that
  still has at least ``min_beyond`` samples beyond it, capped at p99, and
  always together with the sample count (:func:`tail`).
* **Geometric mean** of positive values (:func:`geomean`).
* **Open loop.**  Latency is measured from each request's *due* time, so
  a stall also charges the requests queued behind it; the generator's own
  lateness (send time minus the moment it could have sent) is reported
  separately (:func:`due_latencies`).
* **Throughput** is total work over the wall-clock span of the timed
  phase (:func:`throughput`).  Per-client rates are never summed: clients
  that time-slice one CPU would each report the full rate.
* **Calibrated CPU time.**  A server CPU time is divided by the CPU time
  of fixed work run on the server's CPU at about the same moment
  (:func:`nearest_median`; ``harness.Calibrator``): the vCPU's speed
  moves by up to 1.6x over seconds and minutes on a shared host, and the
  ratio stays put where both times move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tail",
    "tail",
    "geomean",
    "throughput",
    "due_latencies",
    "quota",
    "nearest_median",
]


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it sits at and its sample count."""

    quantile: float
    value: float
    samples: int

    def describe(self) -> str:
        return f"p{self.quantile * 100:g} of {self.samples} samples"


def tail(values: Sequence[float], cap: float = 0.99, min_beyond: int = 10) -> Tail:
    """The highest percentile (<= ``cap``) with ``min_beyond`` samples past it.

    With ``n`` samples that is ``q = 1 - min_beyond / n``; fewer than
    ``2 * min_beyond`` samples fall back to the median, the lowest
    percentile a tail is ever reported at.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    q = min(cap, 1.0 - min_beyond / n)
    q = max(q, 0.5)
    return Tail(quantile=round(q, 6), value=float(np.percentile(values, q * 100)),
                samples=n)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    logs = []
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean needs positive values, got {value}")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


def throughput(starts: Sequence[float], ends: Sequence[float], units: float) -> float:
    """``units`` of work over the wall-clock span ``min(starts)..max(ends)``."""
    if not starts or not ends:
        raise ValueError("throughput of no requests")
    span = max(ends) - min(starts)
    if span <= 0:
        raise ValueError("throughput needs a positive wall-clock span")
    return units / span


def due_latencies(
    due: Sequence[float],
    ready: Sequence[float],
    sent: Sequence[float],
    done: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Open-loop latency and generator lateness, in the input's time unit.

    ``due`` is when the schedule wanted each request sent, ``ready`` when
    a connection was free to send it (never before ``due``), ``sent``
    when it actually went out and ``done`` when its response was read.
    Latency is ``done - due``: the wait for a busy connection is part of
    what the user sees.  Lateness is ``sent - ready``: time the generator
    itself lost (oversleeping, interpreter scheduling) — a large value
    means the load was not offered as scheduled.
    """
    if not (len(due) == len(ready) == len(sent) == len(done)):
        raise ValueError("due/ready/sent/done must have equal lengths")
    latency = [end - start for start, end in zip(due, done)]
    lateness = [max(0.0, out - free) for free, out in zip(ready, sent)]
    return latency, lateness



def quota(shares: Sequence[float], total: int) -> np.ndarray:
    """Whole counts summing to ``total``, proportional to ``shares``
    (largest remainders get the leftover units)."""
    shares = np.asarray(shares, dtype=float)
    exact = shares / shares.sum() * total
    counts = np.floor(exact).astype(int)
    leftover = total - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:leftover]] += 1
    return counts



def nearest_median(at: Sequence[float], times: Sequence[float], values: Sequence[float],
                   k: int = 3) -> np.ndarray:
    """For each instant in ``at``, the median of the ``k`` ``values`` taken
    nearest to it (``times`` ascending, one per value)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < k:
        raise ValueError(f"need at least {k} calibration samples, got {len(times)}")
    at = np.asarray(at, dtype=float)
    # The k nearest lie among the k samples on either side of each instant.
    right = np.searchsorted(times, at)
    candidates = np.clip(right[:, None] + np.arange(-k, k), 0, len(times) - 1)
    distance = np.abs(times[candidates] - at[:, None])
    distance[:, 1:][candidates[:, 1:] == candidates[:, :-1]] = np.inf  # clipped repeats
    nearest = np.take_along_axis(candidates, np.argsort(distance, axis=1, kind="stable")[:, :k],
                                 axis=1)
    return np.median(values[nearest], axis=1)

"""The benchmark's calibration work (see ``harness.Calibrator``).

For each line read on standard input, runs two fixed pieces of work and
prints the thread CPU seconds each took: :func:`compute`, an interpreter
loop with numpy prefix sums and binary searches and a little JSON, and
:func:`parse`, JSON parsed into arrays.  They never change, so their CPU times measure how
fast the vCPU runs at that moment.  Two, because the host's slow spells
slow allocation-heavy parsing more than arithmetic.  In 40-60 s trials
(CVs over 2 s buckets), ``compute`` held the CPU cost of 1,000-rect AG
and kd-tree batches to 1.6-2.2% where their CPU time moved by 14-18%,
and ``parse`` held parsing a 2,000-point ingest body to 2.4-2.8% where
its CPU time moved by 14-32%; either part tracked the other kind of work
less well (JSON to 8-10% with ``compute``).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

ARRAY = np.random.default_rng(0).random(20_000)
TEXT = json.dumps(np.random.default_rng(1).random((300, 2)).tolist())


def compute() -> int:
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(12):
        total += int(np.cumsum(ARRAY).searchsorted(ARRAY[:2000])[0])
    for _ in range(4):
        total += len(json.loads(TEXT))
    return total


def parse() -> int:
    return sum(len(np.asarray(json.loads(TEXT))) for _ in range(20))


def main() -> None:
    compute(), parse()  # the first calls pay for imports and page faults
    for _ in sys.stdin:
        start = time.thread_time()
        compute()
        middle = time.thread_time()
        parse()
        print(middle - start, time.thread_time() - middle, flush=True)


if __name__ == "__main__":
    main()

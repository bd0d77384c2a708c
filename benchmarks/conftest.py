"""Shared configuration for the benchmark suite.

Benchmarks run the per-figure experiment modules at reduced-but-meaningful
scale (the dataset substitution rationale is in ``repro.datasets.synthetic``):
dataset sizes are scaled down from the paper's (keeping storage at its full
9,000), and 100 queries per size are used instead of 200.  Every bench
writes its rendered report to ``benchmarks/output/`` so the regenerated
tables survive pytest's output capture.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

#: Scaled dataset sizes used by the benches (paper sizes: ``paper_n`` in
#: ``repro.datasets.registry``).
BENCH_N = {
    "road": 150_000,
    "checkin": 150_000,
    "landmark": 120_000,
    "storage": 9_000,
}

#: Queries per size (paper: 200).
BENCH_QUERIES = 100

#: Trial-runner processes for every experiment bench.  Parallel pooling
#: is bit-identical to serial (see repro.experiments.runner), so this is
#: purely a wall-clock knob; default serial, override via BENCH_WORKERS.
BENCH_WORKERS = int(os.environ.get("BENCH_WORKERS", "1"))

OUTPUT_DIR = Path(__file__).parent / "output"

#: Machine-readable perf results land at the repo root as
#: ``BENCH_<name>.json`` so the performance trajectory is tracked in-tree
#: from PR to PR (human-readable tables still go to ``OUTPUT_DIR``).
REPO_ROOT = Path(__file__).parent.parent


def write_report(name: str, text: str) -> Path:
    """Persist a rendered experiment report next to the benchmarks."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def write_json_report(name: str, payload: dict) -> Path:
    """Persist machine-readable perf numbers as ``BENCH_<name>.json``.

    ``payload`` must be JSON-serialisable (coerce numpy scalars with
    ``float``/``int`` first).  The file is committed at the repo root so
    each PR's perf numbers are diffable history, not throwaway output.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def update_json_report(name: str, updates: dict) -> Path:
    """Merge ``updates`` into ``BENCH_<name>.json`` (created if missing).

    For benches whose scenarios live in separate tests (e.g. the service
    throughput modes and the overload scenario): each test overwrites
    only its own top-level keys, so running one scenario never erases
    the others' tracked numbers.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    payload = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    payload.update(updates)
    return write_json_report(name, payload)


@pytest.fixture
def report_writer():
    return write_report

"""Shared plumbing for the per-figure experiment modules.

Every experiment module exposes a ``run(...) -> ExperimentReport`` function
that (a) sets up a dataset + workload, (b) evaluates a list of method
configurations, and (c) renders the same rows/series the paper's
corresponding figure or table shows.  This module holds the pieces they
share: the report container and the standard setup from the dataset
registry.

Experiments accept ``n_points`` / ``queries_per_size`` / ``n_trials``
overrides so the benchmark targets can trade fidelity for runtime; the
defaults mirror the paper (full default dataset size, 200 queries per
size).  They also accept ``n_workers`` (threaded through to
:func:`repro.experiments.runner.evaluate_builder`'s process pool).

``standard_setup`` memoises one :class:`ExperimentSetup` per
``(dataset, n_points, queries_per_size, seeds)`` tuple: an epsilon sweep
(``suite.py``, ``table2.py``, the per-figure CLI loops) re-requests the
same dataset + workload once per epsilon, and the workload's ground
truth — the most expensive part of setup — does not depend on epsilon at
all.  Setups are deterministic functions of their key, so sharing the
cached instance never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import GeoDataset
from repro.datasets.registry import get_spec
from repro.queries.workload import QueryWorkload

__all__ = [
    "ExperimentReport",
    "ExperimentSetup",
    "standard_setup",
]


@dataclass
class ExperimentReport:
    """A rendered experiment: a title plus ordered text blocks.

    ``data`` carries machine-readable results (per-experiment structure)
    so tests and report generation don't have to parse the text.
    """

    title: str
    blocks: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, block: str) -> None:
        self.blocks.append(block)

    def render(self) -> str:
        separator = "\n\n"
        return f"== {self.title} ==\n\n{separator.join(self.blocks)}"


@dataclass
class ExperimentSetup:
    """A dataset together with its evaluation workload."""

    dataset: GeoDataset
    workload: QueryWorkload
    dataset_name: str


#: Memoised setups keyed by (name, n_points, queries_per_size, seeds).
#: Small and bounded in practice: one entry per distinct dataset scale a
#: process touches (the suite uses at most one per registry dataset).
_SETUP_CACHE: dict[tuple, ExperimentSetup] = {}

#: Safety valve so a long-lived process sweeping many scales cannot pin
#: an unbounded number of million-point datasets.
_SETUP_CACHE_MAX = 16


def standard_setup(
    dataset_name: str,
    n_points: int | None = None,
    queries_per_size: int = 200,
    data_seed: int = 7,
    query_seed: int = 11,
) -> ExperimentSetup:
    """Generate a registered dataset and its paper workload, reproducibly.

    The data and query RNGs are independent so changing the number of
    queries never changes the dataset.  Results are memoised per
    argument tuple (they are pure functions of it), so epsilon sweeps
    pay for dataset generation and workload ground truth once per
    dataset instead of once per (dataset, epsilon).
    """
    key = (dataset_name, n_points, queries_per_size, data_seed, query_seed)
    cached = _SETUP_CACHE.get(key)
    if cached is not None:
        return cached
    spec = get_spec(dataset_name)
    dataset = spec.make(n=n_points, rng=np.random.default_rng(data_seed))
    workload = spec.workload(
        dataset,
        rng=np.random.default_rng(query_seed),
        queries_per_size=queries_per_size,
    )
    setup = ExperimentSetup(
        dataset=dataset, workload=workload, dataset_name=dataset_name
    )
    if len(_SETUP_CACHE) >= _SETUP_CACHE_MAX:
        _SETUP_CACHE.pop(next(iter(_SETUP_CACHE)))
    _SETUP_CACHE[key] = setup
    return setup

"""Dataset registry: Table II's datasets with their workload parameters.

Each :class:`DatasetSpec` records a dataset's generator, its domain, the
query-size ladder (``q6`` from Table II; ``q1 = q6 / 32`` per axis), and
both the paper's original point count and the scaled default this
reproduction uses (the substitution rationale is in
:mod:`repro.datasets.synthetic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.dataset import GeoDataset
from repro.datasets import synthetic
from repro.queries.workload import QueryWorkload

__all__ = ["DatasetSpec", "DATASETS", "dataset_names", "get_spec", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry for one of the paper's evaluation datasets."""

    name: str
    generator: Callable[..., GeoDataset]
    paper_n: int
    default_n: int
    q6_width: float
    q6_height: float
    description: str

    def make(
        self, n: int | None = None, rng: np.random.Generator | int | None = None
    ) -> GeoDataset:
        """Generate the dataset with ``n`` points (default: scaled size)."""
        return self.generator(n if n is not None else self.default_n, rng)

    def workload(
        self,
        dataset: GeoDataset,
        rng: np.random.Generator | int | None,
        queries_per_size: int = 200,
    ) -> QueryWorkload:
        """The paper's q1..q6 workload for this dataset."""
        return QueryWorkload.generate(
            dataset,
            self.q6_width,
            self.q6_height,
            rng,
            queries_per_size=queries_per_size,
        )


DATASETS: dict[str, DatasetSpec] = {
    "road": DatasetSpec(
        name="road",
        generator=synthetic.make_road,
        paper_n=1_600_000,
        default_n=400_000,
        q6_width=16.0,
        q6_height=16.0,
        description="TIGER road intersections, WA + NM (synthetic analogue)",
    ),
    "checkin": DatasetSpec(
        name="checkin",
        generator=synthetic.make_checkin,
        paper_n=1_000_000,
        default_n=250_000,
        q6_width=192.0,
        q6_height=96.0,
        description="Gowalla check-ins, world-wide (synthetic analogue)",
    ),
    "landmark": DatasetSpec(
        name="landmark",
        generator=synthetic.make_landmark,
        paper_n=870_000,
        default_n=225_000,
        q6_width=40.0,
        q6_height=20.0,
        description="TIGER landmarks, continental US (synthetic analogue)",
    ),
    "storage": DatasetSpec(
        name="storage",
        generator=synthetic.make_storage,
        paper_n=9_000,
        default_n=9_000,
        q6_width=40.0,
        q6_height=20.0,
        description="US storage facilities (synthetic analogue)",
    ),
}


def dataset_names() -> list[str]:
    """Names of the four registered datasets, in the paper's order."""
    return list(DATASETS)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name; raises ``KeyError`` with suggestions."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        ) from None


def load_dataset(
    name: str,
    n: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> GeoDataset:
    """Generate a registered dataset by name."""
    return get_spec(name).make(n=n, rng=rng)

"""Run the entire evaluation suite and produce one combined report.

``run_suite`` regenerates every table/figure at a chosen scale and stitches
the individual reports together — the programmatic equivalent of
``pytest benchmarks/ --benchmark-only``, convenient for one-shot rebuilds
of all result tables and exposed on the CLI as ``python -m repro suite``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import figure1, figure2, figure3, figure4, figure5, figure6, table2
from repro.experiments.base import ExperimentReport

__all__ = ["SuiteScale", "run_suite", "QUICK_SCALE"]


@dataclass(frozen=True)
class SuiteScale:
    """How big to run the suite.

    ``n_points`` of ``None`` uses each dataset's registry default; the
    storage dataset always runs at its full 9,000 points.  ``n_trials``
    and ``n_workers`` are threaded to every ``evaluate_builder`` call
    (``n_workers=None`` keeps the serial default; parallel pooling is
    bit-identical to serial, see :mod:`repro.experiments.runner`).
    """

    n_points: dict = field(default_factory=dict)
    queries_per_size: int = 100
    epsilons: tuple[float, ...] = (1.0, 0.1)
    datasets: tuple[str, ...] = ("road", "checkin", "landmark", "storage")
    figure3_datasets: tuple[str, ...] = ("checkin", "landmark")
    seed: int = 0
    n_trials: int = 1
    n_workers: int | None = None


#: A fast sanity-scale run (minutes).
QUICK_SCALE = SuiteScale(
    n_points={"road": 40_000, "checkin": 40_000, "landmark": 40_000},
    queries_per_size=40,
    epsilons=(1.0,),
)


def run_suite(scale: SuiteScale = QUICK_SCALE) -> ExperimentReport:
    """Regenerate every experiment; returns one combined report.

    Sub-reports appear in the paper's order: Figure 1, Table II,
    Figures 2-6.  ``report.data`` maps sub-report titles to their data.
    """
    combined = ExperimentReport(title="Full evaluation suite")

    def include(report: ExperimentReport) -> None:
        combined.add(report.render())
        combined.data[report.title] = report.data

    include(figure1.run(n_points=scale.n_points or None, render_maps=False))
    include(
        table2.run(
            dataset_names=list(scale.datasets),
            epsilons=scale.epsilons,
            queries_per_size=scale.queries_per_size,
            ladder_steps=1,
            seed=scale.seed,
            n_trials=scale.n_trials,
            n_workers=scale.n_workers,
        )
    )

    def n_for(name: str) -> int | None:
        return scale.n_points.get(name)

    for name in scale.datasets:
        for epsilon in scale.epsilons:
            include(
                figure2.run(
                    name, epsilon, n_points=n_for(name),
                    queries_per_size=scale.queries_per_size, seed=scale.seed,
                    n_trials=scale.n_trials, n_workers=scale.n_workers,
                )
            )
    for name in scale.figure3_datasets:
        if name in scale.datasets:
            include(
                figure3.run(
                    name, scale.epsilons[0], n_points=n_for(name),
                    queries_per_size=scale.queries_per_size, seed=scale.seed,
                    n_trials=scale.n_trials, n_workers=scale.n_workers,
                )
            )
    for name in scale.figure3_datasets:
        if name in scale.datasets:
            include(
                figure4.run_vary_m1(
                    name, scale.epsilons[0], n_points=n_for(name),
                    queries_per_size=scale.queries_per_size, seed=scale.seed,
                    n_trials=scale.n_trials, n_workers=scale.n_workers,
                )
            )
    for name in scale.datasets:
        for epsilon in scale.epsilons:
            include(
                figure5.run(
                    name, epsilon, n_points=n_for(name),
                    queries_per_size=scale.queries_per_size,
                    seed=scale.seed, sweep_steps=1,
                    n_trials=scale.n_trials, n_workers=scale.n_workers,
                )
            )
            include(
                figure6.run(
                    name, epsilon, n_points=n_for(name),
                    queries_per_size=scale.queries_per_size,
                    seed=scale.seed, sweep_steps=1,
                    n_trials=scale.n_trials, n_workers=scale.n_workers,
                )
            )
    return combined

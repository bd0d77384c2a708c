"""Scaling laws: how synopsis error moves with epsilon and N.

The error analysis of Section II-B implies concrete scaling behaviour
that the experiments only sample at two epsilon values.  This module
measures the full curves:

* :func:`epsilon_sweep` — mean error of a builder across a grid of
  epsilon values (same dataset, same workload);
* :func:`size_sweep` — mean error across dataset sizes drawn from the
  same generator;
* :func:`log_log_slope` — least-squares slope in log-log space, used to
  check predictions like "UG error at the guideline size scales as
  ``(N eps)^(-1/2)``" (both error terms scale as ``sqrt(r) / m`` with
  ``m = sqrt(N eps / c)``, up to the relative-error denominator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.synopsis import SynopsisBuilder
from repro.experiments.runner import evaluate_builder
from repro.queries.workload import QueryWorkload

__all__ = ["SweepResult", "epsilon_sweep", "size_sweep", "log_log_slope"]


@dataclass
class SweepResult:
    """One measured curve: parameter values and mean errors."""

    parameter_name: str
    values: list[float] = field(default_factory=list)
    mean_relative_errors: list[float] = field(default_factory=list)

    def add(self, value: float, error: float) -> None:
        self.values.append(float(value))
        self.mean_relative_errors.append(float(error))

    def slope(self) -> float:
        """Log-log slope of error against the swept parameter."""
        return log_log_slope(self.values, self.mean_relative_errors)

    def as_rows(self) -> list[tuple[float, float]]:
        return list(zip(self.values, self.mean_relative_errors))


def log_log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Requires at least two strictly positive points.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log slope requires positive values")
    log_x = np.log(xs)
    log_y = np.log(ys)
    slope, _ = np.polyfit(log_x, log_y, 1)
    return float(slope)


def epsilon_sweep(
    builder: SynopsisBuilder,
    dataset: GeoDataset,
    workload: QueryWorkload,
    epsilons: list[float],
    n_trials: int = 2,
    seed: int = 0,
) -> SweepResult:
    """Measure mean relative error across privacy budgets."""
    if not epsilons:
        raise ValueError("epsilons must be non-empty")
    result = SweepResult(parameter_name="epsilon")
    for epsilon in sorted(epsilons):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        evaluation = evaluate_builder(
            builder, dataset, workload, epsilon, n_trials=n_trials, seed=seed
        )
        result.add(epsilon, evaluation.mean_relative())
    return result


def size_sweep(
    builder: SynopsisBuilder,
    make_dataset,
    make_workload,
    sizes: list[int],
    epsilon: float,
    n_trials: int = 2,
    seed: int = 0,
) -> SweepResult:
    """Measure mean relative error across dataset sizes.

    ``make_dataset(n)`` must return a :class:`GeoDataset` of ``n`` points
    from a fixed generator; ``make_workload(dataset)`` its workload.
    Relative error normalises by the (size-dependent) true counts, so this
    isolates the ``N`` dependence of the *relative* accuracy.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    result = SweepResult(parameter_name="n_points")
    for n in sorted(sizes):
        if n < 1:
            raise ValueError(f"sizes must be positive, got {n}")
        dataset = make_dataset(n)
        workload = make_workload(dataset)
        evaluation = evaluate_builder(
            builder, dataset, workload, epsilon, n_trials=n_trials, seed=seed
        )
        result.add(n, evaluation.mean_relative())
    return result

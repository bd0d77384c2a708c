"""Ablation benchmarks for the method design choices the paper makes.

Not figures from the paper, but direct probes of its design decisions:

* the Guideline 1 constant ``c = 10`` sits on a broad optimum plateau;
* AG's two-level constrained inference pays for itself;
* geometric budget allocation helps the KD-hybrid tree;
* AG's second level is doing real work (vs a first-level-only release).
"""

import pytest
from conftest import BENCH_N, BENCH_QUERIES, write_report

from repro.baselines.kd_tree import KDTreeBuilder
from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.uniform_grid import UniformGridBuilder
from repro.experiments.base import standard_setup
from repro.experiments.report import format_table
from repro.experiments.runner import evaluate_builder


@pytest.fixture(scope="module")
def landmark_setup():
    return standard_setup(
        "landmark", n_points=BENCH_N["landmark"], queries_per_size=BENCH_QUERIES
    )


def test_ablation_guideline_c(benchmark, landmark_setup):
    """Sweep c in Guideline 1: c = 10 lies on the optimum plateau."""
    c_values = (2.5, 5.0, 10.0, 20.0, 40.0)

    def run():
        return {
            c: evaluate_builder(
                UniformGridBuilder(c=c), landmark_setup.dataset,
                landmark_setup.workload, 1.0, seed=59,
            ).mean_relative()
            for c in c_values
        }

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "ablation_guideline_c",
        format_table(
            ["c", "mean relative error"],
            [[f"{c:g}", f"{mean:.4f}"] for c, mean in means.items()],
            title="Guideline 1 constant sweep (landmark, eps=1)",
        ),
    )
    best = min(means.values())
    assert means[10.0] <= best * 1.4  # c = 10 is on the plateau


def test_ablation_ag_inference(benchmark, landmark_setup):
    """Constrained inference makes AG at least as accurate, never worse."""

    def run():
        with_ci = evaluate_builder(
            AdaptiveGridBuilder(constrained_inference=True),
            landmark_setup.dataset, landmark_setup.workload, 1.0,
            n_trials=2, seed=61,
        ).mean_relative()
        without_ci = evaluate_builder(
            AdaptiveGridBuilder(constrained_inference=False),
            landmark_setup.dataset, landmark_setup.workload, 1.0,
            n_trials=2, seed=61,
        ).mean_relative()
        return with_ci, without_ci

    with_ci, without_ci = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "ablation_ag_inference",
        format_table(
            ["variant", "mean relative error"],
            [["AG + constrained inference", f"{with_ci:.4f}"],
             ["AG without inference", f"{without_ci:.4f}"]],
            title="AG constrained-inference ablation (landmark, eps=1)",
        ),
    )
    assert with_ci <= without_ci * 1.1


def test_ablation_kd_budget_allocation(benchmark, landmark_setup):
    """Geometric budgets (Cormode et al.) do not hurt the hybrid tree."""

    def run():
        geometric = evaluate_builder(
            KDTreeBuilder(
                depth=10, quadtree_levels=4, geometric_budget=True,
                constrained_inference=True, median_fraction=0.15,
            ),
            landmark_setup.dataset, landmark_setup.workload, 1.0, seed=67,
            label="geometric",
        ).mean_relative()
        uniform = evaluate_builder(
            KDTreeBuilder(
                depth=10, quadtree_levels=4, geometric_budget=False,
                constrained_inference=True, median_fraction=0.15,
            ),
            landmark_setup.dataset, landmark_setup.workload, 1.0, seed=67,
            label="uniform",
        ).mean_relative()
        return geometric, uniform

    geometric, uniform = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "ablation_kd_budget",
        format_table(
            ["allocation", "mean relative error"],
            [["geometric (2^(1/3))", f"{geometric:.4f}"],
             ["uniform", f"{uniform:.4f}"]],
            title="KD-hybrid budget allocation ablation (landmark, eps=1)",
        ),
    )
    assert geometric <= uniform * 1.25


def test_ablation_ag_second_level(benchmark, landmark_setup):
    """AG's adaptive second level beats releasing only the coarse grid."""

    def run():
        m1 = 30
        two_level = evaluate_builder(
            AdaptiveGridBuilder(first_level_size=m1),
            landmark_setup.dataset, landmark_setup.workload, 1.0,
            n_trials=2, seed=71,
        ).mean_relative()
        coarse_only = evaluate_builder(
            UniformGridBuilder(grid_size=m1),
            landmark_setup.dataset, landmark_setup.workload, 1.0,
            n_trials=2, seed=71,
        ).mean_relative()
        return two_level, coarse_only

    two_level, coarse_only = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "ablation_ag_second_level",
        format_table(
            ["variant", "mean relative error"],
            [["AG (m1=30 + adaptive level 2)", f"{two_level:.4f}"],
             ["UG at m=30 (coarse only)", f"{coarse_only:.4f}"]],
            title="AG second-level ablation (landmark, eps=1)",
        ),
    )
    assert two_level < coarse_only


def test_ablation_aspect_adaptive_grid(benchmark):
    """Square cells on a non-square domain (checkin is 360 x 150).

    The paper always uses m x m; this measures what (if anything) the
    aspect-matched variant buys.
    """
    setup = standard_setup(
        "checkin", n_points=BENCH_N["checkin"], queries_per_size=BENCH_QUERIES
    )

    def run():
        square = evaluate_builder(
            UniformGridBuilder(), setup.dataset, setup.workload, 1.0,
            n_trials=2, seed=89, label="m x m",
        ).mean_relative()
        adaptive = evaluate_builder(
            UniformGridBuilder(aspect_adaptive=True),
            setup.dataset, setup.workload, 1.0,
            n_trials=2, seed=89, label="aspect-matched",
        ).mean_relative()
        return square, adaptive

    square, adaptive = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "ablation_aspect",
        format_table(
            ["grid", "mean relative error"],
            [["m x m (paper)", f"{square:.4f}"],
             ["aspect-matched cells", f"{adaptive:.4f}"]],
            title="Aspect-adaptive grid ablation (checkin, eps=1)",
        ),
    )
    # Neither variant should dominate wildly; the paper's square grid is
    # within a modest factor of the aspect-matched one.
    assert 0.5 < square / adaptive < 2.0


def test_ablation_nonnegativity_postprocess(benchmark, landmark_setup):
    """Non-negativity post-processing trades range accuracy for validity.

    Raw signed counts answer *range* queries best: their zero-mean noises
    cancel when summed, while clamping introduces a positive bias in
    sparse regions.  The total-preserving projection repairs most of the
    clamp's damage.  (Non-negative counts still matter when the release
    feeds synthetic-data generation, which discards negative cells.)
    """

    def run():
        means = {}
        for mode in ("none", "clamp", "project"):
            means[mode] = evaluate_builder(
                UniformGridBuilder(postprocess=mode),
                landmark_setup.dataset, landmark_setup.workload, 0.2,
                n_trials=2, seed=97, label=mode,
            ).mean_relative()
        return means

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "ablation_postprocess",
        format_table(
            ["postprocess", "mean relative error"],
            [[mode, f"{error:.4f}"] for mode, error in means.items()],
            title="Non-negativity post-processing ablation (landmark, eps=0.2)",
        ),
    )
    # Raw counts win on range queries (noise cancellation)...
    assert means["none"] <= means["project"] * 1.1
    # ...and the total-preserving projection beats the naive clamp.
    assert means["project"] <= means["clamp"] * 1.1

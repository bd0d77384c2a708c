"""Benchmark: Figure 3 — the effect of adding hierarchies to a uniform grid.

Paper shapes asserted (checkin and landmark, as in the figure):

* hierarchies over the 360 grid improve on U360 at best modestly — no
  H(b,d) beats plain U360 by a large factor (Section IV-C's point);
* Privelet over the same grid is competitive with the hierarchies;
* UG at the Guideline 1 size remains in the same league as everything
  built on the (suboptimal for this N) 360 grid.
"""

import pytest
from conftest import BENCH_N, BENCH_QUERIES, BENCH_WORKERS, write_report

from repro.experiments import figure3

PANELS = [
    ("checkin", 1.0),
    ("landmark", 1.0),
]


@pytest.mark.parametrize("dataset_name, epsilon", PANELS)
def test_figure3_panel(benchmark, dataset_name, epsilon):
    report = benchmark.pedantic(
        lambda: figure3.run(
            dataset_name,
            epsilon,
            leaf_size=360,
            n_points=BENCH_N[dataset_name],
            queries_per_size=BENCH_QUERIES,
            seed=23,
            n_workers=BENCH_WORKERS,
        ),
        rounds=1,
        iterations=1,
    )
    write_report(f"fig3_{dataset_name}_eps{epsilon:g}", report.render())

    results = report.data["results"]
    u360 = results["U360"].mean_relative()
    w360 = results["W360"].mean_relative()
    hierarchy_means = {
        label: result.mean_relative()
        for label, result in results.items()
        if label.startswith("H")
    }
    best_hierarchy = min(hierarchy_means.values())

    # The hierarchy benefit is limited (Section IV-C): even the best
    # H(b,d) improves U360 by well under 2x, and no hierarchy collapses.
    assert best_hierarchy > u360 / 2.0
    assert max(hierarchy_means.values()) < u360 * 2.0
    # Privelet stays in a sane band.  At the paper's N (1M) W360 modestly
    # beats U360; at our scaled N the wavelet's heavy per-leaf noise is
    # relatively larger, so we only assert it does not blow up — its
    # advantage re-emerges on large queries (asserted in the unit tests)
    # and its Figure 5 role (worse than UG at small grids) is asserted in
    # bench_fig5.
    assert w360 < u360 * 6.0
    # Choosing the grid size right (Guideline 1) matters more than adding
    # a hierarchy: UG at the guideline size beats all 360-leaf methods.
    u_best = min(
        result.mean_relative()
        for label, result in results.items()
        if label.startswith("U") and label != "U360"
    )
    assert u_best <= min(best_hierarchy, w360, u360) * 1.1

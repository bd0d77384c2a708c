"""Performance benchmark: the flat AG build and engine vs the per-cell loop.

Not a paper figure — an engineering benchmark for the library itself,
covering both sides of the release boundary:

* **build**: ``AdaptiveGridBuilder.fit`` (vectorised CSR kernel: one leaf
  assignment pass, one Laplace draw, one segment-sum inference pass) vs
  the ``fit_percell`` oracle in ``tests/oracles/adaptive_grid.py`` (the
  pre-flat-kernel m1 x m1 Python loop), at several first-level sizes.
  The releases must be bit-identical — the speedup is free of any change
  in what is released.
* **query**: the engine production serves, built by the
  ``adaptive_grid`` kind row's ``engine`` constructor and asserted to be
  ``TwoLevelGridEngine`` (four-corner inclusion-exclusion over the
  two-level summed-area function ``S = F + G - TP + P_cell``, the
  kernel consistent trees share), vs the oracle's per-cell composite
  ``AdaptiveGridEngine`` on a large mixed q1-q6 batch, with answers
  matching to ``rtol=1e-9``; the constructor's seconds are recorded as
  the engine preparation.

Results are written to ``BENCH_flat_kernel.json`` at the repo root so the
perf trajectory is tracked in-tree.  The hard targets asserted here:
>= 5x build speedup at the paper-realistic first-level size (the auto
rule picks m1 ~ 28 for this dataset and epsilon, so m1 = 32 is the
relevant regime; m1 = 16 is also recorded) and >= 3x on a >= 1k-query
mixed batch.

``BENCH_FLAT_QUICK=1`` (the CI smoke mode, ``make bench-flat-quick``)
shrinks the dataset and times each path once.  It keeps every
equivalence assertion, but skips the speedup floors and leaves the
tracked JSON untouched.
"""

import os
import time

import numpy as np
from conftest import BENCH_N, write_json_report, write_report

from repro.core.adaptive_grid import AdaptiveGridBuilder, AdaptiveGridSynopsis
from repro.core.geometry import rects_to_boxes
from repro.core.serialization import synopsis_kind
from repro.datasets.synthetic import make_landmark
from repro.experiments.report import format_table
from repro.queries.workload import QueryWorkload
from tests.oracles.adaptive_grid import AdaptiveGridEngine, fit_percell

QUICK = os.environ.get("BENCH_FLAT_QUICK", "") not in ("", "0")

N_POINTS = 20_000 if QUICK else BENCH_N["landmark"]
EPSILON = 1.0
BUILD_M1 = (16, 32, 64)
#: The acceptance assertion runs at the paper-realistic first-level size.
ASSERT_M1 = 32
ROUNDS = 1 if QUICK else 5

#: The kernel an AG release is served by, at both scales.
EXPECTED_ENGINE = "TwoLevelGridEngine"


def _best_seconds(fn, rounds: int = ROUNDS) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_flat_kernel_build_and_query_speedups():
    dataset = make_landmark(N_POINTS, rng=3)

    build_rows = []
    build_results = {}
    for m1 in BUILD_M1:
        builder = AdaptiveGridBuilder(first_level_size=m1)
        flat = builder.fit(dataset, EPSILON, np.random.default_rng(5))
        reference = fit_percell(
            builder, dataset, EPSILON, np.random.default_rng(5)
        )
        # The kernel must not change the release: bit-identical state.
        np.testing.assert_array_equal(flat.cell_sizes, reference.cell_sizes)
        np.testing.assert_array_equal(flat.cell_totals, reference.cell_totals)
        np.testing.assert_array_equal(flat.leaf_counts, reference.leaf_counts)

        percell_s = _best_seconds(
            lambda: fit_percell(builder, dataset, EPSILON, np.random.default_rng(5))
        )
        flat_s = _best_seconds(
            lambda: builder.fit(dataset, EPSILON, np.random.default_rng(5))
        )
        speedup = percell_s / max(flat_s, 1e-9)
        build_results[str(m1)] = {
            "percell_seconds": round(percell_s, 6),
            "flat_seconds": round(flat_s, 6),
            "speedup": round(speedup, 2),
            "leaf_cells": int(flat.leaf_cell_count()),
        }
        build_rows.append(
            [f"m1={m1}", f"{percell_s * 1e3:.1f}", f"{flat_s * 1e3:.1f}",
             f"{speedup:.1f}x"]
        )

    # Query side: a large mixed workload against one paper-realistic
    # release, per-cell composite engine vs the summed-area engine.
    synopsis = AdaptiveGridBuilder(first_level_size=ASSERT_M1).fit(
        dataset, EPSILON, np.random.default_rng(5)
    )
    workload = QueryWorkload.generate(
        dataset, 40.0, 20.0, rng=1, queries_per_size=500
    )
    boxes = rects_to_boxes(workload.all_rects())
    assert boxes.shape[0] >= 1_000

    row = synopsis_kind(AdaptiveGridSynopsis)
    percell_engine = AdaptiveGridEngine(synopsis)
    flat_engine = row.engine(synopsis)
    assert type(flat_engine).__name__ == EXPECTED_ENGINE
    percell_answers = percell_engine.answer_batch(boxes)
    flat_answers = flat_engine.answer_batch(boxes)
    np.testing.assert_allclose(flat_answers, percell_answers, rtol=1e-9, atol=1e-7)
    # And against the scalar definition, on a sample (the scalar loop over
    # the full batch would dominate the bench's wall-clock).
    from repro.core.geometry import Rect

    sample = boxes[:: max(1, boxes.shape[0] // 100)]
    scalar = np.array([synopsis.answer(Rect(*row)) for row in sample])
    np.testing.assert_allclose(
        flat_engine.answer_batch(sample), scalar, rtol=1e-9, atol=1e-7
    )

    percell_q_s = _best_seconds(lambda: percell_engine.answer_batch(boxes))
    flat_q_s = _best_seconds(lambda: flat_engine.answer_batch(boxes))
    query_speedup = percell_q_s / max(flat_q_s, 1e-9)

    prep_percell_s = _best_seconds(lambda: AdaptiveGridEngine(synopsis))
    prep_flat_s = _best_seconds(lambda: row.engine(synopsis))

    write_report(
        "flat_kernel",
        format_table(
            ["build", "per-cell loop (ms)", "flat kernel (ms)", "speedup"],
            build_rows,
            title=(
                f"Flat AG build vs per-cell loop "
                f"(landmark n={N_POINTS}, eps={EPSILON})"
            ),
        )
        + "\n"
        + format_table(
            ["query path", "seconds"],
            [
                [f"per-cell engine, {boxes.shape[0]} queries", f"{percell_q_s:.4f}"],
                [f"{EXPECTED_ENGINE}, {boxes.shape[0]} queries", f"{flat_q_s:.4f}"],
                ["speedup", f"{query_speedup:.1f}x"],
            ],
            title=f"Batch query engines (m1={ASSERT_M1})",
        ),
    )
    if QUICK:
        return  # smoke mode: equivalence checked, perf history untouched

    write_json_report(
        "flat_kernel",
        {
            "workload": {
                "dataset": "landmark",
                "n_points": int(N_POINTS),
                "epsilon": EPSILON,
                "n_queries": int(boxes.shape[0]),
                "query_mix": "q1-q6 sized rects, 500 per size",
            },
            "build": build_results,
            "build_release_bit_identical": True,
            "query": {
                "m1": ASSERT_M1,
                "engine": EXPECTED_ENGINE,
                "percell_engine_seconds": round(percell_q_s, 6),
                "flat_engine_seconds": round(flat_q_s, 6),
                "speedup": round(query_speedup, 2),
                "answers_rtol": 1e-9,
            },
            "engine_preparation": {
                "m1": ASSERT_M1,
                "percell_seconds": round(prep_percell_s, 6),
                "flat_seconds": round(prep_flat_s, 6),
                "speedup": round(prep_percell_s / max(prep_flat_s, 1e-9), 2),
            },
        },
    )

    assert build_results[str(ASSERT_M1)]["speedup"] >= 5.0
    # Slightly softer floor at m1 = 16, where the flat kernel is
    # data-pass-bound (typically ~5.7x standalone; the margin absorbs
    # pytest/plugin load and machine noise).
    assert build_results["16"]["speedup"] >= 4.0
    assert query_speedup >= 3.0

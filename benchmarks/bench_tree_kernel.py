"""Performance benchmark: the flat tree kernel.

Not a paper figure — an engineering benchmark for the library itself,
covering the three flattened layers of the tree baselines, on each one
(quadtree, KD-standard, KD-hybrid) at figure-3 scale (150k points, the
paper's 6-sizes x 200-queries workload shape):

* **build**: ``fit`` (one vectorised pass per tree level, written
  straight into ``TreeArrays``, + level-wise array inference) vs the
  per-node level-order oracle ``tests/oracles/trees.py``
  (``SpatialNode`` per region, ``Rect.mask`` per child, recursive
  inference), with the releases asserted bit-identical in both modes.
* **inference**: ``infer_level_order`` over the released arrays vs
  the recursive ``infer_tree`` oracle over the equivalent ``CountNode``
  graph (conversion included, as ``apply_tree_inference`` pays it),
  asserted bit-identical.
* **batch query**: the engine production serves, ``make_engine``'s
  (the lattice ``BatchQueryEngine`` the quadtree lowers onto, the
  edge-table ``FlatTreeEngine`` of the uninferred KD-standard tree, the
  two-level ``TwoLevelGridEngine`` the inferred KD-hybrid tree lowers
  onto), vs the scalar ``scalar_answer_batch`` loop
  (``TreeSynopsis.answer``, one recursion per visited node over the
  released arrays) on the full workload, asserted equal to float
  rounding; its class, asserted in both modes so that a method that
  silently falls back to another kernel fails, the seconds its row's
  ``engine`` constructor takes to build it (``engine_precompute_s``)
  and ``nbytes`` are recorded beside it.

Results are written to ``BENCH_tree_kernel.json`` at the repo root so
the perf trajectory is tracked in-tree; ``cpu_count`` is recorded
alongside (timings are single-threaded, but the context should never be
lost).  The hard targets asserted here are a >= 5x batch-query speedup
and a >= 2x build speedup over the oracle on every tree baseline.

``BENCH_TREE_QUICK=1`` (the CI smoke mode, ``make bench-tree-quick``)
shrinks the dataset and workload and keeps every equivalence assertion,
but skips the speedup floors and leaves the tracked JSON untouched —
a smoke run on a loaded CI box must not rewrite the repo's perf history.
It also restores every engine from its sealed buffers, both as
``engine(synopsis, engine(synopsis).slabs)`` and through an archive
round trip, and asserts bit-identical answers, so a buffer layout that
breaks sealed restore fails CI.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import write_json_report, write_report

from repro.baselines.constrained_inference import infer_level_order
from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder
from repro.baselines.quadtree import QuadtreeBuilder
from repro.datasets.synthetic import make_checkin
from repro.experiments.report import format_table
from repro.core.serialization import (
    synopsis_from_bytes,
    synopsis_kind,
    synopsis_to_bytes,
)
from repro.queries.engine import make_engine, scalar_answer_batch
from repro.queries.workload import QueryWorkload
from tests.oracles.inference import CountNode, infer_tree
from tests.oracles.trees import fit_level_oracle, to_root

QUICK = os.environ.get("BENCH_TREE_QUICK", "") not in ("", "0")

#: Figure-3 scale (see benchmarks/conftest.py): the checkin analogue at
#: 150k points, 6 query sizes x 200 queries.
BENCH_N = 20_000 if QUICK else 150_000
QUERIES_PER_SIZE = 50 if QUICK else 200
EPSILON = 1.0

#: The acceptance floors for the batch-query path and the build.
MIN_QUERY_SPEEDUP = 5.0
MIN_BUILD_SPEEDUP = 2.0

#: The kernel each method's release is served by, at both scales.
EXPECTED_ENGINE = {
    "Quad": "BatchQueryEngine",
    "Kst": "FlatTreeEngine",
    "Khy": "TwoLevelGridEngine",
}


def _builders():
    return [
        ("Quad", QuadtreeBuilder(depth=5 if QUICK else 8)),
        ("Kst", KDStandardBuilder(depth=5 if QUICK else None)),
        ("Khy", KDHybridBuilder(depth=5 if QUICK else None)),
    ]


def _best_seconds(fn, rounds: int = 3) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _assert_same_release(flat, oracle):
    a, b = flat.arrays, oracle.arrays
    for name in (
        "rects", "depths", "child_offsets", "noisy_counts", "variances",
        "counts", "level_offsets",
    ):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _to_count_node(node):
    return CountNode(
        noisy_count=node.noisy_count,
        variance=node.variance,
        children=[_to_count_node(child) for child in node.children],
    )


def test_tree_kernel_vs_object_graph():
    dataset = make_checkin(BENCH_N, rng=3)
    workload = QueryWorkload.generate(
        dataset, 90.0, 90.0, np.random.default_rng(11),
        queries_per_size=QUERIES_PER_SIZE,
    )
    rects = workload.all_rects()

    rows = []
    results = {}
    for label, builder in _builders():
        flat = builder.fit(dataset, EPSILON, np.random.default_rng(29))
        oracle = fit_level_oracle(builder, dataset, EPSILON, np.random.default_rng(29))
        _assert_same_release(flat, oracle)
        arrays = flat.arrays

        rounds = 2 if QUICK else 3
        build_flat_s = _best_seconds(
            lambda: builder.fit(dataset, EPSILON, np.random.default_rng(29)),
            rounds=rounds,
        )
        build_oracle_s = _best_seconds(
            lambda: fit_level_oracle(
                builder, dataset, EPSILON, np.random.default_rng(29)
            ),
            rounds=rounds,
        )

        # Inference alone, flat vs recursive (conversion included for the
        # recursive side, exactly what apply_tree_inference pays).
        root = to_root(oracle.arrays)
        infer_flat_s = _best_seconds(
            lambda: infer_level_order(
                arrays.noisy_counts, arrays.variances,
                arrays.child_offsets, arrays.level_offsets,
            ),
            rounds=rounds,
        )

        def run_recursive_inference():
            count_root = _to_count_node(root)
            infer_tree(count_root)
            return count_root

        infer_reference_s = _best_seconds(run_recursive_inference, rounds=rounds)
        flat_inferred = infer_level_order(
            arrays.noisy_counts, arrays.variances,
            arrays.child_offsets, arrays.level_offsets,
        )
        # Bit-identity of the two inference kernels on this tree (KD-
        # standard skips inference at build time, so compare against a
        # fresh recursive run, not the released counts).
        recursive = run_recursive_inference()
        recursive_inferred = []
        queue = [recursive]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            recursive_inferred.append(node.inferred_count)
            queue.extend(node.children)
            cursor += 1
        np.testing.assert_array_equal(flat_inferred, recursive_inferred)

        row = synopsis_kind(type(flat))
        precompute_s = _best_seconds(lambda: row.engine(flat), rounds=rounds)
        flat_engine = make_engine(flat)
        assert type(flat_engine).__name__ == EXPECTED_ENGINE[label], label
        flat_answers = flat_engine.answer_batch(rects)
        scalar_answers = scalar_answer_batch(oracle, rects)
        np.testing.assert_allclose(
            flat_answers, scalar_answers, rtol=1e-9, atol=1e-9
        )
        if QUICK:
            restored = {
                "slabs": row.engine(flat, row.engine(flat).slabs),
                "archive": make_engine(
                    synopsis_from_bytes(synopsis_to_bytes(flat))
                ),
            }
            for how, engine in restored.items():
                assert type(engine) is type(flat_engine), (label, how)
                np.testing.assert_array_equal(
                    engine.answer_batch(rects), flat_answers,
                    err_msg=f"{label}: {how} restore",
                )
        query_flat_s = _best_seconds(lambda: flat_engine.answer_batch(rects))
        query_scalar_s = _best_seconds(
            lambda: scalar_answer_batch(oracle, rects),
            rounds=1 if QUICK else 2,
        )

        build_speedup = build_oracle_s / max(build_flat_s, 1e-9)
        infer_speedup = infer_reference_s / max(infer_flat_s, 1e-9)
        query_speedup = query_scalar_s / max(query_flat_s, 1e-9)
        results[label] = {
            "n_points": BENCH_N,
            "n_queries": len(rects),
            "n_nodes": arrays.n_nodes,
            "height": arrays.height(),
            "build_oracle_s": build_oracle_s,
            "build_flat_s": build_flat_s,
            "build_speedup": build_speedup,
            "inference_reference_s": infer_reference_s,
            "inference_flat_s": infer_flat_s,
            "inference_speedup": infer_speedup,
            "engine": type(flat_engine).__name__,
            "engine_precompute_s": precompute_s,
            "engine_nbytes": flat_engine.nbytes,
            "query_scalar_s": query_scalar_s,
            "query_flat_s": query_flat_s,
            "query_speedup": query_speedup,
            "bit_identical_release": True,
        }
        rows.append(
            [
                label, f"{arrays.n_nodes:,}",
                f"{build_oracle_s * 1e3:.0f}", f"{build_flat_s * 1e3:.0f}",
                f"{build_speedup:.1f}x",
                f"{infer_reference_s * 1e3:.1f}", f"{infer_flat_s * 1e3:.2f}",
                f"{infer_speedup:.1f}x",
                type(flat_engine).__name__, f"{precompute_s * 1e3:.0f}",
                f"{flat_engine.nbytes / 1e6:.2f}",
                f"{query_scalar_s * 1e3:.0f}", f"{query_flat_s * 1e3:.1f}",
                f"{query_speedup:.1f}x",
            ]
        )

    table = format_table(
        [
            "method", "nodes",
            "build oracle ms", "build flat ms", "build",
            "infer ref ms", "infer flat ms", "infer",
            "engine", "prep ms", "engine MB",
            "query ref ms", "query flat ms", "query",
        ],
        rows,
    )
    write_report("tree_kernel", table)

    if QUICK:
        return  # smoke mode: equivalence checked, perf history untouched

    payload = {
        "cpu_count": os.cpu_count() or 1,
        "n_points": BENCH_N,
        "n_queries": len(rects),
        "methods": results,
    }
    write_json_report("tree_kernel", payload)

    # The served batch path beats the scalar loop >= 5x, and the level
    # builder the per-node oracle >= 2x, on every baseline at figure-3
    # scale.
    for label, entry in results.items():
        assert entry["query_speedup"] >= MIN_QUERY_SPEEDUP, (label, entry)
        assert entry["build_speedup"] >= MIN_BUILD_SPEEDUP, (label, entry)

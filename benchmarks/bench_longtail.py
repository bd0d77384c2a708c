"""Performance benchmark: the long-tail flat kernels.

Not a paper figure — an engineering benchmark for the library itself,
covering the three long-tail families flattened onto the CSR + registry
pattern, at figure-3 scale (150k points, 6 sizes x 200 queries):

* **Privelet**: vectorised Haar build vs the retained per-lane
  ``fit_reference`` (releases asserted bit-identical), and the
  prefix-sum :class:`BatchQueryEngine` over the reconstructed grid vs
  the scalar reconstructed-grid loop.
* **Hierarchy**: array-stack build vs ``fit_reference`` (bit-identical),
  and the inherited prefix-sum batch engine vs the scalar grid loop.
* **ND grid**: the d = 2 servable embedding build vs the raw reference
  (bit-identical) with :class:`NDPrefixSumEngine` vs the scalar
  tensordot loop, plus a d = 3 sweep on the hyper-rectangle workload.

Bit-identity is asserted in *every* mode; ``make_engine`` resolves all
three engines through their declared rows (an undeclared type raises).
Results land in ``BENCH_longtail.json`` at the repo root so the perf
trajectory is tracked in-tree.

``BENCH_LONGTAIL_QUICK=1`` (the CI smoke mode, ``make
bench-longtail-quick``) shrinks the data and workload and keeps every
equivalence assertion, but skips the speedup floors and leaves the
tracked JSON untouched.
"""

import os
import time

import numpy as np
from conftest import write_json_report, write_report

from repro.baselines.hierarchy import HierarchicalGridBuilder
from repro.baselines.privelet import PriveletBuilder
from repro.datasets.synthetic import make_checkin
from repro.experiments.report import format_table
from repro.extensions.multidim import (
    MultiDimGridBuilder,
    NDBox,
    NDUniformGridBuilder,
)
from repro.queries.engine import (
    BatchQueryEngine,
    NDPrefixSumEngine,
    make_engine,
    scalar_answer_batch,
)
from repro.queries.workload import QueryWorkload, nd_hyperrectangle_workload

QUICK = os.environ.get("BENCH_LONGTAIL_QUICK", "") not in ("", "0")

#: Figure-3 scale (see benchmarks/conftest.py).
BENCH_N = 20_000 if QUICK else 150_000
QUERIES_PER_SIZE = 50 if QUICK else 200
ND_POINTS = 10_000 if QUICK else 60_000
ND_QUERIES = 100 if QUICK else 400
EPSILON = 1.0

#: Acceptance floor: every flat batch engine beats its scalar loop.
MIN_QUERY_SPEEDUP = 2.0


def _best_seconds(fn, rounds: int = 3) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _scalar_loop(synopsis, rects):
    """The pre-engine path: one scalar grid estimate per rectangle.

    The raw ND reference answers :class:`NDBox` queries, not rectangles.
    """
    if hasattr(synopsis, "dimension"):
        return np.array(
            [
                synopsis.answer(
                    NDBox(np.array([r.x_lo, r.y_lo]), np.array([r.x_hi, r.y_hi]))
                )
                for r in rects
            ]
        )
    return np.array([synopsis.answer(rect) for rect in rects])


def test_longtail_kernels_vs_reference():
    dataset = make_checkin(BENCH_N, rng=3)
    workload = QueryWorkload.generate(
        dataset, 90.0, 90.0, np.random.default_rng(11),
        queries_per_size=QUERIES_PER_SIZE,
    )
    rects = workload.all_rects()
    rounds = 2 if QUICK else 3

    families = [
        ("Privelet", PriveletBuilder(), BatchQueryEngine),
        ("Hier", HierarchicalGridBuilder(), None),  # inherits the grid engine
        ("UGnd", MultiDimGridBuilder(), NDPrefixSumEngine),
    ]

    rows = []
    results = {}
    for label, builder, engine_type in families:
        flat = builder.fit(dataset, EPSILON, np.random.default_rng(29))
        reference = builder.fit_reference(
            dataset, EPSILON, np.random.default_rng(29)
        )
        np.testing.assert_array_equal(flat.counts, reference.counts)

        build_flat_s = _best_seconds(
            lambda: builder.fit(dataset, EPSILON, np.random.default_rng(29)),
            rounds=rounds,
        )
        build_reference_s = _best_seconds(
            lambda: builder.fit_reference(
                dataset, EPSILON, np.random.default_rng(29)
            ),
            rounds=rounds,
        )

        engine = make_engine(flat)
        if engine_type is not None:
            assert isinstance(engine, engine_type)
        engine_answers = engine.answer_batch(rects)
        # Privelet and the ND embedding route their scalar `answer`
        # through a one-row engine call, so batch and scalar agree bit
        # for bit; the hierarchy's scalar path is the direct grid
        # estimate, which re-associates sums — float rounding only.
        scalar_flat = scalar_answer_batch(flat, rects)
        if label == "Hier":
            hier_scale = max(1.0, float(np.abs(scalar_flat).max()))
            np.testing.assert_allclose(
                engine_answers, scalar_flat,
                rtol=1e-9, atol=1e-9 * hier_scale,
            )
        else:
            np.testing.assert_array_equal(engine_answers, scalar_flat)
        # Both match the reference release's scalar grid loop to float
        # rounding (the prefix sums re-associate the grid's sums).
        scalar_answers = _scalar_loop(reference, rects)
        scale = max(1.0, float(np.abs(scalar_answers).max()))
        np.testing.assert_allclose(
            engine_answers, scalar_answers, rtol=1e-9, atol=1e-9 * scale
        )

        query_engine_s = _best_seconds(lambda: engine.answer_batch(rects))
        query_scalar_s = _best_seconds(
            lambda: _scalar_loop(reference, rects), rounds=1 if QUICK else 2
        )

        build_speedup = build_reference_s / max(build_flat_s, 1e-9)
        query_speedup = query_scalar_s / max(query_engine_s, 1e-9)
        results[label] = {
            "n_points": BENCH_N,
            "n_queries": len(rects),
            "grid_size": flat.layout.shape[0],
            "build_reference_s": build_reference_s,
            "build_flat_s": build_flat_s,
            "build_speedup": build_speedup,
            "query_scalar_s": query_scalar_s,
            "query_engine_s": query_engine_s,
            "query_speedup": query_speedup,
            "bit_identical_release": True,
        }
        rows.append(
            [
                label, f"{flat.layout.shape[0]}",
                f"{build_reference_s * 1e3:.0f}", f"{build_flat_s * 1e3:.0f}",
                f"{build_speedup:.1f}x",
                f"{query_scalar_s * 1e3:.0f}", f"{query_engine_s * 1e3:.1f}",
                f"{query_speedup:.1f}x",
            ]
        )

    # d = 3: the prefix-sum engine beyond what the 2-D service can reach.
    rng = np.random.default_rng(5)
    box = NDBox(np.zeros(3), np.ones(3))
    points = rng.uniform(box.lows, box.highs, size=(ND_POINTS, 3))
    nd = NDUniformGridBuilder().fit(
        points, box, EPSILON, np.random.default_rng(29)
    )
    boxes, _ = nd_hyperrectangle_workload(
        points, box, np.random.default_rng(11), n_queries=ND_QUERIES
    )
    engine = nd.batch_engine()
    assert isinstance(engine, NDPrefixSumEngine)
    engine_answers = engine.answer_batch(boxes)
    scalar_answers = np.array(
        [nd.answer(NDBox(row[:3], row[3:])) for row in boxes]
    )
    scale = max(1.0, float(np.abs(scalar_answers).max()))
    np.testing.assert_allclose(
        engine_answers, scalar_answers, rtol=1e-9, atol=1e-9 * scale
    )
    query_engine_s = _best_seconds(lambda: engine.answer_batch(boxes))
    query_scalar_s = _best_seconds(
        lambda: np.array([nd.answer(NDBox(row[:3], row[3:])) for row in boxes]),
        rounds=1 if QUICK else 2,
    )
    nd_speedup = query_scalar_s / max(query_engine_s, 1e-9)
    results["UGnd-d3"] = {
        "n_points": ND_POINTS,
        "n_queries": int(boxes.shape[0]),
        "grid_size": nd.layout.m,
        "query_scalar_s": query_scalar_s,
        "query_engine_s": query_engine_s,
        "query_speedup": nd_speedup,
        "bit_identical_release": True,
    }
    rows.append(
        [
            "UGnd-d3", f"{nd.layout.m}", "-", "-", "-",
            f"{query_scalar_s * 1e3:.0f}", f"{query_engine_s * 1e3:.1f}",
            f"{nd_speedup:.1f}x",
        ]
    )

    table = format_table(
        [
            "method", "m",
            "build ref ms", "build flat ms", "build",
            "query ref ms", "query flat ms", "query",
        ],
        rows,
    )
    write_report("longtail", table)

    if QUICK:
        return  # smoke mode: equivalence checked, perf history untouched

    payload = {
        "cpu_count": os.cpu_count() or 1,
        "n_points": BENCH_N,
        "n_queries": len(rects),
        "methods": results,
    }
    write_json_report("longtail", payload)

    for label, entry in results.items():
        assert entry["query_speedup"] >= MIN_QUERY_SPEEDUP, (label, entry)

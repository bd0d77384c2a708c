"""Performance benchmark: the long-tail flat kernels.

Not a paper figure — an engineering benchmark for the library itself,
covering the three long-tail families flattened onto the CSR + registry
pattern, at figure-3 scale (150k points, 6 sizes x 200 queries):

* **Privelet**: vectorised Haar build vs the per-lane ``fit_per_lane``
  oracle in ``tests/oracles/privelet.py`` (releases asserted
  bit-identical), and the prefix-sum grid engine over the reconstructed
  grid vs the scalar reconstructed-grid loop.
* **Hierarchy**: the array-stack build time, and the grid engine over the
  inferred leaves vs the scalar grid loop.
* **ND grid**: the d = 2 servable embedding's build time and its grid
  engine vs the scalar tensordot loop, plus a d = 3 sweep on the
  hyper-rectangle workload.

All three families answer through the one d-dimensional
:class:`BatchQueryEngine`, and each one's scalar ``answer`` is an
independent grid estimate the engine must match to 1e-9 relative.
Privelet's build bit-identity is asserted in *every* mode;
``make_engine`` resolves each engine through its declared row (an
undeclared type raises).
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
    make_engine,
    scalar_answer_batch,
)
from repro.queries.workload import QueryWorkload, nd_hyperrectangle_workload
from tests.oracles.privelet import fit_per_lane

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


def test_longtail_kernels_vs_reference():
    dataset = make_checkin(BENCH_N, rng=3)
    workload = QueryWorkload.generate(
        dataset, 90.0, 90.0, np.random.default_rng(11),
        queries_per_size=QUERIES_PER_SIZE,
    )
    rects = workload.all_rects()
    rounds = 2 if QUICK else 3

    families = [
        ("Privelet", PriveletBuilder()),
        ("Hier", HierarchicalGridBuilder()),
        ("UGnd", MultiDimGridBuilder()),
    ]

    rows = []
    results = {}
    for label, builder in families:
        flat = builder.fit(dataset, EPSILON, np.random.default_rng(29))
        build_flat_s = _best_seconds(
            lambda: builder.fit(dataset, EPSILON, np.random.default_rng(29)),
            rounds=rounds,
        )
        entry = {
            "n_points": BENCH_N,
            "n_queries": len(rects),
            "grid_size": flat.layout.shape[0],
            "build_flat_s": build_flat_s,
        }
        if label == "Privelet":
            reference = fit_per_lane(
                builder, dataset, EPSILON, np.random.default_rng(29)
            )
            np.testing.assert_array_equal(flat.counts, reference.counts)
            build_reference_s = _best_seconds(
                lambda: fit_per_lane(
                    builder, dataset, EPSILON, np.random.default_rng(29)
                ),
                rounds=rounds,
            )
            entry.update(
                build_reference_s=build_reference_s,
                build_speedup=build_reference_s / max(build_flat_s, 1e-9),
                bit_identical_release=True,
            )

        engine = make_engine(flat)
        assert isinstance(engine, BatchQueryEngine)
        engine_answers = engine.answer_batch(rects)
        # The scalar paths are direct grid estimates, which re-associate
        # the prefix sums' additions: float rounding only.
        scalar_answers = scalar_answer_batch(flat, rects)
        scale = max(1.0, float(np.abs(scalar_answers).max()))
        np.testing.assert_allclose(
            engine_answers, scalar_answers, rtol=1e-9, atol=1e-9 * scale
        )

        query_engine_s = _best_seconds(lambda: engine.answer_batch(rects))
        query_scalar_s = _best_seconds(
            lambda: scalar_answer_batch(flat, rects), rounds=1 if QUICK else 2
        )
        query_speedup = query_scalar_s / max(query_engine_s, 1e-9)
        entry.update(
            query_scalar_s=query_scalar_s,
            query_engine_s=query_engine_s,
            query_speedup=query_speedup,
        )
        results[label] = entry
        build = (
            [
                f"{entry['build_reference_s'] * 1e3:.0f}",
                f"{build_flat_s * 1e3:.0f}",
                f"{entry['build_speedup']:.1f}x",
            ]
            if "build_reference_s" in entry
            else ["-", f"{build_flat_s * 1e3:.0f}", "-"]
        )
        rows.append(
            [
                label, f"{flat.layout.shape[0]}", *build,
                f"{query_scalar_s * 1e3:.0f}", f"{query_engine_s * 1e3:.1f}",
                f"{query_speedup:.1f}x",
            ]
        )

    # d = 3: the grid engine beyond what the 2-D service can reach.
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
    assert isinstance(engine, BatchQueryEngine)
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

"""Performance benchmark: batch query engine vs per-query answering.

Not a paper figure — an engineering benchmark for the library itself.
Verifies that the prefix-sum batch path (a) produces identical answers to
the bilinear-form path and (b) is substantially faster per query, which
is what keeps the experiment suite's wall-clock practical.
"""

import time

import numpy as np
from conftest import write_json_report, write_report

from repro.core.uniform_grid import UniformGridBuilder
from repro.datasets.synthetic import make_landmark
from repro.experiments.report import format_table
from repro.queries.engine import BatchQueryEngine
from repro.queries.workload import QueryWorkload


def test_batch_engine_speed_and_exactness(benchmark):
    dataset = make_landmark(60_000, rng=3)
    synopsis = UniformGridBuilder(grid_size=128).fit(
        dataset, 1.0, np.random.default_rng(0)
    )
    workload = QueryWorkload.generate(
        dataset, 40.0, 20.0, rng=1, queries_per_size=500
    )
    rects = workload.all_rects()
    domain = synopsis.layout.domain
    engine = BatchQueryEngine(domain.lows, domain.highs, synopsis.counts)

    def run_batch():
        return engine.answer_batch(rects)

    batch_answers = benchmark.pedantic(run_batch, rounds=3, iterations=1)

    start = time.perf_counter()
    loop_answers = np.array(
        [synopsis.layout.estimate(synopsis.counts, rect) for rect in rects]
    )
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    engine.answer_batch(rects)
    batch_seconds = time.perf_counter() - start

    np.testing.assert_allclose(batch_answers, loop_answers, rtol=1e-9)
    speedup = loop_seconds / max(batch_seconds, 1e-9)
    write_report(
        "engine_perf",
        format_table(
            ["path", "seconds for 3000 queries"],
            [
                ["per-query bilinear form", f"{loop_seconds:.4f}"],
                ["batch prefix-sum engine", f"{batch_seconds:.4f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
            title="Batch query engine performance (128x128 grid)",
        ),
    )
    write_json_report(
        "engine",
        {
            "workload": {
                "grid": "128x128 uniform",
                "n_queries": int(len(rects)),
                "dataset": "landmark-60k",
                "epsilon": 1.0,
            },
            "per_query_loop_seconds": round(loop_seconds, 6),
            "batch_engine_seconds": round(batch_seconds, 6),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup > 5.0

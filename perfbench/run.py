"""The repository's benchmark: one command, three workloads, real server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytics-miss --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload once against ``python -m repro serve``
and prints every end-to-end metric.  ``--trace 1`` splits the time into
an untraced pass and a traced pass (the server started through
``perfbench/launcher.py``) and prints every per-layer metric, including
``trace.overhead_pct``, the traced pass's median request cost over the
untraced one's.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a ``{"meta": ...}`` block.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics with their units (``--trace 0``).  ``ref`` and
#: ``ref_parse`` are the CPU times of the two parts of the calibration work
#: (see ``common.py``); ``meta.extra`` holds the wall-clock twins.
END_TO_END = {
    "setup_s": "s",
    "build_cost": "ref",
    "req_cost": "ref",
    "req_cost_p99": "ref",
    "rects_per_cost": "1/ref",
    "method_cost_geomean": "ref",
    "rel_error_mean": "ratio",
    "rss_peak_mb": "MB",
    "ingest_cost": "ref_parse",
    "restart_cost": "ref",
}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analytics-miss", "dashboard-tenants", "ingest-refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import importlib

    import numpy

    from perfbench import common, harness, layers

    if harness.LOADGEN_CPUS:
        os.sched_setaffinity(0, harness.LOADGEN_CPUS)

    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    run = common.Run(args.workload, args.seed, args.seconds)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "connections": module.CONNECTIONS,
    }
    try:
        if args.trace == 0:
            result = module.run_pass(run, args.seconds)
            metrics = {name: (result["metrics"][name], unit)
                       for name, unit in END_TO_END.items()}
        else:
            plain = module.run_pass(run, args.seconds / 2)
            paths = []

            def spans(label: str) -> Path:
                paths.append(run.dir / f"spans-{label}.json")
                return paths[-1]

            result = module.run_pass(run, args.seconds / 2, spans=spans)
            overhead = 100.0 * (result["metrics"]["req_cost"]
                                / plain["metrics"]["req_cost"] - 1.0)
            meta["untraced_req_cost"] = plain["metrics"]["req_cost"]
            meta["traced_req_cost"] = result["metrics"]["req_cost"]
            loadgen = {
                "answers": result["answers"],
                "cache_hits": result["cache_hits"],
                "late_p99_ms": result.get("late_p99_ms", 0.0),
                "error_rate": run.tally.failed / max(1, run.tally.attempted),
                "overhead_pct": overhead,
            }
            values = layers.per_layer_metrics(layers.load_spans(paths), loadgen)
            metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER.items()}
        meta.update({k: v for k, v in result.items() if k not in ("metrics",)})
        meta["error_rate"] = run.tally.failed / max(1, run.tally.attempted)
        meta["calibration_ms"] = {
            kind: {"median": float(numpy.median(values)),
                   "p10": float(numpy.percentile(values, 10)),
                   "p90": float(numpy.percentile(values, 90)),
                   "samples": len(values)}
            for kind, values in run.cal.values_ms.items()
        }
        meta["problems"] = run.tally.problems
    finally:
        run.cleanup()

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:{width}s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}, default=float))
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

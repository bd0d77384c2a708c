"""Command-line front end for the experiment suite.

Regenerate any of the paper's tables/figures from a shell::

    python -m repro figure5 --dataset checkin --epsilon 1.0
    python -m repro table2 --datasets storage --epsilons 1.0 0.1
    python -m repro figure1
    python -m repro list

Reports print to stdout in the same tabular form the benchmark suite
writes to ``benchmarks/output/``.

The ``serve`` subcommand is routed to the serving layer instead
(:mod:`repro.service.cli`)::

    python -m repro serve --port 8731 --store-dir releases

The figure and table modules are imported only after that dispatch, so
``python -m repro serve`` never loads the experiment runners.
"""

from __future__ import annotations

import argparse
import sys

from repro.datasets.registry import dataset_names

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "figure1": "dataset illustrations and structure statistics",
    "figure2": "KD-standard vs KD-hybrid vs UG grid-size sweep",
    "figure3": "effect of hierarchies over a fixed leaf grid",
    "figure4": "AG parameter study (m1, alpha, c2)",
    "figure5": "final six-method comparison, relative error",
    "figure6": "final six-method comparison, absolute error",
    "table2": "suggested vs observed best grid sizes",
    "suite": "every experiment at quick scale, one combined report",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'Differentially Private "
        "Grids for Geospatial Data' (ICDE 2013).",
        epilog="To serve released synopses over HTTP instead, run "
        "'repro serve --help'.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list"],
        help="which table/figure to regenerate ('list' shows descriptions)",
    )
    parser.add_argument(
        "--dataset", default="storage", choices=dataset_names(),
        help="dataset for single-dataset experiments (default: storage)",
    )
    parser.add_argument(
        "--datasets", nargs="+", default=None, choices=dataset_names(),
        help="datasets for table2 (default: all four)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=1.0,
        help="privacy budget for single-epsilon experiments (default: 1.0)",
    )
    parser.add_argument(
        "--epsilons", nargs="+", type=float, default=(1.0, 0.1),
        help="privacy budgets for table2 (default: 1.0 0.1)",
    )
    parser.add_argument(
        "--n-points", type=int, default=None,
        help="override the dataset size (default: registry default)",
    )
    parser.add_argument(
        "--queries-per-size", type=int, default=200,
        help="queries per size, as in the paper (default: 200)",
    )
    parser.add_argument(
        "--trials", type=int, default=1, help="independent fits to average over"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="processes for trial parallelism (0 = one per CPU; default: "
        "serial, or the REPRO_WORKERS environment variable). Pooled "
        "errors are bit-identical to the serial run for any value.",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        # The serving layer has its own option surface; hand the rest of
        # the command line to it untouched.
        from repro.service.cli import main as serve_main

        return serve_main(argv[1:])
    from repro.experiments import figure1, figure2, figure3, figure4, figure5, figure6, table2

    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name]}")
        print(f"\n{'serve'.ljust(width)}  start the synopsis HTTP server "
              "(python -m repro serve --help)")
        return 0

    common = dict(
        n_points=args.n_points,
        queries_per_size=args.queries_per_size,
        seed=args.seed,
        n_workers=args.workers,
    )
    if args.experiment == "figure1":
        report = figure1.run()
    elif args.experiment == "figure2":
        report = figure2.run(
            args.dataset, args.epsilon, n_trials=args.trials, **common
        )
    elif args.experiment == "figure3":
        report = figure3.run(
            args.dataset, args.epsilon, n_trials=args.trials, **common
        )
    elif args.experiment == "figure4":
        report = figure4.run(
            args.dataset, args.epsilon, n_trials=args.trials, **common
        )
    elif args.experiment == "figure5":
        report = figure5.run(
            args.dataset, args.epsilon, n_trials=args.trials, **common
        )
    elif args.experiment == "figure6":
        report = figure6.run(
            args.dataset, args.epsilon, n_trials=args.trials, **common
        )
    elif args.experiment == "suite":
        from dataclasses import replace

        from repro.experiments.suite import QUICK_SCALE, run_suite

        report = run_suite(
            replace(QUICK_SCALE, n_trials=args.trials, n_workers=args.workers)
        )
    elif args.experiment == "table2":
        report = table2.run(
            dataset_names=args.datasets,
            epsilons=tuple(args.epsilons),
            n_points=args.n_points,
            queries_per_size=args.queries_per_size,
            n_trials=args.trials,
            seed=args.seed,
            n_workers=args.workers,
        )
    else:  # pragma: no cover - argparse choices prevent this
        raise AssertionError(args.experiment)

    print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Plain-text rendering of experiment results.

The paper reports two kinds of graphics; we render both as aligned text
tables suitable for terminals and for diffing (the benches write them to
``benchmarks/output/``):

* line graphs (mean relative error per query size) → a sizes x methods
  table (:func:`mean_by_size_table`);
* candlesticks (pooled error profiles) → a methods x statistics table
  (:func:`profile_table`).
"""

from __future__ import annotations

from repro.experiments.runner import MethodResult

__all__ = ["format_table", "mean_by_size_table", "profile_table"]


def format_table(
    headers: list[str], rows: list[list[str]], title: str | None = None
) -> str:
    """Align a header + rows into a monospace table."""
    columns = [headers] + rows
    widths = [
        max(len(str(row[i])) for row in columns) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def mean_by_size_table(results: list[MethodResult], title: str | None = None) -> str:
    """Rows = query sizes, columns = methods, cells = mean relative error."""
    if not results:
        raise ValueError("no results to render")
    size_labels = results[0].size_labels
    headers = ["size"] + [result.label for result in results]
    rows = []
    means = [result.mean_relative_by_size() for result in results]
    for size_label in size_labels:
        rows.append(
            [size_label] + [f"{mean[size_label]:.4f}" for mean in means]
        )
    rows.append(
        ["all"] + [f"{result.mean_relative():.4f}" for result in results]
    )
    return format_table(headers, rows, title=title)


def profile_table(
    results: list[MethodResult],
    absolute: bool = False,
    title: str | None = None,
) -> str:
    """Rows = methods, columns = the candlestick statistics."""
    if not results:
        raise ValueError("no results to render")
    headers = ["method", "p25", "median", "p75", "p95", "mean"]
    rows = []
    for result in results:
        profile = result.absolute_profile() if absolute else result.relative_profile()
        rows.append(
            [result.label]
            + [f"{value:.4f}" for value in profile.as_row()]
        )
    return format_table(headers, rows, title=title)

"""Query workloads and error metrics (Section V-A methodology)."""

from repro.queries.engine import (
    BatchQueryEngine,
    FlatAdaptiveGridEngine,
    FlatTreeEngine,
    make_engine,
    rects_to_boxes,
    scalar_answer_batch,
)
from repro.queries.metrics import (
    ErrorProfile,
    absolute_errors,
    relative_error_floor,
    relative_errors,
)
from repro.queries.workload import (
    QuerySize,
    QueryWorkload,
    SizedQuerySet,
    paper_query_sizes,
)

__all__ = [
    "BatchQueryEngine",
    "ErrorProfile",
    "FlatAdaptiveGridEngine",
    "FlatTreeEngine",
    "make_engine",
    "rects_to_boxes",
    "scalar_answer_batch",
    "QuerySize",
    "QueryWorkload",
    "SizedQuerySet",
    "absolute_errors",
    "paper_query_sizes",
    "relative_error_floor",
    "relative_errors",
]

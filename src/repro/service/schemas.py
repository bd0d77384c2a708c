"""Request schemas for the HTTP adapter.

Dependency-free equivalents of the pydantic request models a FastAPI
backend would declare: each ``parse_*`` function validates a decoded JSON
payload and returns a frozen request object, raising
:class:`~repro.service.errors.ValidationError` with a message that names
the offending field.  Keeping parsing here leaves the HTTP handler as pure
routing and lets tests exercise validation without a socket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.registry import DATASETS
from repro.service.errors import ValidationError
from repro.service.keys import ReleaseKey

__all__ = [
    "MAX_BATCH_SIZE",
    "MAX_INGEST_BATCH",
    "MAX_BATCH_ID_LENGTH",
    "BuildRequest",
    "IngestRequest",
    "QueryRequest",
    "parse_build_request",
    "parse_ingest_request",
    "parse_query_request",
    "validate_batch_size",
    "validate_boxes",
]

#: Upper bound on rectangles per query request; protects the server from
#: accidental multi-gigabyte batches (split client-side instead).
MAX_BATCH_SIZE = 100_000

#: Upper bound on points per ingest batch (16 bytes each in the WAL, so
#: one batch caps at ~1.6 MB of log).
MAX_INGEST_BATCH = 100_000

#: Bound on the client-chosen idempotency token's length.
MAX_BATCH_ID_LENGTH = 200


@dataclass(frozen=True)
class BuildRequest:
    """``POST /releases`` — build (or fetch) one release.

    ``deadline_ms`` optionally *tightens* the server's per-request
    deadline for this request (it can never extend it): a client that
    would rather fail fast than wait out a slow build says so here.
    """

    key: ReleaseKey
    force: bool = False
    deadline_ms: float | None = None


@dataclass(frozen=True)
class IngestRequest:
    """``POST /ingest`` — durably stage one batch of points.

    ``batch_id`` is the client's idempotency token: retrying a batch the
    server already logged is acknowledged as a duplicate, never staged
    twice, so at-least-once delivery yields exactly-once ingestion.
    """

    dataset: str
    seed: int
    batch_id: str
    points: np.ndarray  # (n, 2) float rows: x, y


@dataclass(frozen=True)
class QueryRequest:
    """``POST /query`` — answer a batch of rectangles from one release."""

    key: ReleaseKey
    boxes: np.ndarray  # (n, 4) float rows: x_lo, y_lo, x_hi, y_hi
    clamp: bool = False
    deadline_ms: float | None = None


def _require_mapping(payload) -> dict:
    if not isinstance(payload, dict):
        raise ValidationError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _parse_key(payload: dict) -> ReleaseKey:
    missing = [f for f in ("dataset", "method", "epsilon", "seed") if f not in payload]
    if missing:
        raise ValidationError(f"missing required field(s): {', '.join(missing)}")
    dataset = payload["dataset"]
    method = payload["method"]
    if not isinstance(dataset, str):
        raise ValidationError(f"'dataset' must be a string, got {dataset!r}")
    if not isinstance(method, str):
        raise ValidationError(f"'method' must be a string, got {method!r}")
    epsilon = payload["epsilon"]
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise ValidationError(f"'epsilon' must be a number, got {epsilon!r}")
    seed = payload["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"'seed' must be an integer, got {seed!r}")
    # ReleaseKey re-validates values (unknown names, epsilon <= 0, ...)
    # and raises ValidationError itself.
    return ReleaseKey(dataset=dataset, method=method, epsilon=float(epsilon), seed=seed)


def _parse_flag(payload: dict, field: str) -> bool:
    value = payload.get(field, False)
    if not isinstance(value, bool):
        raise ValidationError(f"{field!r} must be a boolean, got {value!r}")
    return value


def _parse_deadline_ms(payload: dict) -> float | None:
    value = payload.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"'deadline_ms' must be a number, got {value!r}")
    if value <= 0:
        raise ValidationError(f"'deadline_ms' must be positive, got {value!r}")
    return float(value)


def validate_batch_size(n_rects: int) -> None:
    """Enforce the per-request batch bound (shared with the binary path)."""
    if n_rects > MAX_BATCH_SIZE:
        raise ValidationError(
            f"batch of {n_rects} rectangles exceeds the per-request "
            f"limit of {MAX_BATCH_SIZE}; split it into smaller batches"
        )


def validate_boxes(boxes: np.ndarray) -> np.ndarray:
    """Validate an already-decoded ``(n, 4)`` float rectangle array.

    The value checks every ``POST /query`` transport shares: shape,
    finiteness, and non-inverted bounds.  Raises
    :class:`~repro.service.errors.ValidationError` naming the problem.
    """
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValidationError(
            f"each rectangle needs exactly 4 numbers "
            f"(x_lo, y_lo, x_hi, y_hi); got shape {boxes.shape}"
        )
    if not np.all(np.isfinite(boxes)):
        raise ValidationError("'rects' must contain only finite numbers")
    if np.any(boxes[:, 2] < boxes[:, 0]) or np.any(boxes[:, 3] < boxes[:, 1]):
        raise ValidationError(
            "'rects' rows must satisfy x_lo <= x_hi and y_lo <= y_hi"
        )
    return boxes


def parse_build_request(payload) -> BuildRequest:
    payload = _require_mapping(payload)
    return BuildRequest(
        key=_parse_key(payload),
        force=_parse_flag(payload, "force"),
        deadline_ms=_parse_deadline_ms(payload),
    )


def parse_ingest_request(payload) -> IngestRequest:
    payload = _require_mapping(payload)
    missing = [
        f for f in ("dataset", "seed", "batch_id", "points") if f not in payload
    ]
    if missing:
        raise ValidationError(f"missing required field(s): {', '.join(missing)}")
    dataset = payload["dataset"]
    if not isinstance(dataset, str):
        raise ValidationError(f"'dataset' must be a string, got {dataset!r}")
    if dataset not in DATASETS:
        raise ValidationError(
            f"unknown dataset {dataset!r}; available: {', '.join(DATASETS)}"
        )
    seed = payload["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(
            f"'seed' must be a non-negative integer, got {seed!r}"
        )
    batch_id = payload["batch_id"]
    if not isinstance(batch_id, str) or not batch_id:
        raise ValidationError(
            f"'batch_id' must be a non-empty string, got {batch_id!r}"
        )
    if len(batch_id) > MAX_BATCH_ID_LENGTH:
        raise ValidationError(
            f"'batch_id' of {len(batch_id)} characters exceeds the "
            f"{MAX_BATCH_ID_LENGTH}-character limit"
        )
    raw = payload["points"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError(
            "'points' must be a non-empty list of [x, y] rows"
        )
    if len(raw) > MAX_INGEST_BATCH:
        raise ValidationError(
            f"batch of {len(raw)} points exceeds the per-request limit "
            f"of {MAX_INGEST_BATCH}; split it into smaller batches"
        )
    try:
        points = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("'points' rows must contain only numbers") from None
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValidationError(
            f"each point needs exactly 2 numbers (x, y); "
            f"got shape {points.shape}"
        )
    if not np.all(np.isfinite(points)):
        raise ValidationError("'points' must contain only finite numbers")
    return IngestRequest(
        dataset=dataset, seed=seed, batch_id=batch_id, points=points
    )


def parse_query_request(payload) -> QueryRequest:
    payload = _require_mapping(payload)
    key = _parse_key(payload)
    rects = payload.get("rects")
    if not isinstance(rects, list) or not rects:
        raise ValidationError(
            "'rects' must be a non-empty list of [x_lo, y_lo, x_hi, y_hi] rows"
        )
    validate_batch_size(len(rects))
    try:
        boxes = np.array(rects, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("'rects' rows must contain only numbers") from None
    boxes = validate_boxes(boxes)
    return QueryRequest(
        key=key,
        boxes=boxes,
        clamp=_parse_flag(payload, "clamp"),
        deadline_ms=_parse_deadline_ms(payload),
    )

"""Per-dataset write-ahead log for streaming ingestion.

Every ``POST /ingest`` batch is appended to a :class:`WriteAheadLog`
*before* it touches any in-memory state: once the append returns, the
points survive ``kill -9`` at any byte boundary.  The file is a sequence
of length- and CRC-framed records:

.. code-block:: text

    +--------+------+-------------+-------+---------------------+
    | magic  | type | payload_len | crc32 | payload             |
    | 4 B    | 1 B  | u32 LE      | u32 LE| payload_len bytes   |
    +--------+------+-------------+-------+---------------------+

Two record types exist:

* **data** — one ingested batch: a client-chosen ``batch_id`` (the
  idempotency token: a retried append of an id the log already holds is
  a no-op, so at-least-once clients get exactly-once staging), a wall
  clock timestamp (staleness accounting survives restarts), and the
  ``(n, 2)`` float64 points.
* **marker** — a release commit: the release slug and how many staged
  points that release incorporated.  Replay uses markers to reconstruct
  which points are still *pending* per release — and, together with the
  budget ledger's epoch-labelled entries, to converge to the exact
  no-crash state without ever re-spending epsilon.

**Replay** scans from the start and stops at the first invalid record —
short header, payload running past end-of-file, or CRC mismatch — then
truncates the file back to the end of the valid prefix.  An append that
was torn by a crash is therefore erased exactly as if it never happened
(the client never got its acknowledgement, and will retry), and a
bit-flipped tail can never resurrect as data.  The framing functions are
pure over bytes (:func:`encode_record` / :func:`scan_records`) so the
property suite can sweep truncation and bit flips over every byte offset
without touching a filesystem.

Appends are fsync'd; the fault points ``wal.append`` (before the write)
and ``wal.fsync`` (after the write, before the fsync) let the crash
suite kill the process at each stage.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service import faultinject

__all__ = [
    "DataRecord",
    "MarkerRecord",
    "WriteAheadLog",
    "encode_record",
    "scan_records",
    "wal_path",
]

#: Record framing magic; bump the digit for incompatible format changes.
MAGIC = b"RWL1"

#: Header: magic, record type, payload length, crc32 of the payload.
_HEADER = struct.Struct("<4sBII")

_TYPE_DATA = 0x44  # 'D'
_TYPE_MARKER = 0x4D  # 'M'

#: Sanity bound on one record's payload (a batch is at most
#: MAX_INGEST_BATCH points = 1.6 MB; anything past this is corruption,
#: not data).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

_DATA_FIXED = struct.Struct("<HdI")  # batch_id length, timestamp, n points
_MARKER_FIXED = struct.Struct("<HQ")  # slug length, released point count


@dataclass(frozen=True)
class DataRecord:
    """One durably staged ingest batch."""

    batch_id: str
    timestamp: float
    points: np.ndarray  # (n, 2) float64

    def payload(self) -> bytes:
        encoded_id = self.batch_id.encode("utf-8")
        points = np.ascontiguousarray(self.points, dtype="<f8")
        return (
            _DATA_FIXED.pack(len(encoded_id), self.timestamp, points.shape[0])
            + encoded_id
            + points.tobytes()
        )


@dataclass(frozen=True)
class MarkerRecord:
    """A release-commit marker: ``slug`` incorporated ``released_count``
    staged points (counted from the start of the log, in log order)."""

    slug: str
    released_count: int

    def payload(self) -> bytes:
        encoded = self.slug.encode("utf-8")
        return _MARKER_FIXED.pack(len(encoded), self.released_count) + encoded


def encode_record(record: DataRecord | MarkerRecord) -> bytes:
    """The full framed bytes of one record (pure; no I/O)."""
    kind = _TYPE_DATA if isinstance(record, DataRecord) else _TYPE_MARKER
    payload = record.payload()
    return _HEADER.pack(MAGIC, kind, len(payload), zlib.crc32(payload)) + payload


def _decode_payload(kind: int, payload: bytes) -> DataRecord | MarkerRecord:
    if kind == _TYPE_DATA:
        id_len, timestamp, n_points = _DATA_FIXED.unpack_from(payload)
        offset = _DATA_FIXED.size
        batch_id = payload[offset : offset + id_len].decode("utf-8")
        offset += id_len
        expected = n_points * 16
        raw = payload[offset:]
        if len(raw) != expected:
            raise ValueError(
                f"data record declares {n_points} points ({expected} bytes) "
                f"but carries {len(raw)}"
            )
        points = np.frombuffer(raw, dtype="<f8").reshape(n_points, 2)
        points = points.astype(float, copy=True)
        points.setflags(write=False)
        return DataRecord(batch_id, timestamp, points)
    if kind == _TYPE_MARKER:
        slug_len, released_count = _MARKER_FIXED.unpack_from(payload)
        raw = payload[_MARKER_FIXED.size :]
        if len(raw) != slug_len:
            raise ValueError(
                f"marker record declares a {slug_len}-byte slug "
                f"but carries {len(raw)}"
            )
        return MarkerRecord(raw.decode("utf-8"), released_count)
    raise ValueError(f"unknown record type {kind:#x}")


def scan_records(
    buffer: bytes,
) -> tuple[list[DataRecord | MarkerRecord], int]:
    """Parse the committed prefix of a log buffer (pure; no I/O).

    Returns ``(records, valid_length)``: every record framed intact in
    ``buffer[:valid_length]``, stopping at the first record whose header
    is short, whose payload runs past the end, or whose CRC (or payload
    structure) does not verify.  A crash can only tear the *tail* of an
    append-only file, so everything before the first invalid frame is
    exactly the committed prefix — and everything after it is discarded,
    never partially trusted.
    """
    records: list[DataRecord | MarkerRecord] = []
    offset = 0
    total = len(buffer)
    while True:
        if total - offset < _HEADER.size:
            return records, offset
        magic, kind, length, crc = _HEADER.unpack_from(buffer, offset)
        if magic != MAGIC or length > MAX_PAYLOAD_BYTES:
            return records, offset
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return records, offset
        payload = buffer[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset
        try:
            records.append(_decode_payload(kind, payload))
        except (ValueError, UnicodeDecodeError):
            return records, offset
        offset = end


def wal_path(store_dir: Path, dataset: str, seed: int) -> Path:
    """Filesystem-safe log path for one dataset instance ``(dataset, seed)``."""
    return Path(store_dir) / f"{dataset}_seed{seed}.wal"


@dataclass
class ReplayStats:
    """What :meth:`WriteAheadLog.replay` found (surfaced on ``/health``)."""

    records: int = 0
    data_batches: int = 0
    markers: int = 0
    truncated_bytes: int = 0


class WriteAheadLog:
    """An append-only, CRC-framed, fsync'd record log.

    Opening the log replays it: the committed prefix is parsed, a torn
    tail (if any) is truncated away *on disk*, and the replayed records
    are available via :attr:`replayed`.  Appends write the framed record
    and fsync before returning, so an acknowledged batch is durable.

    The log holds the raw staged points, the sensitive data itself, so
    it is readable by its owner only: it is created with mode ``0o600``,
    and a log an older version created wider is narrowed to ``0o600``
    when it is opened.

    Not safe for concurrent writers: exactly one live process may own a
    WAL file (the CLI enforces single-worker serving when ingestion is
    enabled).  Thread safety within the process is the caller's job —
    :class:`~repro.service.ingest.IngestManager` serialises appends
    under its own lock.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self.replayed: list[DataRecord | MarkerRecord] = []
        self.stats = ReplayStats()
        self._fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o600)
        try:
            os.fchmod(self._fd, 0o600)
            self._replay_and_truncate()
        except BaseException:
            os.close(self._fd)
            raise

    def _replay_and_truncate(self) -> None:
        buffer = bytearray()
        os.lseek(self._fd, 0, os.SEEK_SET)
        while True:
            chunk = os.read(self._fd, 1 << 20)
            if not chunk:
                break
            buffer += chunk
        records, valid = scan_records(bytes(buffer))
        if valid < len(buffer):
            # A torn or bit-rotted tail: cut it off durably so the next
            # replay (and any forensic read) sees only committed frames.
            os.ftruncate(self._fd, valid)
            os.fsync(self._fd)
            self.stats.truncated_bytes = len(buffer) - valid
        os.lseek(self._fd, valid, os.SEEK_SET)
        self._size = valid
        self.replayed = records
        self.stats.records = len(records)
        self.stats.data_batches = sum(
            1 for record in records if isinstance(record, DataRecord)
        )
        self.stats.markers = len(records) - self.stats.data_batches

    @property
    def path(self) -> Path:
        return self._path

    @property
    def size_bytes(self) -> int:
        return self._size

    def append(self, record: DataRecord | MarkerRecord) -> None:
        """Durably append one record (write + fsync, fault-instrumented).

        A crash before the fsync may leave a torn frame; replay truncates
        it, so the record either fully exists or never happened — the
        client's retry (same ``batch_id``) restores it idempotently.
        """
        kind = "data" if isinstance(record, DataRecord) else "marker"
        frame = encode_record(record)
        faultinject.fire(
            "wal.append", path=str(self._path), kind=kind, nbytes=len(frame)
        )
        os.write(self._fd, frame)
        faultinject.fire("wal.fsync", path=str(self._path), kind=kind)
        os.fsync(self._fd)
        self._size += len(frame)

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass

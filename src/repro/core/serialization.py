"""Serialisation of released synopses, and the table that declares them.

A differentially private synopsis is a *publishable artifact*: once built,
its noisy state can be shared freely (post-processing preserves DP).  This
module persists synopses to a single archive file and restores them, so a
data curator can run ``fit`` once on the sensitive data and distribute the
file; consumers answer queries without ever seeing the raw points.

Every synopsis type is declared in one row of :data:`KINDS`: its archive
kind tag, its class, the ``pack``/``unpack`` pair mapping it to named
arrays and back, and its query engine's constructor ``engine``.  The
archive writer and reader, and
:func:`~repro.queries.engine.make_engine`, resolve a synopsis through the
row of its nearest declared type, so a subclass serves like its declared
ancestor and an undeclared type raises ``TypeError`` everywhere.

Archives are written in one format (v2): a small binary header and JSON
table of contents (per-array name/dtype/shape/offset/length), then
*page-aligned* (4096 B) uncompressed array slabs — the released arrays
and the release's engine buffers (its ``slabs``) sealed beside them —
then a SHA-1 integrity footer.  :func:`synopsis_from_path` memory-maps
it and hands out read-only ``np.frombuffer`` views, so N forked workers
serving the same release share one set of physical pages, and the
loader restores the release's engine over them without a rebuild.  The
loaders still read the older compressed ``np.savez_compressed`` archives
(v1), whose engines are built on first use.  An archive of either
format without a valid footer is rejected with :class:`ChecksumError`.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.one_dim import OneDimHistogramSynopsis
from repro.baselines.hierarchy import HierarchicalGridSynopsis
from repro.baselines.privelet import PriveletSynopsis, reconstruct_counts
from repro.baselines.tree import TreeArrays, TreeSynopsis, tree_engine
from repro.core.adaptive_grid import AdaptiveGridSynopsis
from repro.core.geometry import Domain2D
from repro.core.grid import GridLayout
from repro.core.synopsis import Synopsis
from repro.core.uniform_grid import UniformGridSynopsis
from repro.extensions.multidim import (
    MultiDimGridSynopsis,
    NDBox,
    NDGridLayout,
    NDUniformGridSynopsis,
)
from repro.queries.engine import BatchQueryEngine, TwoLevelGridEngine, make_engine

__all__ = [
    "KINDS",
    "ChecksumError",
    "SynopsisKind",
    "load_synopsis",
    "save_synopsis",
    "synopsis_from_bytes",
    "synopsis_from_path",
    "synopsis_kind",
    "synopsis_nbytes",
    "synopsis_to_bytes",
]

_FORMAT_VERSION = 1

# v2 container: an 8-byte magic (deliberately not starting with "PK" so
# zip sniffers never mistake it for an npz), a u32 container version, a
# u32 TOC byte length, the JSON TOC, zero padding up to the next 4096 B
# boundary, then the array slabs — each slab offset page-aligned so a
# mapped array view starts exactly on a page and the kernel shares whole
# pages between processes.  TOC offsets are relative to the (computed)
# data start, which avoids a fixed point between TOC length and offsets.
_V2_MAGIC = b"RPNPV2\r\n"
_V2_VERSION = 2
_V2_HEADER = struct.Struct(f"<{len(_V2_MAGIC)}sII")
_V2_ALIGN = 4096

#: Sealed engine buffers ride in the same archive under a reserved name
#: prefix; the marker key distinguishes "sealed, with whatever buffers
#: the engine answers from (possibly none)" from "not sealed at all" (a
#: v1 archive).
_ENGINE_SLAB_PREFIX = "engine/"
_SEALED_MARKER = "engine/__sealed__"

# Integrity footer appended after every payload: 20-byte SHA-1 of the
# payload, its 8-byte little-endian length, then an 8-byte magic.
# Appending (rather than prepending) lets the loader detect truncation
# and bit-rot before any array is parsed; a file without it is rejected.
_CHECKSUM_MAGIC = b"RPRSHA1\x00"
_CHECKSUM_FOOTER = struct.Struct(f"<20sQ{len(_CHECKSUM_MAGIC)}s")


class ChecksumError(ValueError):
    """The archive's integrity footer is missing or does not match.

    Truncation, a short write, or on-disk bit-rot — the payload cannot be
    trusted and must not be parsed.  The serving layer quarantines the
    file and rebuilds on demand.
    """


@dataclass(frozen=True)
class SynopsisKind:
    """One declared synopsis type: how it is archived and served.

    ``pack`` maps a synopsis to its named released arrays and ``unpack``
    restores it from them (raising ``ValueError`` for arrays that break
    an invariant).  ``engine(synopsis)`` builds its query engine, and
    ``engine(synopsis, slabs)`` restores that engine over the ``slabs``
    of one built for the same release, so an engine restored from
    sealed buffers is the one a rebuild gives; slabs another kernel
    sealed raise ``KeyError`` or ``ValueError``.
    """

    kind: str
    type: type
    pack: Callable[[Synopsis], dict[str, np.ndarray]]
    unpack: Callable[[dict[str, np.ndarray]], Synopsis]
    engine: Callable[..., object]


def synopsis_kind(synopsis_type: type) -> SynopsisKind:
    """The row declaring ``synopsis_type`` or its nearest declared ancestor.

    Raises ``TypeError`` when no ancestor is declared: such a synopsis
    can be neither archived nor served.
    """
    for cls in synopsis_type.__mro__:
        row = _KIND_BY_TYPE.get(cls)
        if row is not None:
            return row
    raise TypeError(
        f"synopsis type {synopsis_type.__name__} is not declared in "
        "repro.core.serialization.KINDS"
    )


def _pack(synopsis: Synopsis) -> dict[str, np.ndarray]:
    """The released arrays of a synopsis, tagged with its kind."""
    row = synopsis_kind(type(synopsis))
    return {"kind": np.array(row.kind), **row.pack(synopsis)}


def synopsis_to_bytes(synopsis: Synopsis) -> memoryview:
    """Serialise a released synopsis to checksummed archive bytes.

    Writes the page-aligned layout :func:`synopsis_from_path`
    memory-maps, with the buffers of the release's engine
    (:func:`~repro.queries.engine.make_engine`'s ``slabs``) sealed beside
    the released arrays, and the SHA-1 footer (see ``_CHECKSUM_MAGIC``).
    The archive is filled into one preallocated buffer, which is
    returned as a ``memoryview``: writing it costs one archive's worth
    of memory, not a copy per array and per step.  Raises ``TypeError``
    for an undeclared synopsis type.
    """
    payload = _pack(synopsis)
    payload["format_version"] = np.array(_FORMAT_VERSION)
    payload[_SEALED_MARKER] = np.array(1, dtype=np.int64)
    for name, array in make_engine(synopsis).slabs.items():
        payload[_ENGINE_SLAB_PREFIX + name] = array
    return _write_v2(payload)


def _align(offset: int) -> int:
    """Round ``offset`` up to the next ``_V2_ALIGN`` boundary."""
    return -(-offset // _V2_ALIGN) * _V2_ALIGN


def _write_v2(payload: dict[str, np.ndarray]) -> memoryview:
    """A named-array dict as a v2 archive: header, TOC, slabs, footer.

    The buffer is an anonymous memory map, not a heap allocation, so
    dropping it returns its pages to the system.  Freeing a large heap
    buffer instead raises glibc's adaptive ``mmap`` threshold to its
    size (and the heap's trim threshold to twice that), and the process
    then keeps later transient arrays of up to that size on the heap,
    resident after they are freed: an 11 MB archive buffer left about
    8 MB more resident after rebuilding the nine landmark releases.
    The price is page faults: with the threshold low, later builds map
    their large transient arrays afresh instead of reusing heap pages.
    """
    # np.ascontiguousarray would promote 0-d scalars to shape (1,), so
    # only reach for it when the array actually needs a contiguous copy.
    arrays = {}
    for name, value in payload.items():
        array = np.asarray(value)
        if not array.flags["C_CONTIGUOUS"]:
            array = np.ascontiguousarray(array)
        arrays[name] = array
    entries = []
    rel = 0
    for name, array in arrays.items():
        rel = _align(rel)
        entries.append(
            {
                "name": name,
                "descr": np.lib.format.dtype_to_descr(array.dtype),
                "shape": list(array.shape),
                "offset": rel,
                "nbytes": int(array.nbytes),
            }
        )
        rel += array.nbytes
    toc = json.dumps({"arrays": entries}, separators=(",", ":")).encode("utf-8")
    data_start = _align(_V2_HEADER.size + len(toc))
    size = data_start + rel
    out = mmap.mmap(-1, size + _CHECKSUM_FOOTER.size)
    _V2_HEADER.pack_into(out, 0, _V2_MAGIC, _V2_VERSION, len(toc))
    out[_V2_HEADER.size : _V2_HEADER.size + len(toc)] = toc
    for entry, array in zip(entries, arrays.values()):
        if array.nbytes:
            np.frombuffer(
                out, np.uint8, array.nbytes, data_start + entry["offset"]
            )[:] = array.reshape(-1).view(np.uint8)
    digest = hashlib.sha1(memoryview(out)[:size]).digest()
    _CHECKSUM_FOOTER.pack_into(out, size, digest, size, _CHECKSUM_MAGIC)
    return memoryview(out)


def _parse_v2(buf) -> dict[str, np.ndarray]:
    """Parse a v2 payload (footer already stripped) into array views.

    ``buf`` may be ``bytes`` or a ``memoryview`` over an ``mmap``; the
    returned arrays are zero-copy ``np.frombuffer`` views either way, so
    mapped archives hand out views the kernel can share across forked
    processes.  Raises ``ValueError`` for any structural inconsistency
    (the SHA-1 footer has already caught bit-rot; these checks catch
    archives whose footer was regenerated around a bad payload).
    """
    n = len(buf)
    if n < _V2_HEADER.size:
        raise ValueError("v2 archive shorter than its header")
    magic, version, toc_len = _V2_HEADER.unpack(bytes(buf[: _V2_HEADER.size]))
    if magic != _V2_MAGIC:
        raise ValueError("v2 archive magic mismatch")
    if version != _V2_VERSION:
        raise ValueError(f"unsupported v2 container version {version}")
    toc_end = _V2_HEADER.size + toc_len
    if toc_len <= 0 or toc_end > n:
        raise ValueError("v2 TOC extends past the archive")
    try:
        toc = json.loads(bytes(buf[_V2_HEADER.size : toc_end]).decode("utf-8"))
        entries = toc["arrays"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"corrupt v2 TOC: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError("corrupt v2 TOC: arrays is not a list")
    data_start = _align(toc_end)
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name = str(entry["name"])
            descr = entry["descr"]
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt v2 TOC entry: {exc}") from exc
        try:
            dtype = np.dtype(descr)
        except TypeError as exc:
            raise ValueError(f"corrupt v2 TOC dtype {descr!r}") from exc
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if any(s < 0 for s in shape) or dtype.itemsize * count != nbytes:
            raise ValueError(
                f"v2 slab {name!r}: shape {shape} x {dtype} does not fill "
                f"{nbytes} bytes"
            )
        start = data_start + offset
        if offset < 0 or start + nbytes > n:
            raise ValueError(f"v2 slab {name!r} extends past the archive")
        arrays[name] = np.frombuffer(
            buf, dtype=dtype, count=count, offset=start
        ).reshape(shape)
    return arrays


def _verify_checksum(buf: memoryview) -> memoryview:
    """Verify and strip the integrity footer; returns the payload view.

    Raises :class:`ChecksumError` when the footer is missing (the file
    was cut, or never carried one), records another payload length, or
    does not match the payload's SHA-1.
    """
    payload_len = len(buf) - _CHECKSUM_FOOTER.size
    footer = bytes(buf[max(payload_len, 0) :])
    if payload_len < 0 or not footer.endswith(_CHECKSUM_MAGIC):
        raise ChecksumError("archive is missing its integrity footer (truncated)")
    digest, length, _ = _CHECKSUM_FOOTER.unpack(footer)
    if length != payload_len:
        raise ChecksumError(
            f"archive truncated: footer records {length} payload bytes, "
            f"found {payload_len}"
        )
    payload = buf[:payload_len]
    if hashlib.sha1(payload).digest() != digest:
        raise ChecksumError(
            "archive payload does not match its SHA-1 footer (bit-rot or "
            "a torn write)"
        )
    return payload


def save_synopsis(synopsis: Synopsis, path: str | Path) -> None:
    """Write a released synopsis to ``path`` (a checksummed archive).

    Raises ``TypeError`` for an undeclared synopsis type.  The write
    itself is not atomic — callers that need crash safety (the synopsis
    store does) write :func:`synopsis_to_bytes` to a temp file and
    rename.
    """
    Path(path).write_bytes(synopsis_to_bytes(synopsis))


def synopsis_nbytes(synopsis: Synopsis) -> int:
    """Uncompressed in-memory footprint of a synopsis's released state.

    Computed from the same released arrays :func:`save_synopsis` writes,
    so it is defined for exactly the declared types.  The serving
    layer's :class:`~repro.service.store.SynopsisStore` uses it to
    enforce its cache size bound.
    """
    return sum(np.asarray(value).nbytes for value in _pack(synopsis).values())


def load_synopsis(path: str | Path) -> Synopsis:
    """Restore a synopsis previously written by :func:`save_synopsis`.

    Delegates to :func:`synopsis_from_path`.  Raises
    :class:`ChecksumError` when the archive's integrity footer is missing
    or does not match its payload, and ``ValueError`` for payloads that
    parse but violate a synopsis invariant.
    """
    return synopsis_from_path(path)


def synopsis_from_path(path: str | Path) -> Synopsis:
    """Restore a synopsis from an archive file, zero-copy where possible.

    The file is verified and parsed over a read-only ``mmap``.  For a v2
    archive the returned synopsis's arrays (and its restored engine's
    buffers) are views into the mapping, so forked workers loading the
    same file share physical pages and ``synopsis.mapped_nbytes``
    reports the mapping size.  The mapping outlives this call: numpy
    views hold it through the buffer protocol, and its pages are
    released when the last view is garbage-collected (store eviction
    drops the synopsis, the views die, the kernel reclaims the pages).
    A v1 archive is decompressed into private arrays.
    """
    with open(path, "rb") as handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # an empty file cannot be mapped
            raise ChecksumError(
                "archive is missing its integrity footer (empty file)"
            ) from exc
    synopsis = _restore(_verify_checksum(memoryview(mapping)))
    if mapping[: len(_V2_MAGIC)] == _V2_MAGIC:
        synopsis.mapped_nbytes = len(mapping)
    return synopsis


def synopsis_from_bytes(data: bytes) -> Synopsis:
    """Restore a synopsis from :func:`synopsis_to_bytes` output.

    Reads v1 archives too.  Prefer :func:`synopsis_from_path` when the
    archive lives in a file — it memory-maps the payload instead of
    holding the bytes in memory.
    """
    return _restore(_verify_checksum(memoryview(data)))


def _restore(payload: memoryview) -> Synopsis:
    """Assemble a verified payload of either format."""
    if bytes(payload[: len(_V2_MAGIC)]) == _V2_MAGIC:
        return _assemble(_parse_v2(payload))
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        return _assemble({key: archive[key] for key in archive.files})


def _assemble(data: dict[str, np.ndarray]) -> Synopsis:
    """Restore a parsed payload dict through the row of its kind.

    Sealed engine slabs (v2) are split off their reserved prefix and the
    release's engine is restored over them through the row's
    ``engine``.  Slabs sealed by an older kernel (``KeyError`` or
    ``ValueError`` there) leave the release without an engine, and
    :func:`~repro.queries.engine.make_engine` builds it on first use.
    """
    data = dict(data)
    sealed = data.pop(_SEALED_MARKER, None) is not None
    engine_slabs = {
        name[len(_ENGINE_SLAB_PREFIX) :]: data.pop(name)
        for name in list(data)
        if name.startswith(_ENGINE_SLAB_PREFIX)
    }
    version = int(data.pop("format_version"))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported synopsis format version {version}")
    kind = str(data.pop("kind"))
    row = _KIND_BY_NAME.get(kind)
    if row is None:
        raise ValueError(f"unknown synopsis kind {kind!r}")
    synopsis = row.unpack(data)
    if sealed:
        try:
            synopsis.engine = row.engine(synopsis, engine_slabs)
        except (KeyError, ValueError):
            pass  # sealed by an older kernel: built on first use
    return synopsis


# ----------------------------------------------------------------------
# Uniform grid
# ----------------------------------------------------------------------


def _domain_array(domain: Domain2D) -> np.ndarray:
    return np.array(domain.bounds.as_tuple())


def _domain_from_array(values: np.ndarray) -> Domain2D:
    x_lo, y_lo, x_hi, y_hi = (float(v) for v in values)
    return Domain2D(x_lo, y_lo, x_hi, y_hi)


def _pack_onedim(synopsis: OneDimHistogramSynopsis) -> dict[str, np.ndarray]:
    return {
        "domain": _domain_array(synopsis.domain),
        "epsilon": np.array(synopsis.epsilon),
        "released": synopsis.released,
    }


def _unpack_onedim(data: dict[str, np.ndarray]) -> OneDimHistogramSynopsis:
    try:
        return OneDimHistogramSynopsis(
            _domain_from_array(data["domain"]),
            float(data["epsilon"]),
            np.asarray(data["released"], dtype=float),
        )
    except ValueError as exc:
        raise ValueError(f"corrupt one-dim archive: {exc}") from exc


def _pack_uniform(synopsis: UniformGridSynopsis) -> dict[str, np.ndarray]:
    return {
        "domain": _domain_array(synopsis.domain),
        "epsilon": np.array(synopsis.epsilon),
        "counts": synopsis.counts,
    }


def _unpack_uniform(data: dict[str, np.ndarray]) -> UniformGridSynopsis:
    domain = _domain_from_array(data["domain"])
    counts = np.asarray(data["counts"], dtype=float)
    layout = GridLayout(domain, counts.shape[0], counts.shape[1])
    return UniformGridSynopsis(domain, float(data["epsilon"]), layout, counts)


# ----------------------------------------------------------------------
# Privelet (wavelet)
# ----------------------------------------------------------------------


def _pack_wavelet(synopsis: PriveletSynopsis) -> dict[str, np.ndarray]:
    # The coefficient matrix is the release; the reconstructed grid is
    # deterministic post-processing and is rebuilt on load (bit-identical
    # — the loader runs the same reconstruct_counts the builder ran).
    return {
        "domain": _domain_array(synopsis.domain),
        "epsilon": np.array(synopsis.epsilon),
        "grid_size": np.array(synopsis.grid_size[0]),
        "coefficients": synopsis.coefficients,
    }


def _unpack_wavelet(data: dict[str, np.ndarray]) -> PriveletSynopsis:
    domain = _domain_from_array(data["domain"])
    m = int(data["grid_size"])
    coefficients = np.asarray(data["coefficients"], dtype=float)
    layout = GridLayout(domain, m, m)
    try:
        return PriveletSynopsis(
            domain,
            float(data["epsilon"]),
            layout,
            reconstruct_counts(coefficients, m),
            coefficients,
        )
    except ValueError as exc:
        raise ValueError(f"corrupt wavelet archive: {exc}") from exc


# ----------------------------------------------------------------------
# Hierarchy
# ----------------------------------------------------------------------


def _pack_hierarchy(synopsis: HierarchicalGridSynopsis) -> dict[str, np.ndarray]:
    # Leaf counts *and* the raw measurement stack both persist: counts so
    # the loaded release answers bit-identically without re-running
    # inference, the stack so inference remains re-runnable downstream.
    return {
        "domain": _domain_array(synopsis.domain),
        "epsilon": np.array(synopsis.epsilon),
        "branching": np.array(synopsis.branching),
        "level_sizes": np.asarray(synopsis.level_sizes, dtype=np.int64),
        "measurements": synopsis.measurements,
        "level_variances": synopsis.level_variances,
        "counts": synopsis.counts,
    }


def _unpack_hierarchy(data: dict[str, np.ndarray]) -> HierarchicalGridSynopsis:
    domain = _domain_from_array(data["domain"])
    level_sizes = [int(size) for size in data["level_sizes"]]
    leaf_size = level_sizes[-1] if level_sizes else 0
    counts = np.asarray(data["counts"], dtype=float)
    try:
        layout = GridLayout(domain, leaf_size, leaf_size)
        return HierarchicalGridSynopsis(
            domain,
            float(data["epsilon"]),
            layout,
            counts,
            int(data["branching"]),
            level_sizes,
            np.asarray(data["measurements"], dtype=float),
            np.asarray(data["level_variances"], dtype=float),
        )
    except ValueError as exc:
        raise ValueError(f"corrupt hierarchy archive: {exc}") from exc


# ----------------------------------------------------------------------
# d-dimensional grid (servable d = 2 embedding)
# ----------------------------------------------------------------------


def _pack_ndgrid(synopsis: MultiDimGridSynopsis) -> dict[str, np.ndarray]:
    nd = synopsis.nd
    return {
        "epsilon": np.array(nd.epsilon),
        "lows": nd.layout.box.lows,
        "highs": nd.layout.box.highs,
        "per_axis_size": np.array(nd.layout.m),
        "counts": nd.counts.ravel(),
    }


def _unpack_ndgrid(data: dict[str, np.ndarray]) -> MultiDimGridSynopsis:
    lows = np.asarray(data["lows"], dtype=float)
    highs = np.asarray(data["highs"], dtype=float)
    m = int(data["per_axis_size"])
    try:
        layout = NDGridLayout(NDBox(lows, highs), m)
        counts = np.asarray(data["counts"], dtype=float).reshape(layout.shape)
        return MultiDimGridSynopsis(
            NDUniformGridSynopsis(layout, counts, float(data["epsilon"]))
        )
    except ValueError as exc:
        raise ValueError(f"corrupt ndgrid archive: {exc}") from exc


# ----------------------------------------------------------------------
# Adaptive grid
# ----------------------------------------------------------------------


def _pack_adaptive(synopsis: AdaptiveGridSynopsis) -> dict[str, np.ndarray]:
    # The synopsis already *is* the archive layout: flat CSR arrays.
    m1x, m1y = synopsis.first_level_size
    return {
        "domain": _domain_array(synopsis.domain),
        "epsilon": np.array(synopsis.epsilon),
        "first_level": np.array([m1x, m1y]),
        "cell_sizes": synopsis.cell_sizes,
        "cell_totals": synopsis.cell_totals,
        "leaf_counts": synopsis.leaf_counts,
    }


def _unpack_adaptive(data: dict[str, np.ndarray]) -> AdaptiveGridSynopsis:
    domain = _domain_from_array(data["domain"])
    m1x, m1y = (int(v) for v in data["first_level"])
    level1 = GridLayout(domain, m1x, m1y)
    sizes = np.asarray(data["cell_sizes"], dtype=np.int64)
    totals = np.asarray(data["cell_totals"], dtype=float)
    flat_leaves = np.asarray(data["leaf_counts"], dtype=float)
    try:
        return AdaptiveGridSynopsis(
            domain, float(data["epsilon"]), level1, sizes, totals, flat_leaves
        )
    except ValueError as exc:
        raise ValueError(f"corrupt adaptive-grid archive: {exc}") from exc


# ----------------------------------------------------------------------
# Spatial trees
# ----------------------------------------------------------------------


def _pack_tree(synopsis: TreeSynopsis) -> dict[str, np.ndarray]:
    # The flat TreeArrays state *is* the archive layout: level-order node
    # arrays with CSR child offsets.  noisy_counts / variances ride along
    # so constrained inference can be re-run on a loaded release.
    arrays = synopsis.arrays
    return {
        "domain": _domain_array(synopsis.domain),
        "epsilon": np.array(synopsis.epsilon),
        "rects": arrays.rects,
        "counts": arrays.counts,
        "noisy_counts": arrays.noisy_counts,
        "variances": arrays.variances,
        "depths": arrays.depths,
        "child_offsets": arrays.child_offsets,
        "level_offsets": arrays.level_offsets,
    }


def _unpack_tree(data: dict[str, np.ndarray]) -> TreeSynopsis:
    arrays = TreeArrays(
        rects=np.asarray(data["rects"], dtype=float),
        depths=np.asarray(data["depths"], dtype=np.int64),
        child_offsets=np.asarray(data["child_offsets"], dtype=np.int64),
        noisy_counts=np.asarray(data["noisy_counts"], dtype=float),
        variances=np.asarray(data["variances"], dtype=float),
        counts=np.asarray(data["counts"], dtype=float),
        level_offsets=np.asarray(data["level_offsets"], dtype=np.int64),
    )
    try:
        arrays.validate()
    except ValueError as exc:
        raise ValueError(f"corrupt tree archive: {exc}") from exc
    return TreeSynopsis(
        _domain_from_array(data["domain"]), float(data["epsilon"]), arrays
    )



# ----------------------------------------------------------------------
# The declaration table
# ----------------------------------------------------------------------


def _grid_kind(kind: str, synopsis_type: type, pack, unpack, grid) -> SynopsisKind:
    """A row served by :class:`BatchQueryEngine` over the release's grid,
    which ``grid(synopsis)`` returns as ``(lows, highs, counts)``."""

    def engine(synopsis, slabs: dict[str, np.ndarray] | None = None):
        lows, highs, counts = grid(synopsis)
        if slabs is None:
            return BatchQueryEngine(lows, highs, counts)
        return BatchQueryEngine.from_slabs(lows, highs, counts.shape, slabs)

    return SynopsisKind(kind, synopsis_type, pack, unpack, engine)


def _plane_grid(synopsis: UniformGridSynopsis):
    domain = synopsis.layout.domain
    return domain.lows, domain.highs, synopsis.counts


#: One row per declared synopsis type.  Privelet and hierarchy releases
#: *are* ``UniformGridSynopsis`` instances but carry state the grid row
#: would drop, so each has its own row; both still answer from their
#: grid (Privelet's reconstructed counts, the hierarchy's inferred
#: leaves).  The five grid-shaped rows share the one grid engine; the
#: 1-D histogram is its ``m x 1`` grid.  The adaptive grid shares the
#: two-level grid engine with the consistent trees.  A subclass of a
#: declared type resolves to its nearest declared ancestor's row (see
#: :func:`synopsis_kind`).
KINDS: tuple[SynopsisKind, ...] = (
    _grid_kind(
        "uniform_grid", UniformGridSynopsis, _pack_uniform, _unpack_uniform,
        _plane_grid,
    ),
    _grid_kind(
        "hierarchy", HierarchicalGridSynopsis, _pack_hierarchy,
        _unpack_hierarchy, _plane_grid,
    ),
    _grid_kind(
        "wavelet", PriveletSynopsis, _pack_wavelet, _unpack_wavelet,
        _plane_grid,
    ),
    SynopsisKind(
        "adaptive_grid", AdaptiveGridSynopsis, _pack_adaptive,
        _unpack_adaptive, TwoLevelGridEngine.adaptive_grid,
    ),
    SynopsisKind("tree", TreeSynopsis, _pack_tree, _unpack_tree, tree_engine),
    _grid_kind(
        "ndgrid", MultiDimGridSynopsis, _pack_ndgrid, _unpack_ndgrid,
        lambda s: (s.layout.box.lows, s.layout.box.highs, s.counts),
    ),
    _grid_kind(
        "one_dim", OneDimHistogramSynopsis, _pack_onedim, _unpack_onedim,
        lambda s: (s.domain.lows, s.domain.highs, s.released[:, None]),
    ),
)

_KIND_BY_NAME = {row.kind: row for row in KINDS}
_KIND_BY_TYPE = {row.type: row for row in KINDS}

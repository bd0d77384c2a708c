"""Serialisation of released synopses.

A differentially private synopsis is a *publishable artifact*: once built,
its noisy state can be shared freely (post-processing preserves DP).  This
module persists synopses to a single archive file and restores them, so a
data curator can run ``fit`` once on the sensitive data and distribute the
file; consumers answer queries without ever seeing the raw points.

Two archive formats are written, both ending in the same SHA-1 integrity
footer:

* **v1** — a ``np.savez_compressed`` payload.  Compact, but every load
  decompresses a private copy per process.
* **v2** — a small binary header and JSON table of contents (per-array
  name/dtype/shape/offset/length) followed by *page-aligned* (4096 B)
  uncompressed array slabs.  :func:`synopsis_from_path` loads v2 via
  ``mmap`` and hands out read-only ``np.frombuffer`` views, so N forked
  workers serving the same release share one set of physical pages, and
  derived engine buffers sealed into the archive at release time (see
  :func:`~repro.queries.engine.register_engine_sealer`) restore without
  a per-worker rebuild.

Supported types: :class:`~repro.core.uniform_grid.UniformGridSynopsis`,
its wavelet and hierarchy subclasses (:class:`~repro.baselines.privelet.
PriveletSynopsis` keeps its coefficient matrix, :class:`~repro.baselines.
hierarchy.HierarchicalGridSynopsis` its raw level stack),
:class:`~repro.core.adaptive_grid.AdaptiveGridSynopsis`,
:class:`~repro.baselines.tree.TreeSynopsis`, and the d = 2 ND-grid
embedding :class:`~repro.extensions.multidim.MultiDimGridSynopsis`.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from repro.analysis.one_dim import OneDimHistogramSynopsis
from repro.baselines.hierarchy import HierarchicalGridSynopsis
from repro.baselines.privelet import PriveletSynopsis, reconstruct_counts
from repro.baselines.tree import SpatialNode, TreeArrays, TreeSynopsis
from repro.core.adaptive_grid import AdaptiveGridSynopsis
from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.synopsis import Synopsis
from repro.core.uniform_grid import UniformGridSynopsis
from repro.extensions.multidim import (
    MultiDimGridSynopsis,
    NDBox,
    NDGridLayout,
    NDUniformGridSynopsis,
)

__all__ = [
    "ARCHIVE_FORMATS",
    "ChecksumError",
    "load_synopsis",
    "save_synopsis",
    "synopsis_from_bytes",
    "synopsis_from_path",
    "synopsis_nbytes",
    "synopsis_to_bytes",
]

_FORMAT_VERSION = 1

#: Supported on-disk archive container formats (see module docstring).
ARCHIVE_FORMATS = ("v1", "v2")

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
#: prefix; the marker key distinguishes "sealed with no derived buffers"
#: (e.g. Privelet, whose coefficients are the prepared state) from "not
#: sealed at all".
_ENGINE_SLAB_PREFIX = "engine/"
_SEALED_MARKER = "engine/__sealed__"

_HASH_CHUNK = 1 << 20

# Integrity footer appended after the ``.npz`` payload: 20-byte SHA-1 of
# the payload, its 8-byte little-endian length, then an 8-byte magic.
# Appending (rather than prepending) keeps the file a readable zip for
# legacy ``np.load`` consumers — zip readers treat trailing bytes as the
# archive comment — while letting the loader detect truncation and
# bit-rot before any array is parsed.  Archives written before the
# footer existed (no trailing magic) still load, unverified.
_CHECKSUM_MAGIC = b"RPRSHA1\x00"
_CHECKSUM_FOOTER = struct.Struct(f"<20sQ{len(_CHECKSUM_MAGIC)}s")


class ChecksumError(ValueError):
    """The archive's integrity footer does not match its payload.

    Truncation, a short write, or on-disk bit-rot — the payload cannot be
    trusted and must not be parsed.  The serving layer quarantines the
    file and rebuilds on demand.
    """


def _pack(synopsis: Synopsis) -> dict[str, np.ndarray]:
    """Dispatch to the per-type packer; raises ``TypeError`` for others.

    Subclasses must be tested before their bases (Privelet and hierarchy
    releases *are* ``UniformGridSynopsis`` instances, but carry extra
    state the grid packer would silently drop).
    """
    if isinstance(synopsis, PriveletSynopsis):
        return _pack_wavelet(synopsis)
    if isinstance(synopsis, HierarchicalGridSynopsis):
        return _pack_hierarchy(synopsis)
    if isinstance(synopsis, UniformGridSynopsis):
        return _pack_uniform(synopsis)
    if isinstance(synopsis, AdaptiveGridSynopsis):
        return _pack_adaptive(synopsis)
    if isinstance(synopsis, TreeSynopsis):
        return _pack_tree(synopsis)
    if isinstance(synopsis, MultiDimGridSynopsis):
        return _pack_ndgrid(synopsis)
    if isinstance(synopsis, OneDimHistogramSynopsis):
        return _pack_onedim(synopsis)
    raise TypeError(
        f"cannot serialise synopsis of type {type(synopsis).__name__}"
    )


def synopsis_to_bytes(synopsis: Synopsis, archive_format: str = "v1") -> bytes:
    """Serialise a released synopsis to checksummed archive bytes.

    ``archive_format`` selects the container: ``"v1"`` is the compact
    ``np.savez_compressed`` payload, ``"v2"`` the page-aligned
    uncompressed layout that :func:`synopsis_from_path` memory-maps
    (with the type's derived engine buffers sealed alongside, when a
    sealer is registered — the slabs already attached to the synopsis,
    if any, else freshly computed).  Either way the payload is followed by the
    same SHA-1 integrity footer (see ``_CHECKSUM_MAGIC``).  Raises
    ``TypeError`` for synopsis types without a registered format.
    """
    payload = _pack(synopsis)
    payload["format_version"] = np.array(_FORMAT_VERSION)
    if archive_format == "v1":
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        blob = buffer.getvalue()
    elif archive_format == "v2":
        from repro.queries.engine import compute_engine_slabs

        slabs = synopsis.sealed_engine_slabs
        if slabs is None:
            slabs = compute_engine_slabs(synopsis)
        if slabs is not None:
            payload[_SEALED_MARKER] = np.array(1, dtype=np.int64)
            for name, array in slabs.items():
                payload[_ENGINE_SLAB_PREFIX + name] = array
        blob = _pack_v2_payload(payload)
    else:
        raise ValueError(
            f"unknown archive format {archive_format!r}; expected one of "
            f"{ARCHIVE_FORMATS}"
        )
    footer = _CHECKSUM_FOOTER.pack(
        hashlib.sha1(blob).digest(), len(blob), _CHECKSUM_MAGIC
    )
    return blob + footer


def _align(offset: int) -> int:
    """Round ``offset`` up to the next ``_V2_ALIGN`` boundary."""
    return -(-offset // _V2_ALIGN) * _V2_ALIGN


def _pack_v2_payload(payload: dict[str, np.ndarray]) -> bytes:
    """Lay a named-array dict out as a v2 payload (header + TOC + slabs)."""
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
    out = bytearray(data_start + rel)
    out[: _V2_HEADER.size] = _V2_HEADER.pack(_V2_MAGIC, _V2_VERSION, len(toc))
    out[_V2_HEADER.size : _V2_HEADER.size + len(toc)] = toc
    for entry, array in zip(entries, arrays.values()):
        start = data_start + entry["offset"]
        out[start : start + array.nbytes] = array.tobytes()
    return bytes(out)


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


def _verify_checksum(data: bytes) -> bytes:
    """Strip and verify the integrity footer; returns the npz payload.

    Data without a trailing magic is passed through unchanged (legacy
    pre-footer archives); anything carrying the magic must verify.
    """
    if len(data) < _CHECKSUM_FOOTER.size or not data.endswith(_CHECKSUM_MAGIC):
        return data
    digest, length, _ = _CHECKSUM_FOOTER.unpack(data[-_CHECKSUM_FOOTER.size:])
    blob = data[: -_CHECKSUM_FOOTER.size]
    if length != len(blob):
        raise ChecksumError(
            f"archive truncated: footer records {length} payload bytes, "
            f"found {len(blob)}"
        )
    if hashlib.sha1(blob).digest() != digest:
        raise ChecksumError(
            "archive payload does not match its SHA-1 footer (bit-rot or "
            "a torn write)"
        )
    return blob


def save_synopsis(
    synopsis: Synopsis, path: str | Path, archive_format: str = "v1"
) -> None:
    """Write a released synopsis to ``path`` (a checksummed archive).

    Raises ``TypeError`` for synopsis types without a registered format.
    The write itself is not atomic — callers that need crash safety
    (the synopsis store does) write :func:`synopsis_to_bytes` to a temp
    file and rename.
    """
    Path(path).write_bytes(synopsis_to_bytes(synopsis, archive_format))


def synopsis_nbytes(synopsis: Synopsis) -> int:
    """Uncompressed in-memory footprint of a synopsis's released state.

    Computed from the same payload :func:`save_synopsis` writes, so it is
    defined for exactly the serialisable types.  The serving layer's
    :class:`~repro.service.store.SynopsisStore` uses it to enforce its
    cache size bound.
    """
    return sum(np.asarray(value).nbytes for value in _pack(synopsis).values())


def load_synopsis(path: str | Path) -> Synopsis:
    """Restore a synopsis previously written by :func:`save_synopsis`.

    Delegates to :func:`synopsis_from_path`: v2 archives are
    memory-mapped, v1 archives are checksum-verified in streaming
    chunks and parsed straight from the file (no full in-memory copy
    of the archive either way).  Raises :class:`ChecksumError` when the
    archive carries an integrity footer that does not match its
    payload, and ``ValueError`` for payloads that parse but violate a
    synopsis invariant.
    """
    return synopsis_from_path(path)


def synopsis_from_path(path: str | Path) -> Synopsis:
    """Restore a synopsis from an archive file, zero-copy where possible.

    v2 archives are verified and parsed over a read-only ``mmap``; the
    returned synopsis's arrays (and any sealed engine slabs) are views
    into the mapping, so forked workers loading the same file share
    physical pages and ``synopsis.mapped_nbytes`` reports the mapping
    size.  v1 and legacy archives stream the SHA-1 verification and
    then parse with ``np.load`` directly from the file, avoiding the
    full byte-string materialisation :func:`synopsis_from_bytes` pays.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        if handle.read(len(_V2_MAGIC)) == _V2_MAGIC:
            return _load_v2_mapped(handle)
        _verify_checksum_stream(handle)
    with np.load(path, allow_pickle=False) as archive:
        data = {key: archive[key] for key in archive.files}
    return _assemble(data)


def _load_v2_mapped(handle) -> Synopsis:
    """Map, verify, and assemble a v2 archive from an open file handle.

    The mapping outlives the handle: numpy views hold the ``mmap``
    through the buffer protocol, and the pages are released when the
    last view is garbage-collected (store eviction drops the synopsis,
    the views die, the kernel reclaims the pages).
    """
    mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(mapping)
    size = len(view)
    if size < _CHECKSUM_FOOTER.size or bytes(
        view[-len(_CHECKSUM_MAGIC) :]
    ) != _CHECKSUM_MAGIC:
        raise ChecksumError(
            "v2 archive is missing its integrity footer (truncated)"
        )
    digest, length, _ = _CHECKSUM_FOOTER.unpack(
        bytes(view[-_CHECKSUM_FOOTER.size :])
    )
    payload_len = size - _CHECKSUM_FOOTER.size
    if length != payload_len:
        raise ChecksumError(
            f"archive truncated: footer records {length} payload bytes, "
            f"found {payload_len}"
        )
    if hashlib.sha1(view[:payload_len]).digest() != digest:
        raise ChecksumError(
            "archive payload does not match its SHA-1 footer (bit-rot or "
            "a torn write)"
        )
    synopsis = _assemble(_parse_v2(view[:payload_len]))
    synopsis.mapped_nbytes = size
    return synopsis


def _verify_checksum_stream(handle) -> None:
    """Verify a v1 archive's SHA-1 footer in streaming chunks.

    Same contract as :func:`_verify_checksum` — pre-footer legacy files
    pass unverified, anything carrying the magic must verify — but the
    payload is hashed ``_HASH_CHUNK`` bytes at a time instead of being
    materialised in memory.
    """
    handle.seek(0, os.SEEK_END)
    size = handle.tell()
    if size < _CHECKSUM_FOOTER.size:
        return
    handle.seek(size - _CHECKSUM_FOOTER.size)
    footer = handle.read(_CHECKSUM_FOOTER.size)
    if not footer.endswith(_CHECKSUM_MAGIC):
        return
    digest, length, _ = _CHECKSUM_FOOTER.unpack(footer)
    payload_len = size - _CHECKSUM_FOOTER.size
    if length != payload_len:
        raise ChecksumError(
            f"archive truncated: footer records {length} payload bytes, "
            f"found {payload_len}"
        )
    handle.seek(0)
    sha = hashlib.sha1()
    remaining = payload_len
    while remaining:
        chunk = handle.read(min(_HASH_CHUNK, remaining))
        if not chunk:
            raise ChecksumError("archive shrank while being verified")
        sha.update(chunk)
        remaining -= len(chunk)
    if sha.digest() != digest:
        raise ChecksumError(
            "archive payload does not match its SHA-1 footer (bit-rot or "
            "a torn write)"
        )


def synopsis_from_bytes(data: bytes) -> Synopsis:
    """Restore a synopsis from :func:`synopsis_to_bytes` output.

    Handles both archive formats.  Prefer :func:`synopsis_from_path`
    when the archive lives in a file — it memory-maps v2 payloads and
    streams v1 verification instead of double-buffering the bytes.
    """
    blob = _verify_checksum(data)
    if blob[: len(_V2_MAGIC)] == _V2_MAGIC:
        if blob is data:
            # v2 archives are always written with a footer; reaching the
            # parser without one means the footer (at least) was cut off.
            raise ChecksumError(
                "v2 archive is missing its integrity footer (truncated)"
            )
        return _assemble(_parse_v2(memoryview(blob)))
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        data = {key: archive[key] for key in archive.files}
    return _assemble(data)


def _assemble(data: dict[str, np.ndarray]) -> Synopsis:
    """Dispatch a parsed payload dict to the per-kind unpacker.

    Shared by both container formats; sealed engine slabs (v2) are
    split off their reserved prefix and attached to the synopsis so
    :func:`~repro.queries.engine.make_engine` restores the engine
    without rebuilding.
    """
    data = dict(data)
    sealed = data.pop(_SEALED_MARKER, None) is not None
    engine_slabs = {
        name[len(_ENGINE_SLAB_PREFIX) :]: value
        for name, value in data.items()
        if name.startswith(_ENGINE_SLAB_PREFIX)
    }
    for name in engine_slabs:
        del data[_ENGINE_SLAB_PREFIX + name]
    version = int(data.pop("format_version"))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported synopsis format version {version}")
    kind = str(data["kind"])
    if kind == "uniform_grid":
        synopsis = _unpack_uniform(data)
    elif kind == "adaptive_grid":
        synopsis = _unpack_adaptive(data)
    elif kind == "tree":
        synopsis = _unpack_tree(data)
    elif kind == "wavelet":
        synopsis = _unpack_wavelet(data)
    elif kind == "hierarchy":
        synopsis = _unpack_hierarchy(data)
    elif kind == "ndgrid":
        synopsis = _unpack_ndgrid(data)
    elif kind == "one_dim":
        synopsis = _unpack_onedim(data)
    else:
        raise ValueError(f"unknown synopsis kind {kind!r}")
    if sealed:
        synopsis.seal_engine_slabs(engine_slabs)
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
        "kind": np.array("one_dim"),
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
        "kind": np.array("uniform_grid"),
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
        "kind": np.array("wavelet"),
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
        "kind": np.array("hierarchy"),
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
        "kind": np.array("ndgrid"),
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
        "kind": np.array("adaptive_grid"),
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
        "kind": np.array("tree"),
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
    if "child_offsets" not in data:
        return _unpack_tree_legacy(data)
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


def _unpack_tree_legacy(data: dict[str, np.ndarray]) -> TreeSynopsis:
    """Restore the pre-flat-kernel pre-order archive layout.

    Older archives stored per-node child *counts* in DFS pre-order (and
    no raw measurements); the object graph is rebuilt recursively and
    converted, so releases persisted before the flat tree kernel stay
    loadable.
    """
    rects = np.asarray(data["rects"], dtype=float)
    counts = np.asarray(data["counts"], dtype=float)
    child_counts = np.asarray(data["child_counts"], dtype=np.int64)
    depths = np.asarray(data["depths"], dtype=np.int64)
    cursor = 0

    def build() -> SpatialNode:
        nonlocal cursor
        index = cursor
        cursor += 1
        node = SpatialNode(
            rect=Rect(*rects[index]),
            count=float(counts[index]),
            depth=int(depths[index]),
        )
        for _ in range(int(child_counts[index])):
            node.children.append(build())
        return node

    root = build()
    if cursor != counts.size:
        raise ValueError("corrupt tree archive: node count mismatch")
    return TreeSynopsis(
        _domain_from_array(data["domain"]), float(data["epsilon"]), root
    )

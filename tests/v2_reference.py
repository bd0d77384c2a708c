"""Reference writer for v2 archives, for the one-buffer writer's tests.

Lays the payload out the straightforward way — a zeroed ``bytearray``
filled with each array's ``tobytes()``, copied to ``bytes``, the footer
appended — which holds about twice the archive at its peak.  The
library's writer fills one preallocated buffer in place and must
produce exactly these bytes.
"""

import hashlib
import json

import numpy as np

from repro.core import serialization as ser


def v2_reference_bytes(synopsis, slabs=None) -> bytes:
    """The v2 archive bytes of ``synopsis``, built step by step, with
    ``slabs`` sealed as its engine buffers (by default those of a fresh
    engine from its row's ``engine``)."""
    payload = ser._pack(synopsis)
    payload["format_version"] = np.array(ser._FORMAT_VERSION)
    payload[ser._SEALED_MARKER] = np.array(1, dtype=np.int64)
    if slabs is None:
        slabs = ser.synopsis_kind(type(synopsis)).engine(synopsis).slabs
    for name, array in slabs.items():
        payload[ser._ENGINE_SLAB_PREFIX + name] = array
    arrays = {}
    for name, value in payload.items():
        array = np.asarray(value)
        if not array.flags["C_CONTIGUOUS"]:
            array = np.ascontiguousarray(array)
        arrays[name] = array
    entries = []
    rel = 0
    for name, array in arrays.items():
        rel = ser._align(rel)
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
    data_start = ser._align(ser._V2_HEADER.size + len(toc))
    out = bytearray(data_start + rel)
    out[: ser._V2_HEADER.size] = ser._V2_HEADER.pack(
        ser._V2_MAGIC, ser._V2_VERSION, len(toc)
    )
    out[ser._V2_HEADER.size : ser._V2_HEADER.size + len(toc)] = toc
    for entry, array in zip(entries, arrays.values()):
        start = data_start + entry["offset"]
        out[start : start + array.nbytes] = array.tobytes()
    blob = bytes(out)
    return blob + ser._CHECKSUM_FOOTER.pack(
        hashlib.sha1(blob).digest(), len(blob), ser._CHECKSUM_MAGIC
    )

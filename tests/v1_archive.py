"""Writer for v1 archives, for tests and benches of v1 *reads*.

The library writes only the page-aligned v2 container but still reads
the older v1 format: an ``np.savez_compressed`` payload of a synopsis's
packed arrays, followed by the same SHA-1 integrity footer.  Tests that
check v1 read behaviour write their archives through this helper.
"""

import hashlib
import io

import numpy as np

from repro.core import serialization


def v1_archive_bytes(synopsis, **overrides) -> bytes:
    """The v1 archive bytes of ``synopsis``.

    ``overrides`` replace or add payload arrays (a wrong
    ``format_version``, corrupt tree offsets) for tests of the loader's
    own checks; the footer is computed over the resulting payload.
    """
    payload = serialization._pack(synopsis)
    payload["format_version"] = np.array(serialization._FORMAT_VERSION)
    payload.update(overrides)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    blob = buffer.getvalue()
    return blob + serialization._CHECKSUM_FOOTER.pack(
        hashlib.sha1(blob).digest(), len(blob), serialization._CHECKSUM_MAGIC
    )

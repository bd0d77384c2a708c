"""The v2 zero-copy archive container: round trips, mmap views, compat.

The library writes v2, a page-aligned slab container with a JSON table
of contents and a SHA-1 footer; it still reads v1, ``np.savez_compressed``
plus the same footer (written here by :mod:`tests.v1_archive`).  Every
servable method must round trip through both formats bit-identically, a
v2 archive loaded from disk must hand back memory-mapped views rather
than heap copies, and an archive of either format without a valid
footer must be rejected.
"""

import mmap

import numpy as np
import pytest

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect
from repro.core.serialization import (
    ChecksumError,
    save_synopsis,
    synopsis_from_bytes,
    synopsis_from_path,
    synopsis_to_bytes,
)
from repro.queries.engine import make_engine
from repro.service.keys import make_builder, method_names
from tests.v1_archive import v1_archive_bytes
from tests.v2_reference import v2_reference_bytes

#: sha1 (20) + payload length (8) + magic (8): the integrity footer.
_FOOTER_BYTES = 36

QUERIES = [
    Rect(0.0, 0.0, 1.0, 1.0),
    Rect(0.1, 0.2, 0.6, 0.9),
    Rect(0.33, 0.33, 0.34, 0.34),
    Rect(0.0, 0.5, 1.0, 0.75),
]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    return GeoDataset(rng.random((2_000, 2)), Domain2D.unit(), name="v2-matrix")


def build(dataset, method):
    return make_builder(method).fit(dataset, 1.0, np.random.default_rng(7))


def batch_answers(synopsis):
    return np.asarray(make_engine(synopsis).answer_batch(QUERIES))


class TestRoundTripMatrix:
    """v1 and v2 restores are bit-identical for every servable method."""

    @pytest.mark.parametrize("method", method_names())
    def test_one_buffer_writer_matches_reference(self, dataset, method):
        """Filling one preallocated buffer writes exactly the bytes of
        the step-by-step reference layout."""
        synopsis = build(dataset, method)
        archive = synopsis_to_bytes(synopsis)
        assert isinstance(archive, memoryview)
        assert archive == v2_reference_bytes(synopsis)

    @pytest.mark.parametrize("method", method_names())
    def test_formats_agree_bit_for_bit(self, dataset, method, tmp_path):
        synopsis = build(dataset, method)
        restored = {}
        archives = {
            "v1": v1_archive_bytes(synopsis),
            "v2": synopsis_to_bytes(synopsis),
        }
        for fmt, blob in archives.items():
            path = tmp_path / f"{method}-{fmt}.npz"
            path.write_bytes(blob)
            restored[f"{fmt}-path"] = synopsis_from_path(path)
            restored[f"{fmt}-bytes"] = synopsis_from_bytes(blob)
        reference = batch_answers(synopsis)
        for label, clone in restored.items():
            assert type(clone) is type(synopsis), label
            np.testing.assert_array_equal(
                batch_answers(clone), reference, err_msg=label
            )
            for query in QUERIES:
                assert clone.answer(query) == synopsis.answer(query), label

    @pytest.mark.parametrize("method", method_names())
    def test_sealed_engine_matches_rebuilt(self, dataset, method, tmp_path):
        """A v2 restore holds its engine, restored from the sealed slabs,
        and it answers bit-identically to a cold rebuild."""
        synopsis = build(dataset, method)
        path = tmp_path / f"{method}.npz"
        save_synopsis(synopsis, path)
        mapped = synopsis_from_path(path)
        assert mapped.engine is not None
        cold = build(dataset, method)  # same seed: identical synopsis
        np.testing.assert_array_equal(batch_answers(mapped), batch_answers(cold))

    @pytest.mark.parametrize("method", method_names())
    def test_build_sealed_engine_matches_rebuilt(self, dataset, method, tmp_path):
        """An engine prepared at build time (as the store prepares it),
        the engine restored from its slabs in v2, and a rebuild (a fresh
        fit, or a v1 load) give one engine type and bit-identical
        answers."""
        sealed = build(dataset, method)
        prepared = make_engine(sealed)
        (tmp_path / "v1.npz").write_bytes(v1_archive_bytes(sealed))
        save_synopsis(sealed, tmp_path / "v2.npz")
        engines = {
            "rebuilt": make_engine(build(dataset, method)),
            "sealed": make_engine(sealed),
            "v1": make_engine(synopsis_from_path(tmp_path / "v1.npz")),
            "v2": make_engine(synopsis_from_path(tmp_path / "v2.npz")),
        }
        assert engines["sealed"] is prepared
        reference = engines["rebuilt"].answer_batch(QUERIES)
        for label, engine in engines.items():
            assert type(engine) is type(engines["rebuilt"]), label
            np.testing.assert_array_equal(
                engine.answer_batch(QUERIES), reference, err_msg=label
            )

    def test_v1_restore_is_not_sealed(self, dataset, tmp_path):
        path = tmp_path / "ug.npz"
        path.write_bytes(v1_archive_bytes(build(dataset, "UG")))
        assert synopsis_from_path(path).engine is None


class TestMappedViews:
    def test_v2_arrays_are_mmap_views(self, dataset, tmp_path):
        synopsis = build(dataset, "UG")
        path = tmp_path / "ug.npz"
        save_synopsis(synopsis, path)
        mapped = synopsis_from_path(path)
        counts = mapped.counts
        assert not counts.flags["OWNDATA"]
        assert not counts.flags["WRITEABLE"]
        base = counts
        while base.base is not None and not isinstance(base, memoryview):
            base = base.base
            if isinstance(base, (mmap.mmap, memoryview)):
                break
        assert isinstance(base, (mmap.mmap, memoryview))
        assert mapped.mapped_nbytes == path.stat().st_size

    def test_v1_restore_reports_no_mapping(self, dataset, tmp_path):
        path = tmp_path / "ug.npz"
        path.write_bytes(v1_archive_bytes(build(dataset, "UG")))
        assert synopsis_from_path(path).mapped_nbytes == 0

    def test_slabs_are_page_aligned(self, dataset):
        from repro.core.serialization import _V2_ALIGN, _V2_HEADER, _V2_MAGIC
        import json as _json

        blob = synopsis_to_bytes(build(dataset, "AG"))
        magic, version, toc_len = _V2_HEADER.unpack_from(blob)
        assert magic == _V2_MAGIC and version == 2
        toc = _json.loads(
            bytes(blob[_V2_HEADER.size : _V2_HEADER.size + toc_len])
        )
        data_start = -(-(_V2_HEADER.size + toc_len) // _V2_ALIGN) * _V2_ALIGN
        assert data_start % _V2_ALIGN == 0
        for entry in toc["arrays"]:
            assert (data_start + entry["offset"]) % _V2_ALIGN == 0, entry["name"]


class TestCompat:
    @pytest.mark.parametrize(
        "damage",
        [
            # The whole footer is gone: what pre-footer archives looked
            # like, and what a cut exactly at the payload end leaves.
            lambda blob: blob[:-_FOOTER_BYTES],
            # A cut inside the footer.
            lambda blob: blob[: -_FOOTER_BYTES // 2],
            # One byte of the footer magic flipped.
            lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x01]),
        ],
        ids=["stripped", "cut-mid-footer", "flipped-magic"],
    )
    @pytest.mark.parametrize("method", method_names())
    def test_v1_damaged_footer_is_rejected(self, dataset, method, damage, tmp_path):
        """A v1 archive without a valid footer is rejected, never loaded
        unverified — from bytes and from a file alike."""
        blob = damage(v1_archive_bytes(build(dataset, method)))
        with pytest.raises(ChecksumError, match="footer"):
            synopsis_from_bytes(blob)
        path = tmp_path / "damaged.npz"
        path.write_bytes(blob)
        with pytest.raises(ChecksumError, match="footer"):
            synopsis_from_path(path)

    def test_zero_dim_arrays_survive(self, dataset):
        """0-d metadata arrays (epsilon, format_version) keep shape ()
        through the v2 container — the TOC must not promote them."""
        synopsis = build(dataset, "UG")
        clone = synopsis_from_bytes(synopsis_to_bytes(synopsis))
        assert clone.epsilon == synopsis.epsilon

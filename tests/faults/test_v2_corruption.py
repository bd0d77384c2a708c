"""Corrupt v2 (mmap) archives: detected, quarantined, rebuildable.

Mirrors ``test_crash_storage.py`` for the zero-copy container: cuts and
bit flips at every structural boundary — header, TOC, each slab start,
footer — must never parse, and the store must quarantine the corpse to
``*.corrupt`` and answer 503 exactly as it does for v1.  The footer is
mandatory, so any truncation is a checksum failure.
"""

import json

import numpy as np
import pytest
from faultutil import N_POINTS, release_key

from repro.core.serialization import (
    _V2_HEADER,
    _V2_MAGIC,
    ChecksumError,
    synopsis_from_bytes,
    synopsis_from_path,
)
from repro.service.errors import ReleaseQuarantined
from repro.service.store import SynopsisStore

#: sha1 (20) + payload length (8) + magic (8): the integrity footer.
_FOOTER_BYTES = 36


def _store(tmp_path, **kwargs):
    options = {"n_points": N_POINTS, "dataset_budget": 8.0}
    options.update(kwargs)
    return SynopsisStore(store_dir=tmp_path, **options)


@pytest.fixture
def persisted(tmp_path):
    """A store with one persisted v2 release; returns (dir, archive path)."""
    store = _store(tmp_path)
    store.build(release_key())
    path = tmp_path / f"{release_key().slug()}.npz"
    assert path.exists()
    assert path.read_bytes()[: len(_V2_MAGIC)] == _V2_MAGIC
    return tmp_path, path


def _boundaries(blob):
    """Every structurally meaningful offset: header fields, TOC start and
    end, each slab's first byte, and the footer."""
    _, _, toc_len = _V2_HEADER.unpack_from(blob)
    toc = json.loads(bytes(blob[_V2_HEADER.size : _V2_HEADER.size + toc_len]))
    from repro.core.serialization import _V2_ALIGN

    data_start = -(-(_V2_HEADER.size + toc_len) // _V2_ALIGN) * _V2_ALIGN
    offsets = {0, len(_V2_MAGIC), _V2_HEADER.size, _V2_HEADER.size + toc_len - 1}
    for entry in toc["arrays"]:
        offsets.add(data_start + entry["offset"])
    offsets.add(len(blob) - _FOOTER_BYTES)  # first footer byte
    offsets.add(len(blob) - 1)
    return sorted(offsets)


class TestDetection:
    def test_truncation_at_every_boundary_fails(self, persisted):
        _, path = persisted
        pristine = path.read_bytes()
        for cut in _boundaries(pristine):
            with pytest.raises(ChecksumError):
                synopsis_from_bytes(pristine[:cut])

    def test_bit_flip_at_every_boundary_fails(self, persisted):
        _, path = persisted
        pristine = path.read_bytes()
        for offset in _boundaries(pristine):
            flipped = bytearray(pristine)
            flipped[min(offset, len(pristine) - 1)] ^= 0x01
            with pytest.raises((ChecksumError, ValueError)):
                synopsis_from_bytes(bytes(flipped))

    def test_footer_is_mandatory(self, persisted):
        """An archive that keeps its whole payload but loses the footer
        is rejected, not trusted."""
        _, path = persisted
        pristine = path.read_bytes()
        with pytest.raises(ChecksumError, match="footer"):
            synopsis_from_bytes(pristine[:-_FOOTER_BYTES])

    def test_mapped_load_rejects_damage_too(self, persisted, tmp_path):
        """The mmap path applies the same integrity checks as the bytes
        path — a flipped slab byte is caught before any view escapes."""
        _, path = persisted
        pristine = path.read_bytes()
        damaged = tmp_path / "damaged.npz"
        for offset in _boundaries(pristine):
            corpse = bytearray(pristine)
            corpse[min(offset, len(pristine) - 1)] ^= 0x10
            damaged.write_bytes(bytes(corpse))
            with pytest.raises((ChecksumError, ValueError)):
                synopsis_from_path(damaged)


class TestQuarantine:
    def test_corrupt_v2_archive_is_quarantined(self, persisted):
        tmp_path, path = persisted
        pristine = path.read_bytes()
        rng = np.random.default_rng(23)
        for round_number in range(6):
            cut = int(rng.integers(0, len(pristine)))
            path.write_bytes(pristine[:cut])
            store = _store(tmp_path)  # fresh process: nothing cached
            with pytest.raises(ReleaseQuarantined, match="quarantined"):
                store.get(release_key())
            corpse = path.with_name(path.name + ".corrupt")
            assert corpse.exists(), f"round {round_number}: no quarantine file"
            assert store.stats.quarantined == 1
            # Sticky: the next read does not re-parse the corpse.
            with pytest.raises(ReleaseQuarantined):
                store.get(release_key())
            assert store.stats.quarantined == 1
            corpse.unlink()

    def test_rebuild_clears_quarantine(self, persisted):
        tmp_path, path = persisted
        path.write_bytes(path.read_bytes()[:4096])
        store = _store(tmp_path)
        with pytest.raises(ReleaseQuarantined):
            store.get(release_key())
        synopsis, built = store.build(release_key())
        assert built
        assert store.to_payload()["quarantined"] == {}
        assert store.get(release_key()) is synopsis
        # The rebuilt archive is valid (and mapped) for the next process.
        clone = synopsis_from_path(path)
        assert clone.total() == pytest.approx(synopsis.total())
        assert clone.mapped_nbytes == path.stat().st_size

"""Corrupt release archives: quarantined, reported, rebuildable.

Property-style over fault offsets: truncate or bit-flip a persisted
archive at seeded-random positions and assert the store never crashes,
never serves garbage, renames the corpse to ``*.corrupt``, answers 503
for the key, and restores service on rebuild.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from faultutil import N_POINTS, RECTS, RELEASE, release_key

from repro.core.serialization import (
    ChecksumError,
    load_synopsis,
    synopsis_from_bytes,
    synopsis_to_bytes,
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
    """A store with one persisted release; returns (store dir, archive path)."""
    store = _store(tmp_path)
    store.build(release_key())
    path = tmp_path / f"{release_key().slug()}.npz"
    assert path.exists()
    return tmp_path, path


class TestChecksumFooter:
    def test_round_trip(self, persisted):
        _, path = persisted
        synopsis = load_synopsis(path)
        data = synopsis_to_bytes(synopsis)
        clone = synopsis_from_bytes(data)
        assert type(clone) is type(synopsis)
        assert clone.total() == pytest.approx(synopsis.total())

    def test_any_payload_bit_flip_is_detected(self, persisted):
        _, path = persisted
        pristine = path.read_bytes()
        rng = np.random.default_rng(11)
        for _ in range(16):
            offset = int(rng.integers(0, len(pristine) - _FOOTER_BYTES))
            flipped = bytearray(pristine)
            flipped[offset] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(ChecksumError):
                synopsis_from_bytes(bytes(flipped))

    def test_truncation_never_parses(self, persisted):
        _, path = persisted
        pristine = path.read_bytes()
        payload_len = len(pristine) - _FOOTER_BYTES
        rng = np.random.default_rng(13)
        # Any cut that loses payload bytes must fail to parse.
        cuts = {0, 1, payload_len - 1}
        cuts.update(int(c) for c in rng.integers(0, payload_len, size=12))
        for cut in sorted(cuts):
            with pytest.raises(Exception):
                synopsis_from_bytes(pristine[:cut])
        # So must a cut that keeps the whole payload but loses the footer:
        # without it the payload cannot be verified.
        with pytest.raises(ChecksumError):
            synopsis_from_bytes(pristine[:payload_len])


class TestQuarantine:
    def test_corrupt_archive_is_quarantined_not_crashed(self, persisted):
        tmp_path, path = persisted
        pristine = path.read_bytes()
        rng = np.random.default_rng(17)
        for round_number in range(8):
            cut = int(rng.integers(0, len(pristine)))
            path.write_bytes(pristine[:cut])
            store = _store(tmp_path)  # fresh process: nothing cached
            with pytest.raises(ReleaseQuarantined, match="quarantined"):
                store.get(release_key())
            corpse = path.with_name(path.name + ".corrupt")
            assert corpse.exists(), f"round {round_number}: no quarantine file"
            assert store.stats.quarantined == 1
            assert release_key().slug() in store.to_payload()["quarantined"]
            # Quarantine is sticky and cheap: the next read does not
            # re-parse the corpse.
            with pytest.raises(ReleaseQuarantined):
                store.get(release_key())
            assert store.stats.quarantined == 1
            corpse.unlink()

    def test_rebuild_clears_quarantine(self, persisted):
        tmp_path, path = persisted
        path.write_bytes(path.read_bytes()[:100])
        store = _store(tmp_path)
        with pytest.raises(ReleaseQuarantined):
            store.get(release_key())
        synopsis, built = store.build(release_key())
        assert built
        assert store.to_payload()["quarantined"] == {}
        assert store.get(release_key()) is synopsis
        # The rebuilt archive is valid on disk for the next process.
        assert load_synopsis(path).total() == pytest.approx(synopsis.total())

    def test_http_flow_503_then_rebuild(
        self, persisted, make_service, start_server, call
    ):
        tmp_path, path = persisted
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        service = make_service(store_dir=tmp_path, dataset_budget=8.0)
        server = start_server(service)
        query = {**RELEASE, "rects": RECTS}

        status, body, _ = call(server, "/query", query)
        assert status == 503
        assert body["error"] == "ReleaseQuarantined"
        assert "rebuild" in body["detail"]

        status, body, _ = call(server, "/health")
        assert body["quarantined"] == 1

        status, body, _ = call(server, "/releases", RELEASE)
        assert status == 201  # rebuild-on-demand: budget allows it

        status, body, _ = call(server, "/query", query)
        assert status == 200
        assert len(body["estimates"]) == len(RECTS)
        status, body, _ = call(server, "/health")
        assert body["status"] == "ok"

    def test_crash_mid_archive_write_leaves_previous_archive(self, persisted):
        from repro.service import faultinject
        from repro.service.faultinject import SimulatedCrash

        tmp_path, path = persisted
        pristine = path.read_bytes()
        key = release_key()
        for point in ("archive.write", "archive.fsync", "archive.replace"):
            store = _store(tmp_path)
            faultinject.install(
                point, lambda **_: (_ for _ in ()).throw(SimulatedCrash(point))
            )
            with pytest.raises(SimulatedCrash):
                store.build(key, force=True)
            faultinject.clear(point)
            # The live archive is the complete previous version, and a
            # restart sweeps whatever temp debris the crash left.
            assert path.read_bytes() == pristine
            survivor = _store(tmp_path)
            assert list(tmp_path.glob("*.tmp")) == []
            assert survivor.get(key).total() == pytest.approx(
                synopsis_from_bytes(pristine).total()
            )


class TestArchiveTempFiles:
    def test_two_writers_of_one_archive_never_share_a_temp_file(self, persisted):
        """Writer A pauses before its rename while writer B writes the
        same archive whole; A's rename still finds its own temp file."""
        from repro.service import faultinject

        tmp_path, path = persisted
        key = release_key()
        first, second = _store(tmp_path), _store(tmp_path)
        paused, resume = threading.Event(), threading.Event()

        def pause_writer_a(**_):
            if threading.current_thread() is not threading.main_thread():
                paused.set()
                assert resume.wait(30)

        faultinject.install("archive.replace", pause_writer_a)
        with ThreadPoolExecutor(max_workers=1) as pool:
            writer_a = pool.submit(first.build, key, force=True)
            assert paused.wait(30)
            try:
                synopsis, built = second.build(key, force=True)
            finally:
                resume.set()
            assert built
            assert writer_a.result(timeout=30)[1]
        assert list(tmp_path.glob("*.tmp")) == []
        # Same key, same noise: both writers wrote the same archive.
        assert path.read_bytes() == synopsis_to_bytes(synopsis)

    def test_sweep_spares_the_temp_files_of_live_writers(self, tmp_path):
        """A store open removes temp files of this process, of dead
        processes and of no process, never those of a live one."""
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        live = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            temps = {
                "live": tmp_path / f"a.npz.{live.pid}-1.tmp",
                "dead": tmp_path / f"b.npz.{dead.pid}-1.tmp",
                "own": tmp_path / f"c.npz.{os.getpid()}-1.tmp",
                "old-style": tmp_path / "d.npz.tmp",
            }
            for temp in temps.values():
                temp.write_bytes(b"partial")
            _store(tmp_path)
            survivors = {name for name, temp in temps.items() if temp.exists()}
            assert survivors == {"live"}
        finally:
            live.kill()
            live.wait()

"""Unit tests for streaming ingestion: extend, drift, policy, epochs."""

import numpy as np
import pytest

from repro.datasets.registry import get_spec
from repro.service.ingest import IngestManager, _DriftTracker, _histogram
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

#: Small builds so the whole module stays fast.
N_POINTS = 1_000


def key(method="UG", epsilon=0.5, seed=0, dataset="storage"):
    return ReleaseKey(dataset, method, epsilon=epsilon, seed=seed)


def make_dataset(n=200, rng=0):
    return get_spec("storage").make(n=n, rng=rng)


def corner_points(n=400, rng_seed=7):
    """Points packed into the domain's low corner (maximal drift)."""
    bounds = make_dataset(n=10).domain.bounds
    rng = np.random.default_rng(rng_seed)
    return np.column_stack(
        [
            rng.uniform(bounds.x_lo, bounds.x_lo + 0.1 * (bounds.x_hi - bounds.x_lo), n),
            rng.uniform(bounds.y_lo, bounds.y_lo + 0.1 * (bounds.y_hi - bounds.y_lo), n),
        ]
    )


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def manager_over(tmp_path, **kwargs):
    store = SynopsisStore(
        store_dir=tmp_path, dataset_budget=4.0, n_points=N_POINTS
    )
    kwargs.setdefault("drift_threshold", 0.05)
    kwargs.setdefault("epoch_budget_fraction", 0.9)
    return store, IngestManager(store, **kwargs)


class TestDatasetExtend:
    def test_appends_after_existing_points_in_order(self):
        base = make_dataset(n=50)
        extra = corner_points(n=10)
        extended = base.extend(extra)
        assert extended.size == 60
        np.testing.assert_array_equal(extended.points[:50], base.points)
        np.testing.assert_array_equal(extended.points[50:], extra)

    def test_is_a_new_dataset(self):
        base = make_dataset(n=50)
        extended = base.extend(corner_points(n=5))
        assert base.size == 50  # untouched
        assert extended.domain is base.domain or (
            extended.domain.bounds == base.domain.bounds
        )

    def test_empty_extend_returns_self(self):
        base = make_dataset(n=50)
        assert base.extend(np.empty((0, 2))) is base

    def test_clips_out_of_domain_points(self):
        base = make_dataset(n=50)
        bounds = base.domain.bounds
        stray = np.array([[bounds.x_hi + 100.0, bounds.y_lo - 100.0]])
        extended = base.extend(stray)
        appended = extended.points[-1]
        assert appended[0] == pytest.approx(bounds.x_hi)
        assert appended[1] == pytest.approx(bounds.y_lo)

    def test_clip_false_rejects_out_of_domain(self):
        base = make_dataset(n=50)
        bounds = base.domain.bounds
        stray = np.array([[bounds.x_hi + 100.0, 0.0]])
        with pytest.raises(ValueError):
            base.extend(stray, clip=False)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_dataset(n=10).extend(np.zeros((3, 3)))


class TestDriftCells:
    @pytest.mark.parametrize("method", ["UG", "AG", "Quad", "Kst", "Hier"])
    def test_cells_cover_the_domain(self, method):
        from repro.service.keys import make_builder

        dataset = make_dataset(n=400)
        synopsis = make_builder(method).fit(
            dataset, 1.0, np.random.default_rng(0)
        )
        boxes = synopsis.drift_cells()
        assert boxes.ndim == 2 and boxes.shape[1] == 4
        assert len(boxes) <= 1024
        bounds = dataset.domain.bounds
        assert boxes[:, 0].min() == pytest.approx(bounds.x_lo)
        assert boxes[:, 1].min() == pytest.approx(bounds.y_lo)
        assert boxes[:, 2].max() == pytest.approx(bounds.x_hi)
        assert boxes[:, 3].max() == pytest.approx(bounds.y_hi)
        # Every interior point lands in at least one cell.
        points = dataset.points
        counted = _histogram(points, boxes).sum()
        assert counted == len(points)

    def test_max_cells_is_respected_by_the_default(self):
        from repro.service.keys import make_builder

        synopsis = make_builder("UG").fit(
            make_dataset(n=400), 1.0, np.random.default_rng(0)
        )
        assert len(synopsis.drift_cells(max_cells=9)) <= 9


class TestBuildRngSalt:
    def test_salt_zero_matches_unsalted(self):
        k = key()
        a = k.build_rng().standard_normal(8)
        b = k.build_rng(0).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_salt_changes_the_stream(self):
        k = key()
        a = k.build_rng().standard_normal(8)
        b = k.build_rng(400).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_same_salt_is_deterministic(self):
        k = key()
        np.testing.assert_array_equal(
            k.build_rng(400).standard_normal(8),
            k.build_rng(400).standard_normal(8),
        )


class TestDriftTracker:
    def _tracker(self):
        from repro.service.keys import make_builder

        synopsis = make_builder("UG").fit(
            make_dataset(n=400), 1.0, np.random.default_rng(0)
        )
        return _DriftTracker(key(), synopsis)

    def test_no_pending_means_zero_drift(self):
        tracker = self._tracker()
        assert tracker.drift() == 0.0
        assert tracker.oldest_age_ms(now=10.0) == 0.0

    def test_reference_is_a_distribution(self):
        tracker = self._tracker()
        assert tracker.reference.sum() == pytest.approx(1.0)
        assert (tracker.reference >= 0).all()

    def test_matching_fill_has_low_drift(self):
        tracker = self._tracker()
        tracker.add(make_dataset(n=400, rng=1).points, timestamp=1.0)
        low = tracker.drift()
        skew = self._tracker()
        skew.add(corner_points(400), timestamp=1.0)
        assert 0.0 <= low < skew.drift() <= 1.0

    def test_oldest_timestamp_tracks_the_minimum(self):
        tracker = self._tracker()
        tracker.add(corner_points(5), timestamp=5.0)
        tracker.add(corner_points(5), timestamp=2.0)  # late-arriving older
        tracker.add(corner_points(5), timestamp=9.0)
        assert tracker.oldest_timestamp == 2.0
        assert tracker.oldest_age_ms(now=3.0) == pytest.approx(1000.0)
        assert tracker.pending == 15

    def test_drift_is_total_variation(self):
        tracker = self._tracker()
        tracker.add(corner_points(100), timestamp=1.0)
        fill = tracker.fill / tracker.fill.sum()
        expected = 0.5 * np.abs(tracker.reference - fill).sum()
        assert tracker.drift() == pytest.approx(expected)


class TestManagerValidation:
    def test_threshold_ranges(self, tmp_path):
        store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS)
        with pytest.raises(ValueError, match="drift_threshold"):
            IngestManager(store, drift_threshold=1.5)
        with pytest.raises(ValueError, match="staleness_ms"):
            IngestManager(store, staleness_ms=-1)
        with pytest.raises(ValueError, match="epoch_budget_fraction"):
            IngestManager(store, epoch_budget_fraction=2.0)

    def test_in_memory_store_is_refused(self):
        """The WALs live in the store's directory; without one there is
        nowhere durable to stage a batch."""
        with pytest.raises(ValueError, match="persistent store directory"):
            IngestManager(SynopsisStore(n_points=N_POINTS))


class TestRefreshPolicy:
    def test_drifted_batch_triggers_refresh(self, tmp_path):
        store, manager = manager_over(tmp_path)
        store.build(key())
        report = manager.ingest("storage", 0, "b1", corner_points())
        assert report["refreshed"] == [key().slug()]
        assert report["refused"] == {}
        assert manager.stats.refreshes == 1
        # The new release is the current one; nothing is stale.
        assert manager.staleness(key()) is None

    def test_undrifted_batch_stays_pending(self, tmp_path):
        store, manager = manager_over(tmp_path, drift_threshold=0.9)
        store.build(key())
        # Points drawn from the release's own distribution: low drift.
        report = manager.ingest(
            "storage", 0, "b1", make_dataset(n=50, rng=2).points
        )
        assert report["refreshed"] == []
        stale = manager.staleness(key())
        assert stale["pending_points"] == 50
        assert stale["released_epoch"] == 0

    def test_cache_hit_build_reads_no_staged_points(self, tmp_path, monkeypatch):
        """A repeat build that returns the cached release takes no build
        context, so it copies none of the staged points."""
        store, manager = manager_over(tmp_path, drift_threshold=0.9)
        store.build(key())
        manager.ingest("storage", 0, "b1", make_dataset(n=50, rng=2).points)
        calls = []
        build_context = manager.build_context
        monkeypatch.setattr(
            manager,
            "build_context",
            lambda k: calls.append(k) or build_context(k),
        )
        assert store.build(key())[1] is False
        assert calls == []
        # A forced rebuild still reads the staged points.
        assert store.build(key(), force=True)[1] is True
        assert len(calls) == 1

    def test_staleness_clock_triggers_refresh(self, tmp_path):
        clock = FakeClock(1000.0)
        store, manager = manager_over(
            tmp_path,
            drift_threshold=1.0,  # drift alone can never trip (TV <= 1 strict here)
            staleness_ms=5_000.0,
            clock=clock,
        )
        store.build(key())
        # Young batch: drift gate closed, age gate closed.
        report = manager.ingest("storage", 0, "b1", corner_points(50))
        assert report["refreshed"] == []
        clock.now += 10.0  # 10 s later the batch is over the 5 s limit
        report = manager.ingest("storage", 0, "b2", corner_points(5, rng_seed=9))
        assert report["refreshed"] == [key().slug()]

    def test_ingest_without_release_stages_only(self, tmp_path):
        _, manager = manager_over(tmp_path)
        report = manager.ingest("storage", 0, "b1", corner_points())
        assert report["refreshed"] == [] and report["releases"] == []
        assert report["staged_points"] == 400

    def test_duplicate_batch_is_not_restaged(self, tmp_path):
        store, manager = manager_over(tmp_path, drift_threshold=0.9)
        store.build(key())
        first = manager.ingest("storage", 0, "b1", corner_points())
        again = manager.ingest("storage", 0, "b1", corner_points())
        assert first["duplicate"] is False
        assert again["duplicate"] is True
        assert again["staged_points"] == first["staged_points"] == 400
        assert manager.stats.duplicate_batches == 1

    def test_refresh_folds_staged_points_into_the_release(self, tmp_path):
        store, manager = manager_over(tmp_path)
        synopsis, _ = store.build(key())
        before = synopsis.total()
        manager.ingest("storage", 0, "b1", corner_points(400))
        after = store.get(key()).total()
        # The refreshed release saw n_points + 400 points; totals are
        # noisy, so only check it moved in the right ballpark.
        assert after > before
        assert after == pytest.approx(N_POINTS + 400, abs=0.3 * N_POINTS)


class TestEpochBudget:
    def test_fraction_caps_refresh_spend(self, tmp_path):
        # Budget 4.0; eps-0.5 release; fraction 0.2 -> cap 0.8: one
        # refresh fits, the second is refused.
        store, manager = manager_over(tmp_path, epoch_budget_fraction=0.2)
        store.build(key())
        first = manager.ingest("storage", 0, "b1", corner_points(400))
        assert first["refreshed"] == [key().slug()]
        second = manager.ingest(
            "storage", 0, "b2", corner_points(500, rng_seed=3)
        )
        assert second["refreshed"] == []
        assert key().slug() in second["refused"]
        assert "cap" in second["refused"][key().slug()]
        assert manager.stats.refresh_refusals == 1
        # Refusal surfaces in staleness until a refresh succeeds.
        stale = manager.staleness(key())
        assert stale["refresh_refused"]
        assert stale["pending_points"] == 500

    def test_refused_batch_is_still_durable(self, tmp_path):
        store, manager = manager_over(tmp_path, epoch_budget_fraction=0.0)
        store.build(key())
        report = manager.ingest("storage", 0, "b1", corner_points())
        assert key().slug() in report["refused"]
        assert report["staged_points"] == 400
        manager.close()
        # A restart replays the refused-but-staged batch.
        store2, manager2 = manager_over(tmp_path, epoch_budget_fraction=0.0)
        assert manager2.stats.replayed_batches == 1
        payload = manager2.to_payload()
        assert payload["datasets"]["storage|0"]["staged_points"] == 400

    def test_first_release_budget_is_protected(self, tmp_path):
        # The epoch cap binds only @e labels: refusing refreshes must
        # leave room for brand-new first releases.
        store, manager = manager_over(tmp_path, epoch_budget_fraction=0.2)
        store.build(key())
        manager.ingest("storage", 0, "b1", corner_points(400))
        manager.ingest("storage", 0, "b2", corner_points(500, rng_seed=3))
        # 0.5 (first) + 0.5 (one refresh) spent; 3.0 of 4.0 left.
        store.build(key(method="AG", epsilon=1.0))
        state = store.budget_state()["storage|0"]
        assert state["spent"] == pytest.approx(2.0)


class TestReplay:
    def test_replay_restores_staging_and_markers(self, tmp_path):
        store, manager = manager_over(tmp_path)
        store.build(key())
        manager.ingest("storage", 0, "b1", corner_points(400))
        # Close the drift gate so the second batch stays pending.
        manager.drift_threshold = 1.0
        manager.ingest("storage", 0, "b2", corner_points(30, rng_seed=3))
        manager.close()

        store2, manager2 = manager_over(tmp_path)
        assert manager2.stats.replayed_batches == 2
        assert manager2.stats.replayed_markers == 1
        assert manager2.stats.recovered_releases == 0
        payload = manager2.to_payload()
        dataset_state = payload["datasets"]["storage|0"]
        assert dataset_state["staged_points"] == 430
        assert dataset_state["markers"] == {key().slug(): 400}
        stale = manager2.staleness(key())
        assert stale["pending_points"] == 30

    def test_foreign_wal_files_are_ignored(self, tmp_path):
        (tmp_path / "notes.wal").write_bytes(b"not a log")
        (tmp_path / "noseed.wal").write_bytes(b"")
        store, manager = manager_over(tmp_path)
        assert manager.to_payload()["datasets"] == {}

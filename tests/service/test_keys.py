"""Unit tests for release keys and the method registry."""

import numpy as np
import pytest

from repro.core.uniform_grid import UniformGridBuilder
from repro.service.errors import ValidationError
from repro.service.keys import ReleaseKey, make_builder, method_names


class TestReleaseKey:
    def test_slug_round_trip(self):
        key = ReleaseKey("checkin", "AG", epsilon=0.5, seed=3)
        assert key.slug() == "checkin_AG_eps0.5_seed3"
        assert ReleaseKey.from_slug(key.slug()) == key

    def test_slug_round_trip_small_epsilon(self):
        key = ReleaseKey("storage", "UG", epsilon=0.01, seed=0)
        assert ReleaseKey.from_slug(key.slug()) == key

    def test_slug_is_collision_free_for_close_epsilons(self):
        # %g-style formatting would collapse these onto one filename.
        a = ReleaseKey("storage", "UG", epsilon=0.1234567, seed=0)
        b = ReleaseKey("storage", "UG", epsilon=0.1234568, seed=0)
        assert a.slug() != b.slug()
        assert ReleaseKey.from_slug(a.slug()) == a
        assert ReleaseKey.from_slug(b.slug()) == b

    def test_slug_round_trip_non_terminating_epsilon(self):
        key = ReleaseKey("storage", "UG", epsilon=1.0 / 3.0, seed=0)
        assert ReleaseKey.from_slug(key.slug()).epsilon == key.epsilon

    def test_int_and_float_epsilon_share_a_slug(self):
        assert (
            ReleaseKey("storage", "UG", epsilon=1, seed=0).slug()
            == ReleaseKey("storage", "UG", epsilon=1.0, seed=0).slug()
        )

    @pytest.mark.parametrize(
        "slug", ["nope", "a_b_c", "storage_AG_epsX_seed0", "storage_AG_eps1_seedX"]
    )
    def test_malformed_slug_rejected(self, slug):
        with pytest.raises(ValidationError):
            ReleaseKey.from_slug(slug)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValidationError, match="unknown dataset"):
            ReleaseKey("atlantis", "AG", epsilon=1.0, seed=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            ReleaseKey("storage", "MAGIC", epsilon=1.0, seed=0)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValidationError, match="epsilon"):
            ReleaseKey("storage", "AG", epsilon=0.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            ReleaseKey("storage", "AG", epsilon=1.0, seed=-1)

    def test_data_id_groups_by_dataset_instance(self):
        ag = ReleaseKey("storage", "AG", epsilon=1.0, seed=7)
        ug = ReleaseKey("storage", "UG", epsilon=0.5, seed=7)
        other = ReleaseKey("storage", "AG", epsilon=1.0, seed=8)
        assert ag.data_id == ug.data_id
        assert ag.data_id != other.data_id

    def test_build_rng_deterministic_and_stream_separated(self):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=4)
        again = ReleaseKey("storage", "AG", epsilon=1.0, seed=4)
        sibling = ReleaseKey("storage", "UG", epsilon=1.0, seed=4)
        assert key.build_rng().random() == again.build_rng().random()
        assert key.build_rng().random() != sibling.build_rng().random()

    def test_build_rng_independent_for_arbitrarily_close_epsilons(self):
        # Quantized entropy would give these two keys one shared noise
        # stream; correlated noise at two scales cancels and reveals the
        # exact sensitive counts (a real reconstruction attack).
        a = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        b = ReleaseKey("storage", "UG", epsilon=1.0 + 1e-10, seed=0)
        assert a.build_rng().random() != b.build_rng().random()

    def test_close_epsilon_releases_draw_independent_noise(self):
        """End-to-end: the two releases' noise must not cancel."""
        from repro.datasets.registry import load_dataset
        from repro.service.store import SynopsisStore

        eps_a, eps_b = 1.0, 1.0 + 1e-10
        store = SynopsisStore(n_points=2_000, dataset_budget=10.0)
        syn_a, _ = store.build(ReleaseKey("storage", "UG", eps_a, 0))
        syn_b, _ = store.build(ReleaseKey("storage", "UG", eps_b, 0))
        assert syn_a.grid_size == syn_b.grid_size
        exact = syn_a.layout.histogram(load_dataset("storage", 2_000, rng=0).points)
        # With a shared stream, scaled noises would be identical and
        # (b2*c1 - b1*c2)/(b2 - b1) would recover `exact` exactly.
        noise_a = (syn_a.counts - exact) * eps_a
        noise_b = (syn_b.counts - exact) * eps_b
        assert not np.allclose(noise_a, noise_b)

    def test_keys_are_hashable_and_orderable(self):
        keys = {
            ReleaseKey("storage", "AG", 1.0, 0),
            ReleaseKey("storage", "AG", 1.0, 0),
            ReleaseKey("storage", "UG", 1.0, 0),
        }
        assert len(keys) == 2
        assert sorted(keys)[0].method == "AG"


class TestMethodRegistry:
    def test_defaults_registered(self):
        assert {"AG", "UG"} <= set(method_names())

    def test_make_builder(self):
        builder = make_builder("UG")
        assert isinstance(builder, UniformGridBuilder)

    def test_make_builder_unknown(self):
        with pytest.raises(ValidationError, match="unknown method"):
            make_builder("nope")

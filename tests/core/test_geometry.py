"""Unit tests for repro.core.geometry."""

import numpy as np
import pytest

from repro.core.geometry import Domain2D, Rect, interval_overlap


class TestIntervalOverlap:
    def test_full_overlap(self):
        assert interval_overlap(0.0, 1.0, 0.0, 1.0) == 1.0

    def test_partial_overlap(self):
        assert interval_overlap(0.0, 1.0, 0.5, 2.0) == pytest.approx(0.5)

    def test_disjoint(self):
        assert interval_overlap(0.0, 1.0, 2.0, 3.0) == 0.0

    def test_touching_endpoints(self):
        assert interval_overlap(0.0, 1.0, 1.0, 2.0) == 0.0

    def test_containment(self):
        assert interval_overlap(0.0, 10.0, 2.0, 3.0) == pytest.approx(1.0)


class TestRectConstruction:
    def test_basic_properties(self):
        rect = Rect(1.0, 2.0, 4.0, 6.0)
        assert rect.width == 3.0
        assert rect.height == 4.0
        assert rect.area == 12.0
        assert rect.center == (2.5, 4.0)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Rect(0.0, 1.0, 1.0, 0.0)

    def test_degenerate_allowed(self):
        rect = Rect(1.0, 1.0, 1.0, 2.0)
        assert rect.width == 0.0
        assert rect.area == 0.0

    def test_from_center(self):
        rect = Rect.from_center(0.0, 0.0, 2.0, 4.0)
        assert rect.as_tuple() == (-1.0, -2.0, 1.0, 2.0)

    def test_from_size(self):
        rect = Rect.from_size(1.0, 2.0, 3.0, 4.0)
        assert rect.as_tuple() == (1.0, 2.0, 4.0, 6.0)

    def test_frozen(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            rect.x_lo = 5.0


class TestRectPredicates:
    def test_contains_point_interior(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.contains_point(0.5, 0.5)

    def test_contains_point_boundary(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.contains_point(0.0, 0.0)
        assert rect.contains_point(1.0, 1.0)

    def test_contains_point_outside(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert not rect.contains_point(1.5, 0.5)
        assert not rect.contains_point(0.5, -0.1)

    def test_contains_rect(self):
        outer = Rect(0.0, 0.0, 10.0, 10.0)
        inner = Rect(2.0, 2.0, 3.0, 3.0)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)

    def test_contains_rect_itself(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.contains_rect(rect)

    def test_intersects_partial(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(1.0, 1.0, 3.0, 3.0)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_touching_edge(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(1.0, 0.0, 2.0, 1.0)
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(2.0, 2.0, 3.0, 3.0)
        assert not a.intersects(b)
        assert a.intersection(b) is None


class TestRectIntersection:
    def test_intersection_area(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(1.0, 1.0, 3.0, 3.0)
        overlap = a.intersection(b)
        assert overlap == Rect(1.0, 1.0, 2.0, 2.0)
        assert a.overlap_area(b) == pytest.approx(1.0)

    def test_overlap_fraction(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(0.0, 0.0, 1.0, 2.0)
        assert a.overlap_fraction(b) == pytest.approx(0.5)
        assert b.overlap_fraction(a) == pytest.approx(1.0)

    def test_overlap_fraction_degenerate_self(self):
        line = Rect(0.5, 0.0, 0.5, 1.0)
        covering = Rect(0.0, 0.0, 1.0, 1.0)
        assert line.overlap_fraction(covering) == 1.0
        assert line.overlap_fraction(Rect(2.0, 2.0, 3.0, 3.0)) == 0.0

    def test_commutative_overlap_area(self):
        a = Rect(0.0, 0.0, 5.0, 3.0)
        b = Rect(2.5, 1.0, 9.0, 2.0)
        assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))


class TestRectTransforms:
    def test_expanded(self):
        rect = Rect(0.0, 0.0, 2.0, 2.0).expanded(1.0)
        assert rect.as_tuple() == (-1.0, -1.0, 3.0, 3.0)

    def test_shrunk(self):
        rect = Rect(0.0, 0.0, 4.0, 4.0).expanded(-1.0)
        assert rect.as_tuple() == (1.0, 1.0, 3.0, 3.0)

    def test_translated(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0).translated(2.0, -1.0)
        assert rect.as_tuple() == (2.0, -1.0, 3.0, 0.0)

    def test_mask(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        xs = np.array([0.5, 1.5, 0.0, 0.2])
        ys = np.array([0.5, 0.5, 1.0, -0.1])
        assert rect.mask(xs, ys).tolist() == [True, False, True, False]


class TestDomain2D:
    def test_requires_positive_extent(self):
        nan, inf = float("nan"), float("inf")
        for bounds in (
            (0.0, 0.0, 0.0, 1.0),
            (nan, 0.0, 1.0, 1.0),
            (0.0, 0.0, 1.0, nan),
            (-inf, 0.0, inf, 1.0),
            (0.0, 0.0, 1.0, inf),
        ):
            with pytest.raises(ValueError):
                Domain2D(*bounds)

    def test_unit(self):
        domain = Domain2D.unit()
        assert domain.width == 1.0
        assert domain.area == 1.0

    def test_equality_and_hash(self):
        assert Domain2D.unit() == Domain2D(0.0, 0.0, 1.0, 1.0)
        assert hash(Domain2D.unit()) == hash(Domain2D(0.0, 0.0, 1.0, 1.0))

    def test_clip_points(self):
        domain = Domain2D.unit()
        points = np.array([[2.0, -0.5], [0.5, 0.5]])
        clipped = domain.clip_points(points)
        assert clipped.tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_normalise_roundtrip(self, rng):
        domain = Domain2D(-10.0, 5.0, 30.0, 25.0)
        points = np.column_stack(
            [rng.uniform(-10, 30, 50), rng.uniform(5, 25, 50)]
        )
        unit = domain.normalise(points)
        assert unit.min() >= 0.0 and unit.max() <= 1.0
        back = domain.denormalise(unit)
        np.testing.assert_allclose(back, points, rtol=1e-12)

    def test_random_rect_fits(self, rng):
        domain = Domain2D(0.0, 0.0, 10.0, 5.0)
        for _ in range(50):
            rect = domain.random_rect(3.0, 2.0, rng)
            assert domain.bounds.contains_rect(rect)
            assert rect.width == pytest.approx(3.0)
            assert rect.height == pytest.approx(2.0)

    def test_random_rect_too_large(self, rng):
        domain = Domain2D.unit()
        with pytest.raises(ValueError):
            domain.random_rect(2.0, 0.5, rng)

    def test_fraction(self):
        domain = Domain2D(0.0, 0.0, 10.0, 10.0)
        assert domain.fraction(Rect(0.0, 0.0, 5.0, 5.0)) == pytest.approx(0.25)
        # Clipped: the rect sticks out of the domain.
        assert domain.fraction(Rect(5.0, 5.0, 15.0, 15.0)) == pytest.approx(0.25)

    def test_clip_rect_outside(self):
        domain = Domain2D.unit()
        assert domain.clip_rect(Rect(2.0, 2.0, 3.0, 3.0)) is None

"""Property tests for the level-synchronous tree builder.

``KDTreeBuilder.fit`` (one vectorised pass per level; Quad, Kst and Khy
inherit it) must be **bit-identical** to the per-node level-order oracle
in ``tests/oracles/trees.py`` on small random datasets.  The inputs hold
duplicate coordinates, points exactly on midpoint split lines and on the
uniformity split's candidate lines, and empty nodes; the configurations
cover ``min_split_count`` 0, moderate and large, every ``quadtree_levels``
from 0 to ``depth``, both split strategies, zero and positive median
budget, and inference on and off.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.baselines.kd_tree import KDTreeBuilder
from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D
from tests.oracles.trees import fit_level_oracle

#: Coordinates on the unit square that split lines hit: dyadic midpoints
#: of every quadrant level, and the root's uniformity candidates.
_ON_LINES = sorted(
    set(np.arange(17) / 16.0) | set(np.linspace(0.0, 1.0, 34).tolist())
)
coordinates = st.one_of(
    st.sampled_from(_ON_LINES),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def datasets(draw) -> GeoDataset:
    """Up to 40 points; some repeated whole, many sharing one coordinate."""
    points = draw(st.lists(st.tuples(coordinates, coordinates), max_size=30))
    repeats = draw(st.lists(st.integers(0, 29), max_size=10))
    points += [points[i] for i in repeats if i < len(points)]
    return GeoDataset(np.array(points, dtype=float).reshape(-1, 2), Domain2D.unit())


@st.composite
def builders(draw) -> KDTreeBuilder:
    depth = draw(st.integers(1, 4))
    return KDTreeBuilder(
        depth=depth,
        quadtree_levels=draw(st.integers(0, depth)),
        median_fraction=draw(st.sampled_from([0.0, 0.3])),
        geometric_budget=draw(st.booleans()),
        constrained_inference=draw(st.booleans()),
        min_split_count=draw(st.sampled_from([0.0, 4.0, 1e9])),
        split_strategy=draw(st.sampled_from(["median", "uniformity"])),
    )


@settings(max_examples=150, deadline=None)
@given(
    dataset=datasets(),
    builder=builders(),
    epsilon=st.sampled_from([0.5, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_bit_identical_to_level_oracle(dataset, builder, epsilon, seed):
    flat = builder.fit(dataset, epsilon, np.random.default_rng(seed)).arrays
    oracle = fit_level_oracle(
        builder, dataset, epsilon, np.random.default_rng(seed)
    ).arrays
    flat.validate()
    oracle.validate()
    for name in (
        "rects", "depths", "child_offsets", "noisy_counts", "variances",
        "counts", "level_offsets",
    ):
        a, b = getattr(flat, name), getattr(oracle, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)

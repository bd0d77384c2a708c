"""Property-based tests for constrained inference invariants."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.hierarchy import block_sum, hierarchy_inference
from tests.oracles.adaptive_grid import two_level_inference
from tests.oracles.inference import CountNode, infer_tree

counts = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
variances = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


@st.composite
def random_trees(draw, max_depth: int = 3) -> CountNode:
    """A random tree where every node carries a measurement."""
    depth = draw(st.integers(min_value=0, max_value=max_depth))

    def build(level: int) -> CountNode:
        node = CountNode(
            noisy_count=draw(counts), variance=draw(variances)
        )
        if level > 0:
            n_children = draw(st.integers(min_value=2, max_value=3))
            node.children = [build(level - 1) for _ in range(n_children)]
        return node

    return build(depth)


@settings(max_examples=80)
@given(random_trees())
def test_inference_yields_consistent_tree(root: CountNode):
    infer_tree(root)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            child_sum = sum(child.inferred_count for child in node.children)
            assert node.inferred_count == pytest.approx(
                child_sum, rel=1e-6, abs=1e-6
            )
            stack.extend(node.children)


@settings(max_examples=80)
@given(random_trees())
def test_inference_preserves_consistent_input(root: CountNode):
    """If measurements are already consistent, inference changes nothing."""
    # Overwrite measurements bottom-up so every parent equals its children.
    def make_consistent(node: CountNode) -> float:
        if node.is_leaf:
            return float(node.noisy_count)
        total = sum(make_consistent(child) for child in node.children)
        node.noisy_count = total
        return total

    make_consistent(root)
    infer_tree(root)
    stack = [root]
    while stack:
        node = stack.pop()
        assert node.inferred_count == pytest.approx(
            node.noisy_count, rel=1e-6, abs=1e-6
        )
        stack.extend(node.children)


@settings(max_examples=80)
@given(
    counts,
    st.lists(counts, min_size=1, max_size=25),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_two_level_inference_consistency(parent, leaves, alpha):
    leaves = np.asarray(leaves)
    combined, adjusted = two_level_inference(parent, leaves, alpha)
    assert adjusted.sum() == pytest.approx(combined, rel=1e-9, abs=1e-7)


@settings(max_examples=80)
@given(
    counts,
    st.lists(counts, min_size=2, max_size=16),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_two_level_inference_between_estimates(parent, leaves, alpha):
    """The combined total lies between the two raw estimates."""
    leaves = np.asarray(leaves)
    combined, _ = two_level_inference(parent, leaves, alpha)
    lo = min(parent, leaves.sum())
    hi = max(parent, leaves.sum())
    assert lo - 1e-7 <= combined <= hi + 1e-7


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hierarchy_inference_consistency(levels_below, branching, base, rank, seed):
    """Array inference keeps every adjacent level pair consistent, for
    1-D histogram stacks and 2-D grid stacks alike."""
    rng = np.random.default_rng(seed)
    leaf_size = base * branching**levels_below
    leaf = rng.random((leaf_size,) * rank) * 20
    noisy_levels = []
    for level in range(levels_below + 1):
        factor = branching ** (levels_below - level)
        exact = block_sum(leaf, factor) if factor > 1 else leaf
        noisy_levels.append(exact + rng.normal(0, 1, size=exact.shape))
    inferred = hierarchy_inference(
        noisy_levels, [2.0] * (levels_below + 1), branching
    )
    for upper, lower in zip(inferred, inferred[1:]):
        np.testing.assert_allclose(block_sum(lower, branching), upper, rtol=1e-8)


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hierarchy_single_level_is_identity(size, seed):
    rng = np.random.default_rng(seed)
    noisy = rng.random((size, size))
    out = hierarchy_inference([noisy], [1.0], branching=2)
    np.testing.assert_array_equal(out[0], noisy)

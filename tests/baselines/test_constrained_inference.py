"""Unit tests for generic constrained inference (Hay et al.)."""

import math

import numpy as np
import pytest

from tests.oracles.inference import CountNode, infer_tree


def make_binary_tree(depth: int, leaf_value: float, variance: float) -> CountNode:
    """A complete binary tree whose measurements all equal the true values."""
    if depth == 0:
        return CountNode(noisy_count=leaf_value, variance=variance)
    children = [
        make_binary_tree(depth - 1, leaf_value, variance) for _ in range(2)
    ]
    total = leaf_value * (2**depth)
    return CountNode(noisy_count=total, variance=variance, children=children)


class TestTreeStructure:
    def test_subtree_size(self):
        tree = make_binary_tree(3, 1.0, 1.0)
        assert tree.subtree_size() == 15

    def test_leaves_in_order(self):
        left = CountNode(1.0, 1.0)
        right = CountNode(2.0, 1.0)
        root = CountNode(3.0, 1.0, children=[left, right])
        assert root.leaves() == [left, right]

    def test_is_leaf(self):
        assert CountNode(1.0, 1.0).is_leaf
        assert not CountNode(1.0, 1.0, children=[CountNode(0.0, 1.0)]).is_leaf


class TestConsistency:
    def test_parent_equals_child_sum(self, rng):
        root = make_binary_tree(4, 2.0, 1.0)
        # Perturb the measurements so inference has work to do.
        for node in _walk(root):
            node.noisy_count += rng.normal(0.0, 1.0)
        infer_tree(root)
        for node in _walk(root):
            if not node.is_leaf:
                child_sum = sum(c.inferred_count for c in node.children)
                assert node.inferred_count == pytest.approx(child_sum)

    def test_already_consistent_unchanged(self):
        """If all measurements agree, inference is the identity."""
        root = make_binary_tree(3, 5.0, 1.0)
        infer_tree(root)
        for node in _walk(root):
            assert node.inferred_count == pytest.approx(node.noisy_count)

    def test_unmeasured_internal_node(self):
        """Nodes without measurements inherit their children's sum."""
        leaves = [CountNode(3.0, 1.0), CountNode(7.0, 1.0)]
        root = CountNode(noisy_count=None, variance=math.inf, children=leaves)
        infer_tree(root)
        assert root.inferred_count == pytest.approx(10.0)
        assert leaves[0].inferred_count == pytest.approx(3.0)

    def test_leaf_without_measurement_rejected(self):
        root = CountNode(None, math.inf)
        with pytest.raises(ValueError):
            infer_tree(root)


class TestWeighting:
    def test_two_level_matches_closed_form(self):
        """Binary parent + 2 leaves: z = WLS closed form."""
        parent_var, leaf_var = 2.0, 2.0
        leaves = [CountNode(4.0, leaf_var), CountNode(8.0, leaf_var)]
        root = CountNode(10.0, parent_var, children=leaves)
        infer_tree(root)
        # children's sum = 12 (variance 4), own = 10 (variance 2).
        expected_root = (4.0 * 10.0 + 2.0 * 12.0) / 6.0
        assert root.inferred_count == pytest.approx(expected_root)

    def test_low_variance_measurement_dominates(self):
        leaves = [CountNode(0.0, 1000.0), CountNode(0.0, 1000.0)]
        root = CountNode(100.0, 1e-6, children=leaves)
        infer_tree(root)
        assert root.inferred_count == pytest.approx(100.0, abs=0.1)
        # The residual is split equally (equal child variances).
        assert leaves[0].inferred_count == pytest.approx(50.0, abs=0.1)

    def test_heterogeneous_child_variances(self):
        """Residual distribution is proportional to the child z-variances."""
        precise = CountNode(10.0, 1.0)
        noisy = CountNode(10.0, 9.0)
        root = CountNode(40.0, 1e-9, children=[precise, noisy])
        infer_tree(root)
        # Residual of 20 split 1:9 between the children.
        assert precise.inferred_count == pytest.approx(12.0, abs=0.01)
        assert noisy.inferred_count == pytest.approx(28.0, abs=0.01)


class TestVarianceReduction:
    def test_leaf_error_shrinks(self, rng):
        """Monte-Carlo: inferred leaves have lower MSE than raw leaves."""
        depth, truth_leaf = 3, 10.0
        raw_sq, inferred_sq = [], []
        for _ in range(400):
            root = make_binary_tree(depth, truth_leaf, variance=2.0)
            for node in _walk(root):
                node.noisy_count += rng.normal(0.0, math.sqrt(2.0))
            infer_tree(root)
            for leaf in root.leaves():
                raw_sq.append((leaf.noisy_count - truth_leaf) ** 2)
                inferred_sq.append((leaf.inferred_count - truth_leaf) ** 2)
        assert np.mean(inferred_sq) < 0.9 * np.mean(raw_sq)

    def test_root_error_shrinks(self, rng):
        depth = 3
        truth_root = 10.0 * 2**depth
        raw_sq, inferred_sq = [], []
        for _ in range(400):
            root = make_binary_tree(depth, 10.0, variance=2.0)
            for node in _walk(root):
                node.noisy_count += rng.normal(0.0, math.sqrt(2.0))
            infer_tree(root)
            raw_sq.append((root.noisy_count - truth_root) ** 2)
            inferred_sq.append((root.inferred_count - truth_root) ** 2)
        assert np.mean(inferred_sq) < np.mean(raw_sq)


def _walk(node: CountNode):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children)

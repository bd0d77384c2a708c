"""The recursive reference for constrained inference (Hay et al., VLDB 2010).

:func:`infer_tree` runs the two passes of
:mod:`repro.baselines.constrained_inference` over a :class:`CountNode`
object graph, one Python call per node: the upward pass combines each
node's own measurement with its children's ``z`` sum by inverse-variance
weighting, the downward pass distributes each parent's residual over its
children in proportion to their ``z``-variances.  The array kernels
must reproduce it: :func:`~repro.baselines.constrained_inference.
infer_level_order` bit for bit (its per-parent gathers add in the same
sequential order as the Python ``sum`` here), and
:func:`~repro.baselines.hierarchy.hierarchy_inference` to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CountNode", "infer_tree"]


@dataclass
class CountNode:
    """A node in a hierarchy of noisy counts.

    Attributes
    ----------
    noisy_count:
        The node's own Laplace-noised measurement, or ``None`` when this
        node was not measured (e.g. internal KD nodes whose budget was spent
        elsewhere).
    variance:
        Variance of ``noisy_count`` (``2 / eps_v^2`` for the Laplace
        mechanism).  Ignored when ``noisy_count`` is ``None``.
    children:
        Sub-nodes whose true counts sum to this node's true count.
    inferred_count:
        Output slot: the consistent least-squares estimate, populated by
        :func:`infer_tree`.
    """

    noisy_count: float | None
    variance: float = math.inf
    children: list["CountNode"] = field(default_factory=list)
    inferred_count: float = 0.0

    # Internal two-pass state.
    _z: float = field(default=0.0, repr=False)
    _z_variance: float = field(default=math.inf, repr=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return 1 + sum(child.subtree_size() for child in self.children)

    def leaves(self) -> list["CountNode"]:
        """All leaf nodes, in left-to-right order."""
        if self.is_leaf:
            return [self]
        collected: list[CountNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                collected.append(node)
            else:
                stack.extend(reversed(node.children))
        return collected


def _combine(
    own_count: float | None,
    own_variance: float,
    children_sum: float,
    children_variance: float,
) -> tuple[float, float]:
    """Inverse-variance combination of a node's two count estimates."""
    has_own = own_count is not None and math.isfinite(own_variance)
    has_children = math.isfinite(children_variance)
    if has_own and has_children:
        weight_own = children_variance / (own_variance + children_variance)
        combined = weight_own * own_count + (1.0 - weight_own) * children_sum
        variance = own_variance * children_variance / (own_variance + children_variance)
        return combined, variance
    if has_own:
        return float(own_count), own_variance
    if has_children:
        return children_sum, children_variance
    raise ValueError(
        "node has neither a measurement nor measured descendants; "
        "its count is unidentifiable"
    )


def _upward(node: CountNode) -> None:
    """Post-order pass computing subtree-only estimates z and their variances."""
    stack: list[tuple[CountNode, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if current.is_leaf:
            if current.noisy_count is None or not math.isfinite(current.variance):
                raise ValueError("leaf nodes must carry a measurement")
            current._z = float(current.noisy_count)
            current._z_variance = current.variance
            continue
        if not expanded:
            stack.append((current, True))
            for child in current.children:
                stack.append((child, False))
            continue
        children_sum = sum(child._z for child in current.children)
        children_variance = sum(child._z_variance for child in current.children)
        current._z, current._z_variance = _combine(
            current.noisy_count, current.variance, children_sum, children_variance
        )


def _downward(root: CountNode) -> None:
    """Pre-order pass distributing residuals from parents to children."""
    root.inferred_count = root._z
    stack = [root]
    while stack:
        parent = stack.pop()
        if parent.is_leaf:
            continue
        children = parent.children
        z_sum = sum(child._z for child in children)
        variance_sum = sum(child._z_variance for child in children)
        residual = parent.inferred_count - z_sum
        for child in children:
            share = child._z_variance / variance_sum if variance_sum > 0 else (
                1.0 / len(children)
            )
            child.inferred_count = child._z + share * residual
            stack.append(child)


def infer_tree(root: CountNode) -> None:
    """Run constrained inference in place on the tree rooted at ``root``.

    After the call every node's :attr:`CountNode.inferred_count` holds the
    consistent weighted-least-squares estimate: each parent's inferred count
    equals the sum of its children's, and leaves have no more variance than
    their raw measurements.
    """
    _upward(root)
    _downward(root)

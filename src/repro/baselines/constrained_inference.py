"""Constrained inference for hierarchical noisy counts (Hay et al., VLDB 2010).

A hierarchy measures each region at several levels: a node's true count
equals the sum of its children's true counts, but the *noisy* counts are
mutually inconsistent.  Constrained inference computes the least-squares
estimate that (a) is consistent on the tree and (b) has minimum variance
among linear unbiased estimators.

This module implements the general two-pass algorithm for arbitrary trees
and **heterogeneous noise variances** (needed because KD-hybrid allocates
budget geometrically across levels, so each level has a different variance):

* **Upward pass** — compute ``z[v]``, the best estimate of ``v``'s count
  using only measurements in ``v``'s subtree, by inverse-variance weighting
  of ``v``'s own measurement against the sum of its children's ``z`` values.
* **Downward pass** — set ``u[root] = z[root]`` and push each node's final
  estimate down, distributing the residual between a parent and its
  children proportionally to the children's ``z``-variances (which yields
  the exact weighted-least-squares solution on trees).

Nodes without a measurement of their own (``variance = inf``) are handled
naturally: their ``z`` is just the children's sum.

:func:`infer_level_order` runs those passes over the flat
BFS-level-order layout of :class:`~repro.baselines.tree.TreeArrays`
(noisy counts, variances, CSR child offsets, level offsets).  Each pass
walks the *levels*, not the nodes: children sums are gathered per parent
with ``child_offsets[v] + arange(k)`` arithmetic grouped by child count,
so one level costs a fixed number of numpy calls.  The per-parent gather
sums use sequential left-to-right addition, like a Python ``sum`` (numpy
only switches to pairwise blocking above 128 addends; fan-outs here are
2 or 4), so the result is bit-identical to the recursive one-call-per-node
reference in ``tests/oracles/inference.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["infer_level_order"]


def _children_sums(
    values_pair: "tuple[np.ndarray, np.ndarray]",
    child_offsets: np.ndarray,
    n_children: np.ndarray,
    parents: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-parent sums of two value arrays over each parent's child range.

    Parents are grouped by fan-out so each group is one ``(g, k)`` gather
    index, shared by both value arrays, summed along the last axis.
    ``k`` never exceeds numpy's pairwise blocking threshold in practice
    (quadtree fan-out is 4), so the addition order matches a sequential
    Python ``sum`` bit for bit.
    """
    first, second = values_pair
    out_first = np.empty(parents.size)
    out_second = np.empty(parents.size)
    fan_outs = n_children[parents]
    for k in np.unique(fan_outs):
        group = fan_outs == k
        rows = parents[group]
        gather = child_offsets[rows][:, None] + np.arange(k)[None, :]
        out_first[group] = first[gather].sum(axis=1)
        out_second[group] = second[gather].sum(axis=1)
    return out_first, out_second


def infer_level_order(
    noisy_counts: np.ndarray,
    variances: np.ndarray,
    child_offsets: np.ndarray,
    level_offsets: np.ndarray,
) -> np.ndarray:
    """Constrained inference over a flat BFS-level-order tree.

    ``noisy_counts[v]`` is node ``v``'s measurement (``NaN`` when
    unmeasured), ``variances[v]`` its noise variance (``inf`` treated as
    unmeasured),
    ``child_offsets`` the CSR child ranges (children of ``v`` are nodes
    ``child_offsets[v]:child_offsets[v + 1]``), and ``level_offsets`` the
    per-level slab bounds (level ``l`` is ``level_offsets[l]:
    level_offsets[l + 1]``; node 0 is the root).  Returns the consistent
    weighted-least-squares estimate per node, bit-identical to the
    recursive reference on the equivalent object graph.
    """
    noisy_counts = np.asarray(noisy_counts, dtype=float)
    variances = np.asarray(variances, dtype=float)
    child_offsets = np.asarray(child_offsets, dtype=np.int64)
    level_offsets = np.asarray(level_offsets, dtype=np.int64)
    n = noisy_counts.size
    if n == 0:
        raise ValueError("tree must have at least one node")
    n_children = child_offsets[1:] - child_offsets[:-1]
    is_leaf = n_children == 0
    measured = ~np.isnan(noisy_counts) & np.isfinite(variances)
    if not measured[is_leaf].all():
        raise ValueError("leaf nodes must carry a measurement")

    z = np.empty(n)
    z_variance = np.empty(n)
    z[is_leaf] = noisy_counts[is_leaf]
    z_variance[is_leaf] = variances[is_leaf]

    n_levels = level_offsets.size - 1
    internal_by_level: list[np.ndarray] = [
        np.flatnonzero(~is_leaf[level_offsets[l] : level_offsets[l + 1]])
        + level_offsets[l]
        for l in range(n_levels)
    ]

    # Upward pass, deepest internal level first: combine each parent's own
    # measurement with its children's z by inverse-variance weighting
    # (both measured, own only, or children only, as the reference).  The
    # per-level children sums are kept: the downward pass distributes
    # residuals against exactly these values (z is not modified between
    # the passes), so it never re-gathers them.
    sums_by_level: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for level in range(n_levels - 2, -1, -1):
        parents = internal_by_level[level]
        if parents.size == 0:
            continue
        children_sum, children_variance = _children_sums(
            (z, z_variance), child_offsets, n_children, parents
        )
        sums_by_level[level] = (children_sum, children_variance)
        own = noisy_counts[parents]
        own_variance = variances[parents]
        has_own = measured[parents]
        has_children = np.isfinite(children_variance)
        neither = ~has_own & ~has_children
        if neither.any():
            raise ValueError(
                "node has neither a measurement nor measured descendants; "
                "its count is unidentifiable"
            )
        combined = np.where(has_own, own, children_sum)
        combined_variance = np.where(has_own, own_variance, children_variance)
        both = has_own & has_children
        if both.any():
            weight_own = children_variance[both] / (
                own_variance[both] + children_variance[both]
            )
            combined[both] = (
                weight_own * own[both] + (1.0 - weight_own) * children_sum[both]
            )
            combined_variance[both] = (
                own_variance[both]
                * children_variance[both]
                / (own_variance[both] + children_variance[both])
            )
        z[parents] = combined
        z_variance[parents] = combined_variance

    # Downward pass, root first: each parent's residual against its
    # children's z-sum is distributed proportionally to z-variances
    # (equal shares when the variance sum is zero, like the reference).
    inferred = np.empty(n)
    inferred[0] = z[0]
    for level in range(n_levels - 1):
        parents = internal_by_level[level]
        if parents.size == 0:
            continue
        z_sum, variance_sum = sums_by_level[level]
        residual = inferred[parents] - z_sum
        fan_out = n_children[parents]
        # Children of level-l parents are exactly the level-(l+1) slab, in
        # order (leaves contribute empty ranges), so the repeat lines up.
        c_lo, c_hi = level_offsets[level + 1], level_offsets[level + 2]
        residual_rep = np.repeat(residual, fan_out)
        variance_sum_rep = np.repeat(variance_sum, fan_out)
        fan_out_rep = np.repeat(fan_out, fan_out)
        z_child = z[c_lo:c_hi]
        positive = variance_sum_rep > 0
        share = np.where(
            positive,
            z_variance[c_lo:c_hi] / np.where(positive, variance_sum_rep, 1.0),
            1.0 / fan_out_rep,
        )
        inferred[c_lo:c_hi] = z_child + share * residual_rep
    return inferred

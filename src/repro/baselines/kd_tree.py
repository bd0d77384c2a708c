"""Private KD-tree baselines (Cormode et al., ICDE 2012).

The paper compares against two recursive-partitioning methods:

* **KD-standard** (``Kst``) — a KD-tree of fixed height.  At every internal
  node the split coordinate is a noisy median of the node's points along
  the splitting dimension (alternating x / y), drawn with the exponential
  mechanism over the node's extent; a share of the budget pays for the
  medians and the rest is split uniformly across levels for noisy counts.
  No constrained inference.
* **KD-hybrid** (``Khy``) — Cormode et al.'s best configuration: the first
  few levels split at region midpoints like a quadtree (free: no data-
  dependent choice), deeper levels use noisy medians; count budget is
  allocated *geometrically* across levels (more to the leaves), and
  constrained inference is applied over the tree.

Both release a :class:`~repro.baselines.tree.TreeSynopsis`.

Budget accounting: nodes at one tree level have disjoint regions, so both
the per-level count histograms and the per-level median selections fall
under parallel composition and are charged once per level.

The private median is Cormode et al.'s: the exponential mechanism with
the rank-distance utility ``-|rank - n/2|`` (sensitivity 1) over the
node's whole extent, not over its points.  Each interval between
consecutive coordinates is weighted by its length and the split is drawn
uniformly inside the chosen one, so a split is never a data coordinate
and an empty node is uniform over its extent.

Build: :meth:`KDTreeBuilder.fit` fits one tree level per vectorised pass
and writes the release straight in BFS level order.  Per level it draws,
in this order, one Laplace vector for the counts of all the level's
nodes, then the split draws of the nodes that split: one standard
exponential per median interval of every splitting node (its negative log
is the Gumbel noise of a Gumbel-max pick) followed by one uniform per node
(``"median"``), or one ``(m, 32)`` Gumbel matrix (``"uniformity"``);
midpoint levels draw nothing.  Quadrant levels keep one node id per
point.  kd levels keep one int32 point order per axis, in which each
node is a contiguous segment (Wald & Havran, "On building fast kd-trees
for ray tracing, and on doing that in O(N log N)", 2006): a split along
one axis leaves each child's order on that axis a prefix or suffix of
its parent's, and the other axis's order is stably partitioned by a
cumulative sum.  ``tests/oracles/trees.py`` holds the per-node
reference build that the equivalence tests pin ``fit`` to, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.tree import (
    TreeArrays,
    TreeSynopsis,
    apply_tree_inference_arrays,
)
from repro.core.dataset import GeoDataset
from repro.core.synopsis import SynopsisBuilder
from repro.privacy.budget import PrivacyBudget
from repro.privacy.composition import geometric_allocation, uniform_allocation
from repro.privacy.mechanisms import ensure_rng, laplace_noise, laplace_scale

__all__ = ["KDTreeBuilder", "KDStandardBuilder", "KDHybridBuilder", "default_tree_depth"]


def default_tree_depth(n_points: int, epsilon: float = 1.0) -> int:
    """A KD-tree height comparable to the implementations the paper cites.

    The paper notes that recursive methods commonly reach ~16 levels for one
    million points; ``log2(N * eps) - 3`` reproduces that scale at
    ``eps = 1`` and is clamped to [4, 16].  Scaling with the *budget-
    weighted* count follows Cormode et al.'s guidance: at small ``N * eps``
    deep trees dilute the per-level budget into pure noise, so the tree
    should be shallower.
    """
    effective = max(2.0, n_points * epsilon)
    return int(min(16, max(4, math.floor(math.log2(effective)) - 3)))


class KDTreeBuilder(SynopsisBuilder):
    """Configurable private KD-tree; the named baselines are presets.

    Parameters
    ----------
    depth:
        Total tree height (number of split levels).  ``None`` derives it
        from the dataset size via :func:`default_tree_depth`.
    quadtree_levels:
        How many top levels split at region midpoints into four quadrants
        (the "hybrid" part).  0 gives a pure KD-tree.
    median_fraction:
        Fraction of the budget reserved for exponential-mechanism medians,
        split uniformly over the KD (non-quadtree) internal levels.
    geometric_budget:
        When ``True``, count budget grows geometrically toward the leaves
        with ratio ``2^(1/3)`` (Cormode et al.'s optimised allocation);
        otherwise it is uniform per level.
    constrained_inference:
        Apply Hay-et-al inference over the released tree.
    min_split_count:
        Stop splitting a node whose *noisy* count falls below this
        threshold (data-dependent stopping must use noisy counts to remain
        private).
    split_strategy:
        ``"median"`` (Cormode et al.: exponential-mechanism noisy median)
        or ``"uniformity"`` (after Xiao et al., VLDB SDM 2010: prefer the
        split whose halves are closest to internally uniform, selected
        with the exponential mechanism over 32 equi-width candidate
        positions using the mass balance utility
        ``-(|c1 - c2| + |c3 - c4|)``, where ``c1, c2`` are the lower
        half's two quarter-counts and ``c3, c4`` the upper half's.
        Adding or removing one tuple changes one quarter-count by one, so
        the utility's sensitivity is 1).
    """

    name = "KD-tree"

    _SPLIT_STRATEGIES = ("median", "uniformity")
    _UNIFORMITY_CANDIDATES = 32

    def __init__(
        self,
        depth: int | None = None,
        quadtree_levels: int = 0,
        median_fraction: float = 0.25,
        geometric_budget: bool = False,
        constrained_inference: bool = False,
        min_split_count: float = 16.0,
        split_strategy: str = "median",
    ):
        if split_strategy not in self._SPLIT_STRATEGIES:
            raise ValueError(
                f"split_strategy must be one of {self._SPLIT_STRATEGIES}, "
                f"got {split_strategy!r}"
            )
        if depth is not None and depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if quadtree_levels < 0:
            raise ValueError(f"quadtree_levels must be >= 0, got {quadtree_levels}")
        if not 0.0 <= median_fraction < 1.0:
            raise ValueError(
                f"median_fraction must be in [0, 1), got {median_fraction}"
            )
        self.depth = depth
        self.quadtree_levels = quadtree_levels
        self.median_fraction = median_fraction
        self.geometric_budget = geometric_budget
        self.constrained_inference = constrained_inference
        self.min_split_count = min_split_count
        self.split_strategy = split_strategy

    def label(self) -> str:
        return self.name

    def _allocate_budgets(
        self,
        dataset: GeoDataset,
        epsilon: float,
        budget: PrivacyBudget,
    ) -> tuple[int, list[float], list[float]]:
        """Resolve the tree depth and spend the per-level budgets.

        Returns ``(depth, count_epsilons, median_epsilons)``.
        """
        depth = (
            self.depth
            if self.depth is not None
            else default_tree_depth(dataset.size, epsilon)
        )
        kd_levels = max(0, depth - self.quadtree_levels)
        median_epsilon_total = epsilon * self.median_fraction if kd_levels else 0.0
        count_epsilon_total = epsilon - median_epsilon_total

        # Per-level count budgets: levels 0 (root) .. depth (leaves).
        n_count_levels = depth + 1
        if self.geometric_budget:
            count_epsilons = geometric_allocation(count_epsilon_total, n_count_levels)
        else:
            count_epsilons = uniform_allocation(count_epsilon_total, n_count_levels)

        # Per-level median budgets for the KD levels only.
        median_epsilons = [0.0] * depth
        if kd_levels and median_epsilon_total > 0.0:
            per_level = median_epsilon_total / kd_levels
            for level in range(self.quadtree_levels, depth):
                median_epsilons[level] = per_level

        for level, eps in enumerate(count_epsilons):
            budget.spend(eps, f"counts level {level} (parallel over nodes)")
        for level, eps in enumerate(median_epsilons):
            if eps > 0.0:
                budget.spend(eps, f"medians level {level} (parallel over nodes)")
        return depth, count_epsilons, median_epsilons

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> TreeSynopsis:
        """Build the release one tree level per vectorised pass.

        Each level draws one Laplace vector for all its nodes; a node
        splits while ``level < depth`` and its noisy count is at least
        ``min_split_count``.  The children of every splitting node are
        computed as arrays and appended as the next level, so the release
        is written straight in BFS level order.  A point on a shared child
        edge goes to the first child whose closed rect holds it: the lower
        child of an axis split, and quadrant ``(x > cx) + 2 * (y > cy)``
        of a midpoint split.  See the module docstring for the per-level
        draw order.
        """
        rng = ensure_rng(rng)
        budget = self._budget(epsilon, budget)
        depth, count_epsilons, median_epsilons = self._allocate_budgets(
            dataset, epsilon, budget
        )
        points = dataset.points
        coords = (points[:, 0].copy(), points[:, 1].copy())
        # Quadrant levels track each point's node; from the first kd level
        # on, one point order per axis holds each node as a segment.
        node = np.zeros(points.shape[0], dtype=np.intp)
        orders: list[np.ndarray] | None = None
        rects = np.array([dataset.domain.bounds.as_tuple()])
        counts = np.array([points.shape[0]])
        level_rects, level_noisy, level_variances, level_fan_out = [], [], [], []
        for level in range(depth + 1):
            scale = laplace_scale(1.0, count_epsilons[level])
            noisy = counts + laplace_noise(scale, rng, size=counts.size)
            splits = (noisy >= self.min_split_count) & (level < depth)
            fan_out = 4 if level < self.quadtree_levels else 2
            level_rects.append(rects)
            level_noisy.append(noisy)
            level_variances.append(2.0 * scale**2)
            level_fan_out.append(np.where(splits, fan_out, 0))
            if not splits.any():
                break
            if orders is None:
                keep = splits[node]
                coords = (coords[0][keep], coords[1][keep])
                node = (np.cumsum(splits) - 1)[node[keep]]
            else:
                keep = np.repeat(splits, counts)
                orders = [order[keep] for order in orders]
            parents, counts = rects[splits], counts[splits]
            if level < self.quadtree_levels:
                rects, node = _quadrant_level(parents, coords, node)
                counts = np.bincount(node, minlength=rects.shape[0])
                continue
            if orders is None:
                orders = [
                    _presort(values, node, counts.size) for values in coords
                ]
                node = None
            rects, counts = self._kd_level(
                parents, counts, coords, orders, level % 2,
                median_epsilons[level], rng,
            )

        sizes = [block.shape[0] for block in level_rects]
        fan_out = np.concatenate(level_fan_out)
        noisy_counts = np.concatenate(level_noisy)
        arrays = TreeArrays(
            rects=np.concatenate(level_rects),
            depths=np.repeat(np.arange(len(sizes)), sizes),
            child_offsets=np.concatenate([[1], 1 + np.cumsum(fan_out)]),
            noisy_counts=noisy_counts,
            variances=np.repeat(level_variances, sizes),
            counts=noisy_counts.copy(),
            level_offsets=np.concatenate([[0], np.cumsum(sizes)]),
        )
        if self.constrained_inference:
            apply_tree_inference_arrays(arrays)
        return TreeSynopsis(dataset.domain, epsilon, arrays)

    def _kd_level(
        self,
        parents: np.ndarray,
        counts: np.ndarray,
        coords: tuple[np.ndarray, np.ndarray],
        orders: list[np.ndarray],
        axis: int,
        split_epsilon: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split every node of a kd level along ``axis``.

        ``orders[axis]`` stays as it is: each child's segment is a prefix
        or suffix of its parent's.  ``orders[1 - axis]`` is stably
        partitioned in place in the list.  Returns the children's rects
        and point counts, two per parent.
        """
        lo, hi = parents[:, axis], parents[:, axis + 2]
        if split_epsilon <= 0.0:
            split = (lo + hi) / 2.0
        else:
            values = coords[axis][orders[axis]]
            if self.split_strategy == "uniformity":
                split = _uniformity_splits(
                    values, counts, lo, hi, split_epsilon, rng,
                    self._UNIFORMITY_CANDIDATES,
                )
            else:
                split = _median_splits(values, counts, lo, hi, split_epsilon, rng)
        other = orders[1 - axis]
        upper = coords[axis][other] > np.repeat(split, counts)
        orders[1 - axis], n_upper = _stable_partition(other, counts, upper)
        rects = np.repeat(parents, 2, axis=0)
        rects[0::2, axis + 2] = split
        rects[1::2, axis] = split
        return rects, np.column_stack([counts - n_upper, n_upper]).ravel()


def _quadrant_level(
    parents: np.ndarray,
    coords: tuple[np.ndarray, np.ndarray],
    node: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quadrants of every parent, and each point's child.

    Children are ordered lower-left, lower-right, upper-left,
    upper-right; the midpoint is :attr:`Rect.center`'s ``(lo + hi) / 2``.
    """
    cx = (parents[:, 0] + parents[:, 2]) / 2.0
    cy = (parents[:, 1] + parents[:, 3]) / 2.0
    rects = np.repeat(parents, 4, axis=0)
    rects[0::4, 2] = rects[2::4, 2] = cx
    rects[1::4, 0] = rects[3::4, 0] = cx
    rects[0::4, 3] = rects[1::4, 3] = cy
    rects[2::4, 1] = rects[3::4, 1] = cy
    child = 4 * node + (coords[0] > cx[node]) + 2 * (coords[1] > cy[node])
    return rects, child


def _presort(values: np.ndarray, node: np.ndarray, n_nodes: int) -> np.ndarray:
    """The int32 point order by ``(node, value)``: one sorted segment per node.

    Tied values may land in any order: a release reads only the sorted
    values and the segment counts, never which of two tied points is first.
    """
    order = np.argsort(values)
    # A stable sort of small unsigned keys is a radix sort.
    key = node[order].astype(np.min_scalar_type(n_nodes - 1))
    return order[np.argsort(key, kind="stable")].astype(np.int32)


def _stable_partition(
    order: np.ndarray, counts: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Move each segment's ``upper`` entries after the rest, stably.

    ``order`` holds one contiguous segment per node, ``counts`` long.  A
    cumulative sum of ``upper`` gives every entry its rank among its
    segment's upper (or lower) entries, so no sort is needed.  Returns the
    partitioned order and each segment's number of upper entries.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    ones = np.zeros(order.size + 1, dtype=np.int32)
    np.cumsum(upper, out=ones[1:])
    n_upper = ones[ends] - ones[starts]
    # Upper entries before each entry, within its segment.
    within = ones[:-1] - np.repeat(ones[starts], counts)
    target = np.where(
        upper,
        np.repeat(ends - n_upper, counts) + within,
        np.arange(order.size, dtype=np.int32) - within,
    )
    partitioned = np.empty_like(order)
    partitioned[target] = order
    return partitioned, n_upper


def _median_splits(
    values: np.ndarray,
    counts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy medians of a level's nodes, as one segmented draw.

    Node ``i`` holds the sorted ``values`` segment of ``counts[i]`` and
    spans ``[lo[i], hi[i]]`` on the split axis.  Its ``n + 1`` intervals
    lie between consecutive values, with its edges closing the two ends,
    and interval ``j`` has weight ``length * exp(-(epsilon / 2) *
    |j - n / 2|)``.  One vector of Gumbel noise over all intervals picks
    each node's interval (Gumbel-max: the argmax of log-weight plus Gumbel
    noise), then one uniform per node places the split inside it.  That is
    the distribution of :func:`~repro.privacy.mechanisms.noisy_median`:
    zero-length intervals are never picked, an empty node is uniform over
    its extent, and a draw exactly on an edge falls back to the midpoint.
    """
    sizes = counts + 1
    first = np.cumsum(sizes) - sizes
    # Intervals end at each node's values and then at its upper edge, and
    # start where the previous one ends, or at the node's lower edge.
    right = np.insert(values, np.cumsum(counts), hi)
    left = np.empty_like(right)
    left[1:] = right[:-1]
    left[first] = lo
    # log(length) plus Gumbel noise, drawn as -log of a standard
    # exponential, is log(length / exponential).
    scores = rng.standard_exponential(left.size)
    np.divide(right - left, scores, out=scores)
    with np.errstate(divide="ignore"):
        np.log(scores, out=scores)
    # |j - n/2| is exact in float64 whichever way it is formed.
    distance = np.arange(scores.size, dtype=float)
    distance -= np.repeat(first + counts / 2.0, sizes)
    np.abs(distance, out=distance)
    distance *= epsilon / 2.0
    scores -= distance
    del distance
    pick = _segment_argmax(scores, first, sizes)
    split = left[pick] + rng.random(counts.size) * (right[pick] - left[pick])
    on_edge = ~((lo < split) & (split < hi))
    split[on_edge] = (lo[on_edge] + hi[on_edge]) / 2.0
    return split


def _segment_argmax(
    scores: np.ndarray, first: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Index of each non-empty segment's first maximum."""
    best = np.maximum.reduceat(scores, first)
    hits = np.flatnonzero(scores == np.repeat(best, sizes))
    return hits[np.searchsorted(hits, first)]


def _uniformity_splits(
    values: np.ndarray,
    counts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    n_candidates: int,
) -> np.ndarray:
    """Uniformity splits of a level's nodes (see :class:`KDTreeBuilder`).

    Gumbel-max over the ``(m, n_candidates)`` utility matrix, which has
    :func:`~repro.privacy.mechanisms.exponential_mechanism`'s
    distribution row by row.
    """
    m = counts.size
    candidates = np.linspace(lo, hi, n_candidates + 2, axis=1)[:, 1:-1]
    thresholds = np.stack([
        (lo[:, None] + candidates) / 2.0,
        candidates,
        (candidates + hi[:, None]) / 2.0,
    ])
    # Complex numbers compare lexicographically, so ``node + 1j * value``
    # keys are sorted across segments and one searchsorted counts each
    # node's values below each of its thresholds exactly.
    keys = np.empty(values.size, dtype=complex)
    keys.real = np.repeat(np.arange(m), counts)
    keys.imag = values
    queries = np.empty(thresholds.shape, dtype=complex)
    queries.real = np.arange(m)[:, None]
    queries.imag = thresholds
    starts = np.cumsum(counts) - counts
    c1, c12, c123 = np.searchsorted(keys, queries) - starts[:, None]
    utilities = -(
        np.abs(c1 - (c12 - c1)) + np.abs((c123 - c12) - (counts[:, None] - c123))
    )
    scores = (epsilon / 2.0) * utilities + rng.gumbel(size=(m, n_candidates))
    return candidates[np.arange(m), scores.argmax(axis=1)]


class KDStandardBuilder(KDTreeBuilder):
    """The ``Kst`` baseline: pure KD-tree, uniform budget, no inference."""

    name = "KD-standard"

    def __init__(self, depth: int | None = None, median_fraction: float = 0.25):
        super().__init__(
            depth=depth,
            quadtree_levels=0,
            median_fraction=median_fraction,
            geometric_budget=False,
            constrained_inference=False,
        )

    def label(self) -> str:
        return "Kst"


class KDHybridBuilder(KDTreeBuilder):
    """The ``Khy`` baseline: quadtree top, KD bottom, geometric budget, inference."""

    name = "KD-hybrid"

    def __init__(
        self,
        depth: int | None = None,
        quadtree_levels: int = 4,
        median_fraction: float = 0.15,
    ):
        super().__init__(
            depth=depth,
            quadtree_levels=quadtree_levels,
            median_fraction=median_fraction,
            geometric_budget=True,
            constrained_inference=True,
        )

    def label(self) -> str:
        return "Khy"

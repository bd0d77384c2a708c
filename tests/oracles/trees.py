"""Reference oracles for the tree baselines.

* :class:`SpatialNode` — the recursive object-graph layout of a spatial
  count tree, one object per region; :func:`tree_arrays` flattens a
  hand-built graph into the released
  :class:`~repro.baselines.tree.TreeArrays` (BFS, siblings in order) and
  :func:`to_root` materialises the arrays back into a graph.
* :func:`graph_answer` — the recursive descent over a ``SpatialNode``
  graph that :meth:`~repro.baselines.tree.TreeSynopsis.answer`, a
  recursion over the arrays, must reproduce bit for bit.
* :func:`fit_level_oracle` — the per-node build that
  :meth:`~repro.baselines.kd_tree.KDTreeBuilder.fit` must reproduce bit
  for bit.  It is a plain loop over each level's nodes in BFS order: one
  :class:`SpatialNode` per region, children's
  points taken by ``Rect.mask`` with residual removal (the first child
  whose closed rect holds a point claims it), ``np.sort`` per node and a
  per-node pick.  It draws the same per-level vectors in the same order
  as ``fit``: the level's Laplace vector, then either one standard
  exponential per median interval of every splitting node (its negative
  log is the Gumbel noise) and one uniform per node, or the ``(m, 32)``
  uniformity Gumbel matrix.
* :func:`apply_tree_inference` — the recursive constrained inference over
  a ``SpatialNode`` graph, which the level-wise
  :func:`~repro.baselines.tree.apply_tree_inference_arrays` must match
  bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.kd_tree import KDTreeBuilder
from repro.baselines.tree import TreeArrays, TreeSynopsis
from repro.core.dataset import GeoDataset
from repro.core.geometry import Rect
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng, laplace_noise, laplace_scale
from tests.oracles.inference import CountNode, infer_tree

__all__ = [
    "SpatialNode",
    "apply_tree_inference",
    "fit_level_oracle",
    "graph_answer",
    "to_root",
    "tree_arrays",
]


@dataclass
class SpatialNode:
    """A node of a spatial decomposition: a region plus released counts.

    ``count`` is the estimate used at query time (after constrained
    inference when the method applies it); ``noisy_count`` / ``variance``
    keep the raw measurement so inference can be (re-)run.
    """

    rect: Rect
    noisy_count: float | None = None
    variance: float = float("inf")
    count: float = 0.0
    depth: int = 0
    children: list["SpatialNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def node_count(self) -> int:
        """Number of nodes in this subtree."""
        return 1 + sum(child.node_count() for child in self.children)

    def leaf_count(self) -> int:
        """Number of leaves in this subtree."""
        if self.is_leaf:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def height(self) -> int:
        """Length of the longest root-to-leaf path (leaf = 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(child.height() for child in self.children)

    def iter_nodes(self):
        """Yield all nodes in the subtree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_leaves(self):
        """Yield all leaves in the subtree."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node


def _assemble_offsets(
    depths: np.ndarray, fan_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR child offsets + level slab bounds from level-order metadata.

    In BFS level order the children of nodes 0..n-1 fill indices
    1..n-1 consecutively, so node ``v``'s children start at ``1 +
    sum(fan_out[:v])``; level slabs fall out of the sorted depths.
    """
    n = depths.size
    child_offsets = np.empty(n + 1, dtype=np.int64)
    child_offsets[0] = 1
    np.cumsum(fan_out, out=child_offsets[1:])
    child_offsets[1:] += 1
    n_levels = int(depths[-1]) + 1
    level_offsets = np.searchsorted(
        depths, np.arange(n_levels + 1), side="left"
    ).astype(np.int64)
    return child_offsets, level_offsets


def tree_arrays(root: SpatialNode) -> TreeArrays:
    """Flatten a :class:`SpatialNode` graph (BFS, siblings in order)."""
    nodes: list[SpatialNode] = [root]
    depths: list[int] = [0]
    index = 0
    while index < len(nodes):  # the list grows while iterating: a BFS queue
        for child in nodes[index].children:
            nodes.append(child)
            depths.append(depths[index] + 1)
        index += 1
    rects = np.array([node.rect.as_tuple() for node in nodes], dtype=float)
    noisy = np.array(
        [
            np.nan if node.noisy_count is None else float(node.noisy_count)
            for node in nodes
        ]
    )
    variances = np.array([float(node.variance) for node in nodes])
    counts = np.array([float(node.count) for node in nodes])
    depths_arr = np.asarray(depths, dtype=np.int64)
    fan_out = np.array([len(node.children) for node in nodes], dtype=np.int64)
    child_offsets, level_offsets = _assemble_offsets(depths_arr, fan_out)
    return TreeArrays(
        rects=rects,
        depths=depths_arr,
        child_offsets=child_offsets,
        noisy_counts=noisy,
        variances=variances,
        counts=counts,
        level_offsets=level_offsets,
    )


def to_root(arrays: TreeArrays) -> SpatialNode:
    """Materialise the equivalent :class:`SpatialNode` object graph."""
    nodes = [
        SpatialNode(
            rect=Rect(*arrays.rects[v]),
            noisy_count=(
                None if np.isnan(arrays.noisy_counts[v])
                else float(arrays.noisy_counts[v])
            ),
            variance=float(arrays.variances[v]),
            count=float(arrays.counts[v]),
            depth=int(arrays.depths[v]),
        )
        for v in range(arrays.n_nodes)
    ]
    for v, node in enumerate(nodes):
        lo, hi = arrays.child_offsets[v], arrays.child_offsets[v + 1]
        node.children = nodes[lo:hi]
    return nodes[0]


def graph_answer(node: SpatialNode, rect: Rect) -> float:
    """The uniformity estimate of ``rect`` by recursive graph descent.

    Regions disjoint from the query count nothing, regions inside it
    count whole, partially covered leaves count their overlap fraction,
    and partially covered internal nodes sum their children in order.
    """
    region = node.rect
    if not region.intersects(rect):
        return 0.0
    if rect.contains_rect(region):
        return node.count
    if node.is_leaf:
        return node.count * region.overlap_fraction(rect)
    total = 0.0
    for child in node.children:
        total += graph_answer(child, rect)
    return total


def fit_level_oracle(
    builder: KDTreeBuilder,
    dataset: GeoDataset,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> TreeSynopsis:
    """``builder.fit`` as a per-node loop over each level (see module doc)."""
    rng = ensure_rng(rng)
    budget = builder._budget(epsilon, budget)
    depth, count_epsilons, median_epsilons = builder._allocate_budgets(
        dataset, epsilon, budget
    )
    root = SpatialNode(rect=dataset.domain.bounds)
    level_nodes = [(root, dataset.points)]
    for level in range(depth + 1):
        scale = laplace_scale(1.0, count_epsilons[level])
        noise = laplace_noise(scale, rng, size=len(level_nodes))
        splitting = []
        for (node, points), z in zip(level_nodes, noise):
            node.noisy_count = node.count = points.shape[0] + float(z)
            node.variance = 2.0 * scale**2
            node.depth = level
            if level < depth and not node.noisy_count < builder.min_split_count:
                splitting.append((node, points))
        if not splitting:
            break
        if level < builder.quadtree_levels:
            child_rects = [_quadrants(node.rect) for node, _ in splitting]
        else:
            axis = level % 2
            splits = _kd_splits(
                builder, splitting, axis, median_epsilons[level], rng
            )
            child_rects = [
                _halves(node.rect, axis, split)
                for (node, _), split in zip(splitting, splits)
            ]
        level_nodes = []
        for (node, points), rects in zip(splitting, child_rects):
            for rect in rects:
                mask = rect.mask(points[:, 0], points[:, 1])
                child = SpatialNode(rect=rect)
                node.children.append(child)
                level_nodes.append((child, points[mask]))
                points = points[~mask]
    if builder.constrained_inference:
        apply_tree_inference(root)
    return TreeSynopsis(dataset.domain, epsilon, tree_arrays(root))


def _extent(rect: Rect, axis: int) -> tuple[float, float]:
    return (rect.x_lo, rect.x_hi) if axis == 0 else (rect.y_lo, rect.y_hi)


def _kd_splits(builder, splitting, axis, epsilon, rng) -> list[float]:
    """One split coordinate per splitting node, from the level's draws."""
    extents = [_extent(node.rect, axis) for node, _ in splitting]
    if epsilon <= 0.0:
        return [(lo + hi) / 2.0 for lo, hi in extents]
    values = [np.sort(points[:, axis]) for _, points in splitting]
    if builder.split_strategy == "uniformity":
        k = builder._UNIFORMITY_CANDIDATES
        gumbel = rng.gumbel(size=(len(splitting), k))
        return [
            _uniformity_pick(v, lo, hi, epsilon, k, g)
            for v, (lo, hi), g in zip(values, extents, gumbel)
        ]
    exponentials = rng.standard_exponential(sum(v.size + 1 for v in values))
    uniform = rng.random(len(splitting))
    splits, offset = [], 0
    for v, (lo, hi), u in zip(values, extents, uniform):
        e = exponentials[offset:offset + v.size + 1]
        offset += v.size + 1
        splits.append(_median_pick(v, lo, hi, epsilon, e, u))
    return splits


def _median_pick(values, lo, hi, epsilon, exponentials, u) -> float:
    """Gumbel-max over the node's ``n + 1`` intervals, uniform inside.

    The Gumbel noise is ``-log(exponentials)``.
    """
    n = values.size
    lower = np.concatenate([[lo], values])
    upper = np.concatenate([values, [hi]])
    with np.errstate(divide="ignore"):
        scores = np.log((upper - lower) / exponentials) - (epsilon / 2.0) * np.abs(
            np.arange(n + 1) - n / 2.0
        )
    j = int(np.argmax(scores))
    split = lower[j] + u * (upper[j] - lower[j])
    return split if lo < split < hi else (lo + hi) / 2.0


def _uniformity_pick(values, lo, hi, epsilon, k, gumbel) -> float:
    """Gumbel-max over the 32 candidates' mass-balance utilities."""
    candidates = np.linspace(lo, hi, k + 2)[1:-1]
    c1 = np.searchsorted(values, (lo + candidates) / 2.0)
    c12 = np.searchsorted(values, candidates)
    c123 = np.searchsorted(values, (candidates + hi) / 2.0)
    utilities = -(np.abs(c1 - (c12 - c1)) + np.abs((c123 - c12) - (values.size - c123)))
    return candidates[int(np.argmax((epsilon / 2.0) * utilities + gumbel))]


def _halves(rect: Rect, axis: int, split: float) -> list[Rect]:
    if axis == 0:
        return [
            Rect(rect.x_lo, rect.y_lo, split, rect.y_hi),
            Rect(split, rect.y_lo, rect.x_hi, rect.y_hi),
        ]
    return [
        Rect(rect.x_lo, rect.y_lo, rect.x_hi, split),
        Rect(rect.x_lo, split, rect.x_hi, rect.y_hi),
    ]


def _quadrants(rect: Rect) -> list[Rect]:
    cx, cy = rect.center
    return [
        Rect(rect.x_lo, rect.y_lo, cx, cy),
        Rect(cx, rect.y_lo, rect.x_hi, cy),
        Rect(rect.x_lo, cy, cx, rect.y_hi),
        Rect(cx, cy, rect.x_hi, rect.y_hi),
    ]


def apply_tree_inference(root: SpatialNode) -> None:
    """Run Hay-et-al constrained inference over a spatial tree in place.

    Builds the parallel :class:`~repro.baselines.constrained_inference.
    CountNode` structure, solves it recursively, and writes the
    consistent estimates back into each node's ``count``.
    """
    mapping: dict[int, SpatialNode] = {}

    def convert(node: SpatialNode) -> CountNode:
        count_node = CountNode(
            noisy_count=node.noisy_count,
            variance=node.variance,
            children=[convert(child) for child in node.children],
        )
        mapping[id(count_node)] = node
        return count_node

    count_root = convert(root)
    infer_tree(count_root)

    stack = [count_root]
    while stack:
        count_node = stack.pop()
        mapping[id(count_node)].count = count_node.inferred_count
        stack.extend(count_node.children)

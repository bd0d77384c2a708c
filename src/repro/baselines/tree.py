"""Generic spatial-decomposition tree synopsis.

The KD-tree and quadtree baselines all release the same kind of object: a
tree of rectangular regions with a (noisy) count attached to each node,
where children partition their parent's region.  This module provides that
shared substrate in two layouts:

* :class:`TreeArrays` — the flat production layout: per-node rect
  coordinates, depths, CSR child offsets, noisy counts, variances, and
  post-inference counts, stored in **BFS level order** so each tree level
  is a contiguous slab (``level_offsets``).  Everything hot — builders,
  constrained inference, the batch query engine, serialization — operates
  on these arrays without materialising a node object anywhere.
* :class:`SpatialNode` — the recursive reference layout, one object per
  region.  Kept for the scalar reference paths (``fit_reference``,
  ``TreeSynopsis.answer``) that the equivalence tests pin the flat
  kernels against, and for exploratory code that wants to walk a tree.

:class:`TreeSynopsis` answers rectangle queries by descending the tree:
regions fully inside the query contribute their whole count, disjoint
regions contribute nothing, and partially covered *leaves* fall back to
the uniformity assumption (Section II-B of the paper).  Its scalar
``answer`` is the recursive reference; batches go through the engine
this module chooses (:func:`tree_engine_precompute`): a tree whose
leaves lie on the ``2^h x 2^h`` lattice of its domain and whose
internal counts equal their children's sums is lowered onto that
lattice (the grid kernel
:class:`~repro.queries.engine.BatchQueryEngine` over the domain's
``2^h x 2^h`` counts) when its prefix is no larger than the tree's own
node vectors, any other tree goes through the
frontier-descent :class:`~repro.queries.engine.FlatTreeEngine` and its
edge tables.

BFS level order, concretely: node 0 is the root, children of node ``v``
are the contiguous index range ``child_offsets[v]:child_offsets[v + 1]``,
siblings keep their split order, and level ``l`` occupies
``level_offsets[l]:level_offsets[l + 1]``.  Children of the level-``l``
nodes are exactly the level-``l+1`` slab, in order — which is what lets
constrained inference and the query engine walk whole levels with
``repeat``/``arange`` arithmetic instead of per-node recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.constrained_inference import (
    CountNode,
    infer_level_order,
    infer_tree,
)
from repro.core.geometry import Domain2D, Rect
from repro.core.synopsis import Synopsis

__all__ = [
    "SpatialNode",
    "TreeArrays",
    "TreeSynopsis",
    "apply_tree_inference",
    "apply_tree_inference_arrays",
    "tree_engine_from_slabs",
    "tree_engine_precompute",
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


@dataclass
class TreeArrays:
    """A spatial count tree as flat arrays in BFS level order.

    Attributes
    ----------
    rects:
        ``(n, 4)`` float rows of ``(x_lo, y_lo, x_hi, y_hi)`` per node.
    depths:
        ``(n,)`` BFS level of each node (root = 0); non-decreasing.
    child_offsets:
        ``(n + 1,)`` CSR offsets: children of node ``v`` are the nodes
        ``child_offsets[v]:child_offsets[v + 1]``.  Equal bounds mean a
        leaf.
    noisy_counts:
        ``(n,)`` raw measurements; ``NaN`` marks an unmeasured node.
    variances:
        ``(n,)`` measurement variances (``inf`` for unmeasured nodes).
    counts:
        ``(n,)`` query-time estimates (post-inference when applied).
    level_offsets:
        ``(height + 2,)`` slab bounds: level ``l`` is the index range
        ``level_offsets[l]:level_offsets[l + 1]``.
    """

    rects: np.ndarray
    depths: np.ndarray
    child_offsets: np.ndarray
    noisy_counts: np.ndarray
    variances: np.ndarray
    counts: np.ndarray
    level_offsets: np.ndarray

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
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

    @classmethod
    def from_records(
        cls,
        rects: np.ndarray,
        depths: np.ndarray,
        parents: np.ndarray,
        noisy_counts: np.ndarray,
        variances: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> "TreeArrays":
        """Assemble level-order arrays from parent-pointer records.

        The records may arrive in any order in which every node's parent
        precedes it and siblings appear in split order (DFS pre-order and
        BFS both qualify); ``parents[v]`` is the record index of ``v``'s
        parent (-1 for the root).  A stable sort by depth produces BFS
        level order — within one level, two nodes compare like their
        parents, so children of consecutive parents land contiguously.
        """
        rects = np.asarray(rects, dtype=float).reshape(-1, 4)
        depths = np.asarray(depths, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        noisy_counts = np.asarray(noisy_counts, dtype=float)
        variances = np.asarray(variances, dtype=float)
        n = depths.size
        if n == 0:
            raise ValueError("tree must have at least one node")
        order = np.argsort(depths, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        new_depths = depths[order]
        new_parents = np.where(parents[order] >= 0, rank[parents[order]], -1)
        fan_out = np.bincount(new_parents[1:], minlength=n) if n > 1 else (
            np.zeros(n, dtype=np.int64)
        )
        child_offsets, level_offsets = cls._assemble_offsets(new_depths, fan_out)
        counts_in = (
            noisy_counts if counts is None else np.asarray(counts, dtype=float)
        )
        return cls(
            rects=np.ascontiguousarray(rects[order]),
            depths=new_depths,
            child_offsets=child_offsets,
            noisy_counts=noisy_counts[order].copy(),
            variances=variances[order].copy(),
            counts=counts_in[order].copy(),
            level_offsets=level_offsets,
        )

    @classmethod
    def from_root(cls, root: SpatialNode) -> "TreeArrays":
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
        child_offsets, level_offsets = cls._assemble_offsets(depths_arr, fan_out)
        return cls(
            rects=rects,
            depths=depths_arr,
            child_offsets=child_offsets,
            noisy_counts=noisy,
            variances=variances,
            counts=counts,
            level_offsets=level_offsets,
        )

    def to_root(self) -> SpatialNode:
        """Materialise the equivalent :class:`SpatialNode` object graph."""
        nodes = [
            SpatialNode(
                rect=Rect(*self.rects[v]),
                noisy_count=(
                    None if np.isnan(self.noisy_counts[v])
                    else float(self.noisy_counts[v])
                ),
                variance=float(self.variances[v]),
                count=float(self.counts[v]),
                depth=int(self.depths[v]),
            )
            for v in range(self.n_nodes)
        ]
        for v, node in enumerate(nodes):
            lo, hi = self.child_offsets[v], self.child_offsets[v + 1]
            node.children = nodes[lo:hi]
        return nodes[0]

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.depths.size)

    @property
    def n_levels(self) -> int:
        return int(self.level_offsets.size - 1)

    @property
    def leaf_mask(self) -> np.ndarray:
        """Boolean per-node mask of leaves (empty child range)."""
        return self.child_offsets[1:] == self.child_offsets[:-1]

    def node_count(self) -> int:
        return self.n_nodes

    def leaf_count(self) -> int:
        return int(self.leaf_mask.sum())

    def height(self) -> int:
        """Length of the longest root-to-leaf path (single node = 0)."""
        return self.n_levels - 1

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the released arrays."""
        return sum(
            array.nbytes
            for array in (
                self.rects, self.depths, self.child_offsets,
                self.noisy_counts, self.variances, self.counts,
                self.level_offsets,
            )
        )

    def validate(self) -> None:
        """Check the level-order invariants; raises ``ValueError`` on breakage.

        Used by tests and by unpacking untrusted archives — the hot paths
        assume these invariants rather than re-checking them.
        """
        n = self.n_nodes
        if self.rects.shape != (n, 4):
            raise ValueError(f"rects shape {self.rects.shape} != ({n}, 4)")
        if self.child_offsets.shape != (n + 1,):
            raise ValueError("child_offsets must have n + 1 entries")
        if n and (self.child_offsets[0] != 1 or self.child_offsets[-1] != n):
            raise ValueError("child offsets must span nodes 1..n")
        if np.any(np.diff(self.child_offsets) < 0):
            raise ValueError("child_offsets must be non-decreasing")
        if np.any(np.diff(self.depths) < 0):
            raise ValueError("depths must be non-decreasing (BFS level order)")
        if self.level_offsets[0] != 0 or self.level_offsets[-1] != n:
            raise ValueError("level_offsets must span 0..n")
        for level in range(self.n_levels):
            lo, hi = self.level_offsets[level], self.level_offsets[level + 1]
            if not np.all(self.depths[lo:hi] == level):
                raise ValueError(f"level slab {level} holds wrong depths")
        # Children of each node must sit one level deeper, contiguously.
        starts = self.child_offsets[:-1]
        ends = self.child_offsets[1:]
        parents = np.repeat(np.arange(n), ends - starts)
        children = np.arange(1, n) if n > 1 else np.empty(0, dtype=np.int64)
        if parents.size != children.size:
            raise ValueError("child ranges must cover nodes 1..n exactly once")
        if n > 1 and not np.all(self.depths[children] == self.depths[parents] + 1):
            raise ValueError("children must be exactly one level below parents")


def apply_tree_inference(root: SpatialNode) -> None:
    """Run Hay-et-al constrained inference over a spatial tree in place.

    The recursive reference: builds the parallel :class:`~repro.baselines.
    constrained_inference.CountNode` structure, solves it, and writes the
    consistent estimates back into each node's ``count``.  The production
    path is :func:`apply_tree_inference_arrays`.
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


def apply_tree_inference_arrays(tree: TreeArrays) -> None:
    """Run constrained inference in place on a flat level-order tree.

    Writes the consistent estimates into ``tree.counts``; bit-identical
    to :func:`apply_tree_inference` on the equivalent object graph (see
    :func:`~repro.baselines.constrained_inference.infer_level_order`).
    The write updates the existing ``counts`` buffer rather than
    rebinding it.  Build engines after inference: whether a tree lowers
    onto its lattice depends on the counts, and a lattice engine holds a
    prefix derived from them.
    """
    tree.counts[:] = infer_level_order(
        tree.noisy_counts, tree.variances, tree.child_offsets, tree.level_offsets
    )


class TreeSynopsis(Synopsis):
    """A released spatial decomposition answering queries top-down.

    The released state is a :class:`TreeArrays`; a :class:`SpatialNode`
    root is also accepted and converted.  The object graph is only
    materialised on demand (:attr:`root`) for the scalar reference path
    and tree-walking callers — batches never touch it.
    """

    def __init__(
        self,
        domain: Domain2D,
        epsilon: float,
        tree: "TreeArrays | SpatialNode",
    ):
        super().__init__(domain, epsilon)
        if isinstance(tree, TreeArrays):
            self._arrays = tree
            self._root: SpatialNode | None = None
        elif isinstance(tree, SpatialNode):
            self._arrays = TreeArrays.from_root(tree)
            self._root = tree
        else:
            raise TypeError(
                f"tree must be TreeArrays or SpatialNode, got {type(tree).__name__}"
            )
        self._engine = None  # lazy make_engine result for answer_many

    @property
    def arrays(self) -> TreeArrays:
        """The flat released state (what engines and serialisation read)."""
        return self._arrays

    @property
    def root(self) -> SpatialNode:
        """The object-graph view, materialised from the arrays on demand.

        A read-only snapshot: the arrays are the released state, and
        mutating the returned nodes does not write back to them (nor to
        engines, serialization, or ``answer_many``).
        """
        if self._root is None:
            self._root = self._arrays.to_root()
        return self._root

    def node_count(self) -> int:
        return self._arrays.node_count()

    def leaf_count(self) -> int:
        return self._arrays.leaf_count()

    def height(self) -> int:
        return self._arrays.height()

    def answer(self, rect: Rect) -> float:
        return self._answer_node(self.root, rect)

    def _answer_node(self, node: SpatialNode, rect: Rect) -> float:
        region = node.rect
        if not region.intersects(rect):
            return 0.0
        if rect.contains_rect(region):
            return node.count
        if node.is_leaf:
            return node.count * region.overlap_fraction(rect)
        total = 0.0
        for child in node.children:
            total += self._answer_node(child, rect)
        return total

    def answer_many(self, rects: "list[Rect] | np.ndarray") -> np.ndarray:
        """Batch answering via the declared tree engine (a lattice
        :class:`~repro.queries.engine.BatchQueryEngine` or the level-order
        :class:`~repro.queries.engine.FlatTreeEngine`); equal to the
        scalar descent up to floating-point rounding.  Accepts a list of
        :class:`Rect`, a list of 4-number rows, or an ``(n, 4)`` array."""
        if self._engine is None:
            from repro.queries.engine import make_engine

            self._engine = make_engine(self)
        return self._engine.answer_batch(rects)

    def drift_cells(self, max_cells: int = 1024) -> np.ndarray:
        """The leaf rectangles — the tree's finest released partition.

        A kdq-style build-vs-fill comparison bins new points into the
        cells the *build* produced; for a spatial count tree those are
        exactly the leaves.  Falls back to the default equi-width cover
        when the tree has more leaves than ``max_cells`` (the fill
        histogram must stay cheap per ingest batch).
        """
        leaves = np.flatnonzero(self._arrays.leaf_mask)
        if leaves.size == 0 or leaves.size > max_cells:
            return super().drift_cells(max_cells)
        return np.array(self._arrays.rects[leaves], dtype=float)

    def synthetic_points(self, rng: np.random.Generator) -> np.ndarray:
        """Sample points uniformly within each leaf region by its count."""
        arrays = self._arrays
        leaves = np.flatnonzero(arrays.leaf_mask)
        sizes = np.maximum(0, np.round(arrays.counts[leaves])).astype(np.int64)
        keep = sizes > 0
        leaves, sizes = leaves[keep], sizes[keep]
        if leaves.size == 0:
            return np.empty((0, 2))
        boxes = np.repeat(arrays.rects[leaves], sizes, axis=0)
        total = int(sizes.sum())
        xs = rng.uniform(boxes[:, 0], boxes[:, 2], size=total)
        ys = rng.uniform(boxes[:, 1], boxes[:, 3], size=total)
        return np.column_stack([xs, ys])


#: A leaf edge lies on the lattice when it is within this many lattice
#: cells of a lattice edge (midpoint splits carry a few ulps of rounding).
_LATTICE_ATOL = 1e-9

#: An internal count equals its children's sum when they differ by at
#: most this fraction of the largest count (constrained inference leaves
#: rounding-level residue; an uninferred tree differs by noise).
_SUM_RTOL = 1e-9


def _lattice_leaves(synopsis: TreeSynopsis):
    """``(side, lo, hi, counts)`` of the leaves on the release's lattice.

    ``side = 2^h`` for tree height ``h``; ``lo`` / ``hi`` are each leaf's
    lattice index bounds as ``(x, y)`` rows.  ``None`` unless the release
    lowers exactly onto the lattice: its prefix is no larger than the
    :class:`~repro.queries.engine.FlatTreeEngine` node vectors (checked first,
    so a pruned deep tree never sizes a huge lattice), every internal
    count equals its children's sum, and every leaf spans whole lattice
    cells of the domain.
    """
    from repro.queries.engine import FlatTreeEngine

    arrays = synopsis.arrays
    side = 1 << arrays.height()
    if 8 * (side + 1) ** 2 > FlatTreeEngine.buffer_nbytes(arrays.n_nodes):
        return None
    counts = arrays.counts
    fan_out = np.diff(arrays.child_offsets)
    internal = fan_out > 0
    if internal.any():
        parents = np.repeat(np.arange(arrays.n_nodes), fan_out)
        child_sums = np.bincount(
            parents, weights=counts[1:], minlength=arrays.n_nodes
        )
        tolerance = _SUM_RTOL * max(1.0, float(np.abs(counts).max()))
        # NaN (an unmeasured, uninferred node) fails the comparison.
        if not np.all(np.abs(counts[internal] - child_sums[internal]) <= tolerance):
            return None
    leaves = np.flatnonzero(~internal)
    domain = synopsis.domain
    origin = np.array([domain.bounds.x_lo, domain.bounds.y_lo] * 2)
    cells_per_unit = np.array([side / domain.width, side / domain.height] * 2)
    # Leaf rows (x_lo, y_lo, x_hi, y_hi) in lattice cells.
    position = (arrays.rects.take(leaves, axis=0) - origin) * cells_per_unit
    index = np.rint(position)
    if not np.all(np.abs(position - index) <= _LATTICE_ATOL):
        return None
    index = index.astype(np.int64)
    lo, hi = index[:, :2], index[:, 2:]
    if lo.min() < 0 or hi.max() > side or np.any(hi <= lo):
        return None
    return side, lo, hi, counts[leaves]


def _lattice_release(synopsis: TreeSynopsis):
    """The release's counts spread over its lattice, or ``None``.

    Each leaf's count is spread evenly over the lattice cells it covers,
    which is the uniformity estimate the tree applies inside the leaf, so
    the lattice's uniform-grid answers equal the tree's.
    """
    lowered = _lattice_leaves(synopsis)
    if lowered is None:
        return None
    side, lo, hi, leaf_counts = lowered
    extent = hi - lo
    density = leaf_counts / (extent[:, 0] * extent[:, 1])
    grid = np.zeros(side * side)
    corner = lo[:, 0] * side + lo[:, 1]
    # One scatter per distinct leaf shape (a quadtree has one per depth).
    shape_id = extent[:, 0] * (side + 1) + extent[:, 1]
    for shape in np.unique(shape_id):
        width, height = divmod(int(shape), side + 1)
        members = shape_id == shape
        block = (np.arange(width)[:, None] * side + np.arange(height)).reshape(-1)
        grid[corner[members][:, None] + block] = density[members][:, None]
    return grid.reshape(side, side)


def tree_engine_precompute(synopsis: TreeSynopsis) -> dict[str, np.ndarray]:
    """Engine buffers of a tree release: its lattice prefix when it
    lowers onto its lattice, else the frontier-descent node vectors and
    edge tables."""
    from repro.queries.engine import BatchQueryEngine, FlatTreeEngine

    lattice = _lattice_release(synopsis)
    if lattice is None:
        return FlatTreeEngine.precompute(synopsis)
    domain = synopsis.domain
    return BatchQueryEngine.precompute(domain.lows, domain.highs, lattice)


def tree_engine_from_slabs(synopsis: TreeSynopsis, slabs: dict[str, np.ndarray]):
    """The engine :func:`tree_engine_precompute` chose, over ``slabs``."""
    # The kernel follows the release, not the slabs: slabs sealed for the
    # other kernel (e.g. before lowering existed) raise KeyError here.
    from repro.queries.engine import BatchQueryEngine, FlatTreeEngine

    lowered = _lattice_leaves(synopsis)
    if lowered is None:
        return FlatTreeEngine.from_slabs(synopsis, slabs)
    side = lowered[0]
    domain = synopsis.domain
    return BatchQueryEngine.from_slabs(domain.lows, domain.highs, (side, side), slabs)

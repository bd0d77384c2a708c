"""Generic spatial-decomposition tree synopsis.

The KD-tree and quadtree baselines all release the same kind of object: a
tree of rectangular regions with a (noisy) count attached to each node,
where children partition their parent's region.  This module provides that
shared substrate as one flat layout, :class:`TreeArrays`: per-node rect
coordinates, depths, CSR child offsets, noisy counts, variances, and
post-inference counts, stored in **BFS level order** so each tree level
is a contiguous slab (``level_offsets``).  Builders, constrained
inference, the batch query engines and serialization all operate on
these arrays; no node object exists anywhere.

:class:`TreeSynopsis` answers rectangle queries by descending the tree:
regions fully inside the query contribute their whole count, disjoint
regions contribute nothing, and partially covered *leaves* fall back to
the uniformity assumption (Section II-B of the paper).  Its scalar
``answer`` is that descent, one recursion per visited node over the
arrays; batches go through one of three engines this module chooses
(:func:`tree_engine`).  A tree whose internal counts equal their
children's sums (a *consistent* tree, as constrained inference leaves
it) answers with the integral of its leaves' piecewise-constant density,
so it is lowered: onto the ``2^h x 2^h`` lattice of its domain (the grid
kernel :class:`~repro.queries.engine.BatchQueryEngine`) when its leaves
lie on that lattice and its prefix is no larger than the tree's own node
vectors, else onto a two-level summed-area grid of its leaves, the
engine the adaptive grid answers through
(:class:`~repro.queries.engine.TwoLevelGridEngine`), when every leaf has
positive area and the grid's tables are at most five times those node
vectors.  Any other tree goes through the frontier-descent
:class:`~repro.queries.engine.FlatTreeEngine` and its edge tables.

BFS level order, concretely: node 0 is the root, children of node ``v``
are the contiguous index range ``child_offsets[v]:child_offsets[v + 1]``,
siblings keep their split order, and level ``l`` occupies
``level_offsets[l]:level_offsets[l + 1]``.  Children of the level-``l``
nodes are exactly the level-``l+1`` slab, in order — which is what lets
constrained inference and the query engine walk whole levels with
``repeat``/``arange`` arithmetic instead of per-node recursion.

Every internal node is split in one of the two shapes the builders
produce (:func:`split_kinds`): two halves along one axis, lower then
upper, or four quadrants in the order lower-left, lower-right,
upper-left, upper-right.  A child's bounds are its parent's except at
the split coordinate, which is what lets the query engine classify a
child from its parent's split alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.baselines.constrained_inference import infer_level_order
from repro.core.geometry import Domain2D, Rect
from repro.core.synopsis import Synopsis

__all__ = [
    "TreeArrays",
    "TreeSynopsis",
    "apply_tree_inference_arrays",
    "split_kinds",
    "tree_engine",
]

#: Split kinds of :func:`split_kinds`: a leaf, halves along x, halves
#: along y, quadrants.
LEAF, X_HALVES, Y_HALVES, QUADRANTS = 0, 1, 2, 3

#: Each split shape and, per child in split order, which of its
#: ``(x_lo, y_lo, x_hi, y_hi)`` bounds is the split coordinate on that
#: axis; every other bound is the parent's own.
_SHAPES = (
    (X_HALVES, ((0, 0, 1, 0), (1, 0, 0, 0))),
    (Y_HALVES, ((0, 0, 0, 1), (0, 1, 0, 0))),
    (QUADRANTS, ((0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0))),
)


def split_kinds(bounds, child_offsets: np.ndarray) -> np.ndarray:
    """Each node's split, as a ``uint8`` :data:`LEAF` ... :data:`QUADRANTS`.

    ``bounds`` are the nodes' ``(x_lo, y_lo, x_hi, y_hi)`` vectors.  An
    internal node must be split into two halves along one axis (lower
    then upper) or into four quadrants (lower-left, lower-right,
    upper-left, upper-right): every child bound equals the parent's or,
    on the split side, the split coordinate, which is the first child's
    upper bound on that axis.  Zero-width children qualify.  Raises
    ``ValueError`` for any other set of children.
    """
    bounds = [np.asarray(vector) for vector in bounds]
    fan_out = np.diff(child_offsets)
    kinds = np.zeros(fan_out.size, dtype=np.uint8)
    unmatched = fan_out > 0
    for kind, cuts in _SHAPES:
        nodes = np.flatnonzero(unmatched & (fan_out == len(cuts)))
        if not nodes.size:
            continue
        first = child_offsets[nodes]
        split = (bounds[2][first], bounds[3][first])
        match = np.ones(nodes.size, dtype=bool)
        for side, bound in enumerate(bounds):
            parent = bound[nodes]
            for child, cut in enumerate(cuts):
                expected = split[side % 2] if cut[side] else parent
                match &= bound[first + child] == expected
        kinds[nodes[match]] = kind
        unmatched[nodes[match]] = False
    if unmatched.any():
        node = int(np.flatnonzero(unmatched)[0])
        raise ValueError(
            f"node {node}'s {int(fan_out[node])} children are neither two "
            "halves along one axis nor its four quadrants"
        )
    return kinds


@dataclass
class TreeArrays:
    """A spatial count tree as flat arrays in BFS level order.

    Every internal node is split into two halves along one axis (lower,
    then upper) or into four quadrants (lower-left, lower-right,
    upper-left, upper-right); see :func:`split_kinds`.  Children may have
    zero width.

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
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.depths.size)

    @property
    def n_levels(self) -> int:
        return int(self.level_offsets.size - 1)

    @cached_property
    def kinds(self) -> np.ndarray:
        """Each node's split kind (:func:`split_kinds`), derived once for
        :meth:`validate` and the frontier engine."""
        return split_kinds(self.rects.T, self.child_offsets)

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
        """Check the level-order and split-shape invariants; raises
        ``ValueError`` on breakage.

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
        self.kinds  # raises for any other split, else kept for the engine


def apply_tree_inference_arrays(tree: TreeArrays) -> None:
    """Run constrained inference in place on a flat level-order tree.

    Writes the consistent estimates into ``tree.counts`` (see
    :func:`~repro.baselines.constrained_inference.infer_level_order`).
    The write updates the existing ``counts`` buffer rather than
    rebinding it.  Build engines after inference: whether a tree lowers
    (onto its lattice or the two-level grid) depends on the counts, and a
    lowered engine holds tables derived from them.
    """
    tree.counts[:] = infer_level_order(
        tree.noisy_counts, tree.variances, tree.child_offsets, tree.level_offsets
    )


class TreeSynopsis(Synopsis):
    """A released spatial decomposition answering queries top-down.

    The released state is a :class:`TreeArrays`.
    """

    def __init__(self, domain: Domain2D, epsilon: float, tree: TreeArrays):
        super().__init__(domain, epsilon)
        if not isinstance(tree, TreeArrays):
            raise TypeError(f"tree must be TreeArrays, got {type(tree).__name__}")
        self._arrays = tree

    @property
    def arrays(self) -> TreeArrays:
        """The flat released state (what engines and serialisation read)."""
        return self._arrays

    def node_count(self) -> int:
        return self._arrays.node_count()

    def leaf_count(self) -> int:
        return self._arrays.leaf_count()

    def height(self) -> int:
        return self._arrays.height()

    def answer(self, rect: Rect) -> float:
        return self._answer_node(0, rect)

    def _answer_node(self, node: int, rect: Rect) -> float:
        arrays = self._arrays
        region = Rect(*arrays.rects[node].tolist())
        if not region.intersects(rect):
            return 0.0
        count = float(arrays.counts[node])
        if rect.contains_rect(region):
            return count
        first, stop = arrays.child_offsets[node : node + 2].tolist()
        if first == stop:
            return count * region.overlap_fraction(rect)
        total = 0.0
        for child in range(first, stop):
            total += self._answer_node(child, rect)
        return total

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


def _consistent(arrays: TreeArrays) -> bool:
    """Whether every internal count equals its children's sum, within
    :data:`_SUM_RTOL` of the largest count (an unmeasured, uninferred
    node's NaN fails)."""
    counts = arrays.counts
    fan_out = np.diff(arrays.child_offsets)
    internal = fan_out > 0
    if not internal.any():
        return True
    parents = np.repeat(np.arange(arrays.n_nodes), fan_out)
    child_sums = np.bincount(parents, weights=counts[1:], minlength=arrays.n_nodes)
    tolerance = _SUM_RTOL * max(1.0, float(np.abs(counts).max()))
    return bool(np.all(np.abs(counts[internal] - child_sums[internal]) <= tolerance))


def _lattice_leaves(synopsis: TreeSynopsis):
    """``(side, lo, hi, counts)`` of the leaves on the release's lattice.

    ``side = 2^h`` for tree height ``h``; ``lo`` / ``hi`` are each leaf's
    lattice index bounds as ``(x, y)`` rows.  ``None`` unless the
    release, whose counts the caller has found consistent, lowers
    exactly onto the lattice: its prefix is no larger than the
    :class:`~repro.queries.engine.FlatTreeEngine` node vectors (checked
    first, so a pruned deep tree never sizes a huge lattice), and every
    leaf spans whole lattice cells of the domain.
    """
    from repro.queries.engine import FlatTreeEngine

    arrays = synopsis.arrays
    side = 1 << arrays.height()
    if 8 * (side + 1) ** 2 > FlatTreeEngine.buffer_nbytes(arrays.n_nodes):
        return None
    leaves = np.flatnonzero(arrays.leaf_mask)
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
    return side, lo, hi, arrays.counts[leaves]


def _lattice_grid(side: int, lo, hi, leaf_counts) -> np.ndarray:
    """The ``side x side`` lattice counts of :func:`_lattice_leaves`' leaves.

    Each leaf's count is spread evenly over the lattice cells it covers,
    which is the uniformity estimate the tree applies inside the leaf, so
    the lattice's uniform-grid answers equal the tree's.
    """
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


#: A consistent tree lowers onto the two-level grid only while its
#: tables take at most this many times the frontier engine's node vectors
#: (about twice what the frontier engine holds with its edge tables).
_GRID_BYTES_FACTOR = 5


def _grid_engine(synopsis: TreeSynopsis, slabs: dict[str, np.ndarray] | None):
    """The :class:`~repro.queries.engine.TwoLevelGridEngine` of a
    consistent release, or ``None`` when a leaf has zero area or the
    tables would break the size rule.

    A build sizes the tables first (:meth:`TwoLevelGridEngine.layout`).
    A load restores sealed tables with shape checks and the rule checked
    on their bytes; slabs sealed by another kernel are sized from the
    layout, which a release that lowers answers with ``KeyError`` (a
    cold start: the engine is rebuilt on first use).
    """
    from repro.queries.engine import FlatTreeEngine, TwoLevelGridEngine

    arrays = synopsis.arrays
    leaves = np.flatnonzero(arrays.leaf_mask)
    rects = arrays.rects.take(leaves, axis=0)
    widths = rects[:, 2:] - rects[:, :2]
    if not np.all((widths > 0).all(axis=1) & (widths.prod(axis=1) > 0)):
        return None
    root = arrays.rects[0]
    max_nbytes = _GRID_BYTES_FACTOR * FlatTreeEngine.buffer_nbytes(arrays.n_nodes)
    if slabs is not None and "cell_prefix" in slabs:
        engine = TwoLevelGridEngine(root, slabs)
        if engine.nbytes > max_nbytes:
            raise ValueError(
                f"sealed two-level tables hold {engine.nbytes} bytes, over "
                f"the {max_nbytes}-byte size rule"
            )
        return engine
    layout = TwoLevelGridEngine.layout(root, rects, arrays.counts[leaves])
    if layout.nbytes > max_nbytes:
        return None
    if slabs is not None:
        raise KeyError("the sealed slabs precede the two-level grid")
    return TwoLevelGridEngine.build(layout)


def tree_engine(synopsis: TreeSynopsis, slabs: dict[str, np.ndarray] | None = None):
    """The batch engine of a tree release, over ``slabs`` when given.

    A tree release has one of three kernels, decided once per engine
    from the release itself:

    * a consistent tree (every internal count its children's sum,
      :data:`_SUM_RTOL`) whose leaves lie on the ``2^h x 2^h`` lattice
      of its domain, with a lattice prefix no larger than the frontier
      engine's node vectors, is lowered onto that lattice:
      :class:`~repro.queries.engine.BatchQueryEngine` over its lattice
      counts (a default quadtree once the data fills it);
    * any other consistent tree whose leaves all have positive area is
      lowered onto a two-level grid of its leaves, the adaptive grid's
      :class:`~repro.queries.engine.TwoLevelGridEngine` (KD-hybrid, a
      pruned quadtree), while its tables take at most
      :data:`_GRID_BYTES_FACTOR` times the frontier engine's node
      vectors;
    * every other tree (KD-standard and any uninferred tree, a tree with
      a zero-area leaf, a tree over the size rule) keeps the
      frontier-descent :class:`~repro.queries.engine.FlatTreeEngine`.

    The kernel follows the release, not the slabs: slabs sealed for
    another kernel (e.g. before a lowering existed) raise ``KeyError`` or
    ``ValueError``.
    """
    from repro.queries.engine import BatchQueryEngine, FlatTreeEngine

    if _consistent(synopsis.arrays):
        lowered = _lattice_leaves(synopsis)
        if lowered is not None:
            domain = synopsis.domain
            if slabs is None:
                return BatchQueryEngine(
                    domain.lows, domain.highs, _lattice_grid(*lowered)
                )
            side = lowered[0]
            return BatchQueryEngine.from_slabs(
                domain.lows, domain.highs, (side, side), slabs
            )
        engine = _grid_engine(synopsis, slabs)
        if engine is not None:
            return engine
    return FlatTreeEngine(synopsis, slabs)

"""Private quadtree baseline.

A quadtree recursively splits every region into its four midpoint quadrants
(no privacy budget is needed to choose split points, unlike KD-trees).
Cormode et al. use it as a component of KD-hybrid; we also expose it as a
standalone baseline with optional geometric budget allocation and
constrained inference so the experiments can isolate the contribution of
each ingredient.
"""

from __future__ import annotations

from repro.baselines.kd_tree import KDTreeBuilder

__all__ = ["QuadtreeBuilder"]


class QuadtreeBuilder(KDTreeBuilder):
    """A pure quadtree: every level splits at region midpoints.

    ``quadtree_levels == depth``, so the inherited level builder never
    sorts and never spends median budget.

    Parameters
    ----------
    depth:
        Number of split levels; the leaf grid is ``2^depth x 2^depth``.
    geometric_budget:
        Allocate more count budget to deeper levels (ratio ``2^(1/3)``).
    constrained_inference:
        Apply Hay-et-al inference over the released tree.
    min_split_count:
        Stop splitting regions whose noisy count falls below the threshold.
    """

    name = "Quadtree"

    def __init__(
        self,
        depth: int = 8,
        geometric_budget: bool = True,
        constrained_inference: bool = True,
        min_split_count: float = 16.0,
    ):
        super().__init__(
            depth=depth,
            quadtree_levels=depth,
            median_fraction=0.0,
            geometric_budget=geometric_budget,
            constrained_inference=constrained_inference,
            min_split_count=min_split_count,
        )

    def label(self) -> str:
        return f"Quad{self.depth}"

"""Baselines: the methods the paper compares UG/AG against."""

from repro.baselines.constrained_inference import infer_level_order
from repro.baselines.flat import ExactGridBuilder, NoisyTotalBuilder
from repro.baselines.hierarchy import HierarchicalGridBuilder
from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder, KDTreeBuilder
from repro.baselines.privelet import PriveletBuilder
from repro.baselines.quadtree import QuadtreeBuilder
from repro.baselines.tree import TreeArrays, TreeSynopsis

__all__ = [
    "ExactGridBuilder",
    "HierarchicalGridBuilder",
    "KDHybridBuilder",
    "KDStandardBuilder",
    "KDTreeBuilder",
    "NoisyTotalBuilder",
    "PriveletBuilder",
    "QuadtreeBuilder",
    "TreeArrays",
    "TreeSynopsis",
    "infer_level_order",
]

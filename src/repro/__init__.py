"""repro — a reproduction of "Differentially Private Grids for Geospatial Data".

Qardaji, Yang, Li (ICDE 2013).  The package provides:

* the paper's contributions: the Uniform Grid (UG) and Adaptive Grid (AG)
  differentially private synopsis methods with their grid-size guidelines;
* every baseline the paper compares against: KD-standard, KD-hybrid,
  quadtrees, grid hierarchies with constrained inference, and Privelet;
* the evaluation machinery: the four (synthetic-analogue) datasets,
  query workloads, error metrics, and per-figure experiment runners;
* a serving layer (:mod:`repro.service`): build a release once, cache and
  persist it, and answer batched rectangle queries over HTTP
  (``python -m repro serve``) under per-dataset budget accounting.

This module re-exports the paper's library API below; the serving
layer's names are imported from :mod:`repro.service`, and importing
``repro`` does not load it.  Every other name is imported from the
module that defines it: the subpackages re-export nothing.

Quickstart::

    import numpy as np
    from repro import AdaptiveGridBuilder, make_checkin
    from repro.core.geometry import Rect

    data = make_checkin(100_000, rng=0)
    synopsis = AdaptiveGridBuilder().fit(data, epsilon=1.0, rng=np.random.default_rng(1))
    estimate = synopsis.answer(Rect(-10.0, 35.0, 30.0, 60.0))
"""

from repro.baselines.flat import ExactGridBuilder, NoisyTotalBuilder
from repro.baselines.hierarchy import HierarchicalGridBuilder
from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder, KDTreeBuilder
from repro.baselines.privelet import PriveletBuilder
from repro.baselines.quadtree import QuadtreeBuilder
from repro.analysis.uniformity import estimate_c, uniformity_profile
from repro.core.adaptive_grid import AdaptiveGridBuilder, AdaptiveGridSynopsis
from repro.core.dataset import GeoDataset
from repro.core.serialization import load_synopsis, save_synopsis
from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.guidelines import (
    adaptive_first_level_size,
    guideline1_grid_size,
    guideline2_cell_grid_size,
)
from repro.core.synopsis import Synopsis, SynopsisBuilder
from repro.core.uniform_grid import UniformGridBuilder, UniformGridSynopsis
from repro.datasets.registry import DATASETS, load_dataset
from repro.datasets.synthetic import (
    make_checkin,
    make_gaussian_mixture,
    make_landmark,
    make_road,
    make_storage,
    make_uniform,
)
from repro.privacy.budget import BudgetExceededError, PrivacyBudget
from repro.baselines.tree import TreeArrays, TreeSynopsis
from repro.queries.engine import (
    BatchQueryEngine,
    FlatTreeEngine,
    TwoLevelGridEngine,
    make_engine,
)
from repro.queries.metrics import ErrorProfile, absolute_errors, relative_errors
from repro.queries.workload import QueryWorkload

__version__ = "1.0.0"

__all__ = [
    "AdaptiveGridBuilder",
    "AdaptiveGridSynopsis",
    "BatchQueryEngine",
    "BudgetExceededError",
    "DATASETS",
    "Domain2D",
    "ErrorProfile",
    "ExactGridBuilder",
    "FlatTreeEngine",
    "GeoDataset",
    "GridLayout",
    "HierarchicalGridBuilder",
    "KDHybridBuilder",
    "KDStandardBuilder",
    "KDTreeBuilder",
    "NoisyTotalBuilder",
    "PrivacyBudget",
    "PriveletBuilder",
    "QuadtreeBuilder",
    "QueryWorkload",
    "Rect",
    "Synopsis",
    "SynopsisBuilder",
    "TreeArrays",
    "TreeSynopsis",
    "TwoLevelGridEngine",
    "UniformGridBuilder",
    "UniformGridSynopsis",
    "absolute_errors",
    "adaptive_first_level_size",
    "estimate_c",
    "guideline1_grid_size",
    "guideline2_cell_grid_size",
    "load_dataset",
    "load_synopsis",
    "make_checkin",
    "make_engine",
    "make_gaussian_mixture",
    "make_landmark",
    "make_road",
    "make_storage",
    "make_uniform",
    "relative_errors",
    "save_synopsis",
    "uniformity_profile",
]

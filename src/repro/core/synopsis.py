"""The synopsis abstraction.

A *synopsis* is the differentially private release described in Section II
of the paper: a partition of the domain into cells together with noisy
per-cell counts.  Once built (``fit``), a synopsis answers rectangular
count queries using only its released state — it never looks at the raw
data again, which is what makes the release safe to publish.

Concrete synopses (UG, AG, KD trees, hierarchies, Privelet, ...) subclass
:class:`Synopsis` and implement :meth:`Synopsis.answer`.  Batches need no
code of their own: :meth:`Synopsis.answer_many` answers them through the
release's one batch engine (:attr:`Synopsis.engine`), the engine of the
type's declared row (see :mod:`repro.core.serialization`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect
from repro.privacy.budget import PrivacyBudget

__all__ = ["Synopsis", "SynopsisBuilder"]


class Synopsis(abc.ABC):
    """A differentially private synopsis of a 2-D dataset.

    Subclasses are constructed by their builder's ``fit`` and must populate
    ``domain`` and ``epsilon``.
    """

    #: The batch engine this release answers through: restored by the
    #: archive loader from the buffers sealed in a v2 archive, prepared
    #: by the store's build, or else built on first use by
    #: :func:`~repro.queries.engine.make_engine`, which every caller goes
    #: through; ``None`` until then.  The released state never changes,
    #: so one engine per release object serves every batch.
    engine = None

    #: Size in bytes of the read-only file mapping backing this
    #: synopsis's arrays (archive format v2); 0 when the synopsis owns
    #: private copies.  The serving layer surfaces this per release in
    #: ``/health`` so shared-page footprint is observable.
    mapped_nbytes: int = 0

    def __init__(self, domain: Domain2D, epsilon: float):
        self._domain = domain
        self._epsilon = epsilon

    @property
    def domain(self) -> Domain2D:
        return self._domain

    @property
    def epsilon(self) -> float:
        """The total privacy budget consumed to build this synopsis."""
        return self._epsilon

    @abc.abstractmethod
    def answer(self, rect: Rect) -> float:
        """Estimated number of data points in the query rectangle.

        Uses the uniformity assumption for cells partially covered by the
        query.  Estimates may be negative because of Laplace noise; callers
        who need non-negative counts can clamp.
        """

    def answer_many(self, rects: "list[Rect] | np.ndarray") -> np.ndarray:
        """Vector of estimates for a batch of query rectangles.

        Accepts a list of :class:`Rect`, a list of 4-number rows, or an
        ``(n, 4)`` array, and answers through the release's one engine,
        :func:`~repro.queries.engine.make_engine`'s, which raises
        ``TypeError`` for a type with no declared kind.
        """
        from repro.queries.engine import make_engine

        return make_engine(self).answer_batch(rects)

    def total(self) -> float:
        """Estimated total number of points (query over the whole domain).

        A batch of one through :meth:`answer_many`, so the whole-domain
        estimate is bit-identical to the served answer for the same rect.
        """
        return float(self.answer_many([self._domain.bounds])[0])

    def drift_cells(self, max_cells: int = 1024) -> np.ndarray:
        """Partition cells used to compare the release against new data.

        Returns ``(k, 4)`` rows of ``(x_lo, y_lo, x_hi, y_hi)`` covering
        the domain.  Streaming ingestion histograms newly arrived points
        over these cells and compares the distribution against what the
        release itself estimates for the same cells (the build-vs-fill
        drift signal of Dasu et al.'s kdq-trees): when the two diverge,
        the release no longer describes the data and a re-release is
        due.  The default is an equi-width grid of at most ``max_cells``
        cells; subclasses whose released state *is* a partition override
        this so drift is measured on the cells the release actually
        uses.
        """
        return _default_drift_cells(self._domain, max_cells)

    def synthetic_points(self, rng: np.random.Generator) -> np.ndarray:
        """Generate a synthetic point cloud from the released synopsis.

        The default implementation raises; grid-backed synopses override it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support synthetic data generation"
        )


def _default_drift_cells(domain: Domain2D, max_cells: int) -> np.ndarray:
    """An ``m x m`` equi-width cell cover with ``m*m <= max_cells``."""
    from repro.core.grid import GridLayout

    m = max(1, int(np.sqrt(max_cells)))
    layout = GridLayout(domain, m)
    x_lo, y_lo, width, height = layout.flat_cell_geometry()
    return np.column_stack([x_lo, y_lo, x_lo + width, y_lo + height])


class SynopsisBuilder(abc.ABC):
    """Factory that fits a :class:`Synopsis` to a dataset under a budget.

    Builders carry the method's hyper-parameters (grid sizes, budget splits,
    tree depths); ``fit`` consumes the dataset once and returns the released
    synopsis.  A fresh :class:`~repro.privacy.budget.PrivacyBudget` is
    created per fit unless the caller supplies one (e.g. to share a budget
    across a pipeline).
    """

    #: Short algorithm label used in experiment reports (e.g. ``"UG"``).
    name: str = "synopsis"

    @abc.abstractmethod
    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> Synopsis:
        """Build a differentially private synopsis of ``dataset``.

        Parameters
        ----------
        dataset:
            The sensitive input data.
        epsilon:
            Total privacy budget for the release.
        rng:
            Source of randomness for the DP mechanisms.
        budget:
            Optional externally managed budget; when omitted the builder
            creates one of size ``epsilon`` and must exhaust at most that.
        """

    def label(self) -> str:
        """Human-readable description including hyper-parameters."""
        return self.name

    def _budget(self, epsilon: float, budget: PrivacyBudget | None) -> PrivacyBudget:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        return budget if budget is not None else PrivacyBudget(epsilon)

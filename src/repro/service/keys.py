"""Release keys and the servable-method table.

A *release key* names one published synopsis within a store: which
dataset instance was summarised, with which method, at what privacy
level, and from which seed.  Keys are hashable (cache keys), orderable
(stable listings), and round-trip through a filesystem-safe slug
(persistence filenames).  Which tenant a release belongs to is the
store's business, not the key's: each tenant's
:class:`~repro.service.store.SynopsisStore` keeps its releases in its
own directory and salts their noise (see :meth:`ReleaseKey.build_rng`).

The method table maps the short method names the paper uses (``UG``,
``AG``) to builder factories.  It and the synopsis kind table of
:mod:`repro.core.serialization` are the only two places a synopsis
family is declared.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.one_dim import OneDimHistogramBuilder
from repro.baselines.hierarchy import HierarchicalGridBuilder
from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder
from repro.baselines.privelet import PriveletBuilder
from repro.baselines.quadtree import QuadtreeBuilder
from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.synopsis import SynopsisBuilder
from repro.core.uniform_grid import UniformGridBuilder
from repro.datasets.registry import DATASETS
from repro.extensions.multidim import MultiDimGridBuilder
from repro.service.errors import ValidationError

__all__ = [
    "ReleaseKey",
    "method_names",
    "make_builder",
]

#: Servable methods: name -> zero-argument builder factory (each builder
#: has guideline defaults).  Methods map many-to-one onto the synopsis
#: kinds of :mod:`repro.core.serialization`: Quad, Kst and Khy all
#: release a tree, served by the lattice or level-order tree engine.
#: Hier1d serves the 1-D hierarchical histogram over the x-marginal.
_METHODS: dict[str, Callable[[], SynopsisBuilder]] = {
    "UG": UniformGridBuilder,
    "AG": AdaptiveGridBuilder,
    "Quad": QuadtreeBuilder,
    "Kst": KDStandardBuilder,
    "Khy": KDHybridBuilder,
    "Hier": HierarchicalGridBuilder,
    "Privelet": PriveletBuilder,
    "UGnd": MultiDimGridBuilder,
    "Hier1d": OneDimHistogramBuilder,
}


def method_names() -> list[str]:
    """Names of the servable methods, sorted."""
    return sorted(_METHODS)


def make_builder(method: str) -> SynopsisBuilder:
    """Instantiate the builder for a servable method name."""
    try:
        factory = _METHODS[method]
    except KeyError:
        raise ValidationError(
            f"unknown method {method!r}; servable methods: "
            f"{', '.join(method_names())}"
        ) from None
    return factory()


@dataclass(frozen=True, order=True)
class ReleaseKey:
    """Identity of one released synopsis.

    ``dataset`` and ``seed`` together name the sensitive data instance
    (the registry generator seeded with ``seed``); ``method`` and
    ``epsilon`` describe the release built from it.  Budget accounting
    therefore groups keys by ``(dataset, seed)`` — see
    :class:`~repro.service.store.SynopsisStore`.  A key names a release
    within one store; two tenants' stores building the same key own
    distinct releases.
    """

    dataset: str
    method: str
    epsilon: float
    seed: int

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValidationError(
                f"unknown dataset {self.dataset!r}; available: "
                f"{', '.join(DATASETS)}"
            )
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; servable methods: "
                f"{', '.join(method_names())}"
            )
        if not (isinstance(self.epsilon, (int, float)) and self.epsilon > 0):
            raise ValidationError(
                f"epsilon must be a positive number, got {self.epsilon!r}"
            )
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValidationError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )

    @property
    def data_id(self) -> str:
        """Identifier of the sensitive dataset instance this key reads."""
        return f"{self.dataset}|{self.seed}"

    def slug(self) -> str:
        """Filesystem-safe name that round-trips through :meth:`from_slug`.

        Epsilon uses ``repr`` (shortest exact decimal), so distinct
        epsilons never collide onto one persistence filename and the
        round trip is lossless.
        """
        return (
            f"{self.dataset}_{self.method}_eps{float(self.epsilon)!r}"
            f"_seed{self.seed}"
        )

    @classmethod
    def from_slug(cls, slug: str) -> "ReleaseKey":
        parts = slug.split("_")
        if (
            len(parts) != 4
            or not parts[2].startswith("eps")
            or not parts[3].startswith("seed")
        ):
            raise ValidationError(f"malformed release slug {slug!r}")
        try:
            epsilon = float(parts[2][3:])
            seed = int(parts[3][4:])
        except ValueError:
            raise ValidationError(f"malformed release slug {slug!r}") from None
        return cls(dataset=parts[0], method=parts[1], epsilon=epsilon, seed=seed)

    def to_payload(self) -> dict:
        """JSON-friendly representation used in HTTP responses."""
        return {
            "dataset": self.dataset,
            "method": self.method,
            "epsilon": self.epsilon,
            "seed": self.seed,
        }

    def build_rng(self, *salts: int) -> np.random.Generator:
        """Deterministic RNG for building this release.

        Streams are separated per key (dataset seed, method, epsilon) so
        the same key always yields bit-identical releases while distinct
        keys draw independent noise.  Epsilon enters the entropy as its
        exact IEEE-754 bit pattern: *any* two distinct epsilons get
        independent streams.  Quantizing here would let two
        budget-approved releases at nearby epsilons share one noise draw,
        and correlated noise at different scales cancels — an attacker
        could recover the exact sensitive counts from the pair.

        ``salts`` are appended to the entropy as given, so each distinct
        salt sequence draws its own stream.
        :meth:`~repro.service.store.SynopsisStore.build` passes the
        ingest epoch of a build that incorporates streamed points (a
        release over different data must not reuse the noise of the
        release before it, or the pair could be differenced into the
        exact counts of the new points), then the ``crc32`` of a
        non-default tenant; a default tenant's first build passes none.
        """
        entropy = (
            self.seed,
            zlib.crc32(self.method.encode()),
            struct.unpack("<Q", struct.pack("<d", float(self.epsilon)))[0],
            *(int(salt) for salt in salts),
        )
        return np.random.default_rng(np.random.SeedSequence(entropy))

"""Release keys and the servable-method registry.

A *release key* identifies one published synopsis: which dataset instance
was summarised, with which method, at what privacy level, and from which
seed.  Keys are hashable (cache keys), orderable (stable listings), and
round-trip through a filesystem-safe slug (persistence filenames).

The method table maps the short method names the paper uses (``UG``,
``AG``) to builder factories.  It and the synopsis kind table of
:mod:`repro.core.serialization` are the only two places a synopsis
family is declared.  It is intentionally open: downstream code can
:func:`register_method` any :class:`~repro.core.synopsis.SynopsisBuilder`
whose synopsis type has a declared kind.
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
    "register_method",
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


def register_method(name: str, factory: Callable[[], SynopsisBuilder]) -> None:
    """Register (or replace) a servable synopsis method."""
    if not name or any(ch in name for ch in "_|/\\ "):
        raise ValueError(f"invalid method name {name!r}")
    _METHODS[name] = factory


def method_names() -> list[str]:
    """Names of the servable methods, sorted."""
    return sorted(_METHODS)


def make_builder(method: str) -> SynopsisBuilder:
    """Instantiate the builder for a registered method name."""
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
    :class:`~repro.service.store.SynopsisStore`.

    ``tenant`` namespaces the key: two tenants building the same
    ``(dataset, method, epsilon, seed)`` own *distinct* releases with
    independent noise, caches, and ledgers.  The default value keeps
    every pre-tenancy construction site and wire payload working — a
    key with ``tenant="default"`` behaves (slug, payload, ordering
    among defaults) exactly as before the field existed.  The slug
    deliberately omits the tenant: archives are partitioned into
    per-tenant directories by the store, and the binary protocol's
    slug framing stays unchanged (the server stamps the authenticated
    tenant onto decoded keys).
    """

    dataset: str
    method: str
    epsilon: float
    seed: int
    tenant: str = "default"

    def __post_init__(self) -> None:
        from repro.service.catalog import validate_tenant_id

        validate_tenant_id(self.tenant)
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
        """JSON-friendly representation used in HTTP responses.

        The tenant appears only when it is not the implicit default, so
        single-tenant deployments see payloads byte-identical to the
        pre-tenancy format.
        """
        payload = {
            "dataset": self.dataset,
            "method": self.method,
            "epsilon": self.epsilon,
            "seed": self.seed,
        }
        if self.tenant != "default":
            payload["tenant"] = self.tenant
        return payload

    def with_tenant(self, tenant: str) -> "ReleaseKey":
        """This key stamped into a tenant namespace."""
        if tenant == self.tenant:
            return self
        return ReleaseKey(
            dataset=self.dataset,
            method=self.method,
            epsilon=self.epsilon,
            seed=self.seed,
            tenant=tenant,
        )

    def build_rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic RNG for building this release.

        Streams are separated per key (dataset seed, method, epsilon) so
        the same key always yields bit-identical releases while distinct
        keys draw independent noise.  Epsilon enters the entropy as its
        exact IEEE-754 bit pattern: *any* two distinct epsilons get
        independent streams.  Quantizing here would let two
        budget-approved releases at nearby epsilons share one noise draw,
        and correlated noise at different scales cancels — an attacker
        could recover the exact sensitive counts from the pair.

        ``salt`` separates noise streams *across ingest epochs* of the
        same key: a re-release that incorporates streamed points fits
        different data, and reusing the epoch-0 noise stream on it would
        let release pairs be differenced into the exact counts of the
        newly ingested points.  Ingestion passes the number of
        incorporated points as the salt — deterministic under crash
        replay (same incorporated prefix, same stream) yet distinct for
        every distinct data state.  ``salt=0`` (every non-streaming
        build) leaves the entropy, and hence every existing release,
        bit-identical to before.
        """
        entropy = (
            self.seed,
            zlib.crc32(self.method.encode()),
            struct.unpack("<Q", struct.pack("<d", float(self.epsilon)))[0],
        )
        if salt:
            entropy = entropy + (int(salt),)
        if self.tenant != "default":
            # Non-default tenants draw independent noise streams: if two
            # tenants' copies of a dataset instance ever diverge (e.g.
            # per-tenant ingest), shared streams across their releases
            # could be differenced into exact counts.  The default tenant
            # contributes no entropy, keeping every pre-tenancy release
            # bit-identical.
            entropy = entropy + (zlib.crc32(self.tenant.encode()),)
        return np.random.default_rng(np.random.SeedSequence(entropy))

"""Queryable SKU catalog.

The catalog is the second of the Price-Performance Modeler's three
inputs (paper Figure 3: "SKU Configs").  It wraps the generated SKU
list with the filtering operations the engine needs: restrict by
deployment type and tier, drop SKUs that cannot hold the database, and
iterate in price order (the natural order of the price-performance
curve's x axis).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .generator import default_catalog_skus
from .models import DeploymentType, ServiceTier, SkuSpec

__all__ = ["SkuCatalog", "catalog_signature"]


@dataclass(frozen=True)
class SkuCatalog:
    """Immutable, price-sortable collection of SKUs.

    Attributes:
        skus: The SKUs in this catalog, sorted by monthly price
            ascending (ties broken by vCores then name for
            determinism).
    """

    skus: tuple[SkuSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.skus, key=lambda sku: (sku.monthly_price, sku.vcores, sku.name))
        )
        object.__setattr__(self, "skus", ordered)
        names = [sku.name for sku in ordered]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ValueError(f"duplicate SKU names in catalog: {duplicates[:5]}")

    @classmethod
    def default(cls) -> "SkuCatalog":
        """The generated 200+-SKU Azure SQL PaaS stand-in catalog."""
        return cls(skus=tuple(default_catalog_skus()))

    @classmethod
    def from_skus(cls, skus: Iterable[SkuSpec]) -> "SkuCatalog":
        return cls(skus=tuple(skus))

    def __len__(self) -> int:
        return len(self.skus)

    def __iter__(self) -> Iterator[SkuSpec]:
        return iter(self.skus)

    def __getitem__(self, index: int) -> SkuSpec:
        return self.skus[index]

    def by_name(self, name: str) -> SkuSpec:
        """Look up a SKU by its stable name.

        Raises:
            KeyError: If no SKU has that name.
        """
        for sku in self.skus:
            if sku.name == name:
                return sku
        raise KeyError(name)

    def filter(self, predicate: Callable[[SkuSpec], bool]) -> "SkuCatalog":
        """Return a sub-catalog of the SKUs matching ``predicate``."""
        return SkuCatalog(skus=tuple(sku for sku in self.skus if predicate(sku)))

    def for_deployment(self, deployment: DeploymentType) -> "SkuCatalog":
        """Restrict to one deployment type (DB or MI)."""
        return self.filter(lambda sku: sku.deployment is deployment)

    def for_tier(self, tier: ServiceTier) -> "SkuCatalog":
        """Restrict to one service tier (GP or BC)."""
        return self.filter(lambda sku: sku.tier is tier)

    def fitting_storage(self, required_gb: float) -> "SkuCatalog":
        """Keep SKUs whose max data size covers ``required_gb`` at 100 %.

        Storage is the one dimension the paper never negotiates on: a
        SKU that cannot hold the data is simply not a candidate.
        """
        return self.filter(lambda sku: sku.limits.max_data_size_gb >= required_gb)

    def cheapest(self) -> SkuSpec:
        """The cheapest SKU by monthly price.

        Raises:
            ValueError: If the catalog is empty.
        """
        if not self.skus:
            raise ValueError("catalog is empty")
        return self.skus[0]

    def price_range(self) -> tuple[float, float]:
        """(min, max) monthly price across the catalog."""
        if not self.skus:
            raise ValueError("catalog is empty")
        prices = [sku.monthly_price for sku in self.skus]
        return min(prices), max(prices)

    def names(self) -> Sequence[str]:
        return [sku.name for sku in self.skus]


def catalog_signature(catalog: SkuCatalog) -> str:
    """Stable content hash of a catalog: every field a SKU pickles.

    Two catalogs share a signature only if they hold the same SKUs
    field for field -- deployment, tier, hardware, every resource
    limit, price and name, compared by ``repr`` so even ``2`` and
    ``2.0`` differ.  The catalog's own (price, vCores, name) order is
    a function of that content, so it needs no re-sort.

    The signature keys both the fleet curve cache and the candidate
    tuples curves pickle by reference
    (:func:`~repro.core.curve.intern_candidates`), so it must not
    change between processes or releases that read each other's
    pickles: a changed signature makes stored by-reference curves
    unresolvable.
    """
    text = "\n".join(
        repr(
            (
                sku.name,
                sku.deployment.value,
                sku.tier.value,
                sku.hardware.value,
                sku.price_per_hour,
                sku.limits.__getstate__(),
            )
        )
        for sku in catalog.skus
    )
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()

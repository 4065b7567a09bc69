"""Azure SQL PaaS SKU catalog substrate.

Models the cloud-target side of the recommendation problem: SKU
capacity vectors, premium-disk storage tiers for Managed Instance, the
billing interface and a generated 200+-SKU catalog standing in for the
proprietary Azure price sheet (see DESIGN.md section 2).
"""

from .catalog import SkuCatalog, catalog_signature
from .generator import DB_VCORE_LADDER, MI_VCORE_LADDER, default_catalog_skus, generate_skus
from .models import (
    HOURS_PER_MONTH,
    DeploymentType,
    HardwareGeneration,
    ResourceLimits,
    ServiceTier,
    SkuSpec,
)
from .pricing import DEFAULT_PRICING, PricingModel
from .serialize import (
    catalog_from_dict,
    catalog_to_dict,
    dump_catalog_json,
    load_catalog_json,
)
from .storage import (
    IOPS_THROUGHPUT_COVERAGE,
    PREMIUM_DISK_TIERS,
    FileLayout,
    StorageTier,
    plan_file_layout,
    tier_for_file_size,
)

__all__ = [
    "SkuCatalog",
    "catalog_signature",
    "DB_VCORE_LADDER",
    "MI_VCORE_LADDER",
    "default_catalog_skus",
    "generate_skus",
    "HOURS_PER_MONTH",
    "DeploymentType",
    "HardwareGeneration",
    "ResourceLimits",
    "ServiceTier",
    "SkuSpec",
    "DEFAULT_PRICING",
    "catalog_from_dict",
    "catalog_to_dict",
    "dump_catalog_json",
    "load_catalog_json",
    "PricingModel",
    "IOPS_THROUGHPUT_COVERAGE",
    "PREMIUM_DISK_TIERS",
    "FileLayout",
    "StorageTier",
    "plan_file_layout",
    "tier_for_file_size",
]

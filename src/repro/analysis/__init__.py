"""Closed-form analysis of the trapezoid protocol.

The paper's section IV, vectorized over node availability p: the Φ
combinator (eq. 7), write availability (eqs. 8-9), read availability for
TRAP-FR (eq. 10) and TRAP-ERC (eq. 13), storage accounting (eqs. 14-15),
plus the exact snapshot-model read availability (level-occupancy counts)
that the published formulas are validated against.
"""

from repro.analysis.availability import (
    erc_betas_lambdas,
    read_availability_erc,
    read_availability_erc_terms,
    read_availability_fr,
    validate_erc_geometry,
    write_availability,
    write_availability_family,
)
from repro.analysis.exact import counts_to_probability, exact_read_erc, fold_read_erc
from repro.analysis.occupancy import (
    erc_level_counts,
    erc_level_counts_family,
    occupancy_cache_clear,
    occupancy_cache_info,
)
from repro.analysis.cost import (
    expected_read_check_polls,
    quorum_size_summary,
    read_messages_erc_decode,
    read_messages_erc_direct,
    write_messages_erc,
)
from repro.analysis.optimizer import (
    ConfigPoint,
    OptimizationResult,
    optimize_config,
    optimize_config_sweep,
)
from repro.analysis.phi import at_least, at_least_table, exactly
from repro.analysis.storage import (
    storage_erc,
    storage_fr,
    storage_saving,
    storage_series,
    stripe_storage_erc,
    stripe_storage_fr,
)

__all__ = [
    "at_least",
    "at_least_table",
    "exactly",
    "write_messages_erc",
    "read_messages_erc_direct",
    "read_messages_erc_decode",
    "expected_read_check_polls",
    "quorum_size_summary",
    "ConfigPoint",
    "OptimizationResult",
    "optimize_config",
    "optimize_config_sweep",
    "write_availability",
    "write_availability_family",
    "read_availability_fr",
    "read_availability_erc",
    "read_availability_erc_terms",
    "erc_betas_lambdas",
    "validate_erc_geometry",
    "exact_read_erc",
    "fold_read_erc",
    "counts_to_probability",
    "erc_level_counts",
    "erc_level_counts_family",
    "occupancy_cache_clear",
    "occupancy_cache_info",
    "storage_fr",
    "storage_erc",
    "storage_saving",
    "storage_series",
    "stripe_storage_fr",
    "stripe_storage_erc",
]

"""Core LpBound machinery: degree statistics and the bound LP."""

from .catalog import StatisticsCatalog, collect_statistics
from .certificates import certificate_gap, product_form, verify_certificate
from .constraints import fd_statistic, key_statistic, key_statistics_for_query
from .conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from .degree import average_degree, degree_sequence, max_degree
from .lp_bound import (
    CONES,
    LP_MODES,
    BoundResult,
    BoundSolver,
    BoundTask,
    BoundTaskError,
    active_lp_mode,
    configured_lp_mode,
    forced_lp_mode,
    lp_bound,
    lp_bound_many,
    set_lp_mode,
)
from .lru import LruCache, approx_bytes
from .norms import (
    log2_norm,
    lp_norm,
    norms_of_sequence,
    sequence_from_norms,
)

__all__ = [
    "Conditional",
    "AbstractStatistic",
    "ConcreteStatistic",
    "StatisticsSet",
    "StatisticsCatalog",
    "collect_statistics",
    "degree_sequence",
    "max_degree",
    "average_degree",
    "log2_norm",
    "lp_norm",
    "norms_of_sequence",
    "sequence_from_norms",
    "lp_bound",
    "lp_bound_many",
    "BoundResult",
    "BoundSolver",
    "BoundTask",
    "BoundTaskError",
    "LruCache",
    "approx_bytes",
    "CONES",
    "LP_MODES",
    "active_lp_mode",
    "configured_lp_mode",
    "forced_lp_mode",
    "set_lp_mode",
    "product_form",
    "verify_certificate",
    "certificate_gap",
    "fd_statistic",
    "key_statistic",
    "key_statistics_for_query",
]

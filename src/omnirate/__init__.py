"""omnirate: coalitional-game rate allocation for communication for omniscience.

Models a group of users exchanging information until everyone can
reconstruct the whole source, as a coalitional game: minimum sum-rates for
both divisible and integer rates, core nonemptiness with certificates,
Dilworth truncation to the equivalent convex game, Shapley / greedy-vertex /
integer-core allocations, and Jain-index fairness reporting. All arithmetic
is exact rational.
"""

from .allocation import (
    Allocation,
    CoreEmptyError,
    enumerate_integer_core,
    fairness_compare,
    greedy_vertex,
    greedy_vertices,
    jain_index,
    shapley,
)
from .combinatorics import (
    Partition,
    bits,
    min_partition_sum,
    partition_min_table,
    subsets,
)
from .dilworth import (
    ConvexCharacteristic,
    TruncatedDual,
    convex_characteristic,
    dilworth_truncate,
    greedy_marginals,
)
from .game import (
    Decision,
    Game,
    RateVector,
    dual_membership,
    in_core,
)
from .models import (
    EntropyTable,
    IntegralityError,
    InvalidModelError,
    ModelFormatError,
    PacketModel,
    SourceModel,
    ValidationReport,
    Violation,
    load_model,
    model_digest,
    model_from_dict,
    validate_polymatroid,
)
from .rationals import format_rational, parse_rational
from .sumrate import (
    MmiResult,
    NonemptinessCertificate,
    SumRateReport,
    core_nonempty,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
    mmi,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ConvexCharacteristic",
    "CoreEmptyError",
    "Decision",
    "EntropyTable",
    "Game",
    "IntegralityError",
    "InvalidModelError",
    "MmiResult",
    "ModelFormatError",
    "NonemptinessCertificate",
    "PacketModel",
    "Partition",
    "RateVector",
    "SourceModel",
    "SumRateReport",
    "TruncatedDual",
    "ValidationReport",
    "Violation",
    "bits",
    "convex_characteristic",
    "core_nonempty",
    "dilworth_truncate",
    "dual_membership",
    "enumerate_integer_core",
    "fairness_compare",
    "format_rational",
    "greedy_marginals",
    "greedy_vertex",
    "greedy_vertices",
    "in_core",
    "jain_index",
    "load_model",
    "min_partition_sum",
    "min_sum_rate_asymptotic",
    "min_sum_rate_non_asymptotic",
    "mmi",
    "model_digest",
    "model_from_dict",
    "parse_rational",
    "partition_min_table",
    "shapley",
    "subsets",
    "validate_polymatroid",
]

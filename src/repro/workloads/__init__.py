"""Workload models: services, costs, payloads, arrival processes."""

from .alibaba import verify_average_rate
from .arrivals import MmppArrivals, PoissonArrivals, make_arrivals
from .calibration import (
    ALIBABA_AVERAGE_RPS,
    AVERAGE_TAX_FRACTIONS,
    MS,
    US,
    BranchProbabilities,
    OrchestrationCosts,
    RemoteLatencies,
    TaxCategory,
)
from .costs import CostModel
from .deathstarbench import hotel_reservation_services, media_services
from .payloads import SIZE_FACTORS, PayloadModel
from .request import Buckets, Request
from .relief_suite import (
    COARSE_ACCELERATOR_SLOTS,
    COARSE_SPEEDUPS,
    coarse_machine_params,
    relief_suite_registry,
    relief_suite_services,
)
from .serverless import SERVERLESS_NAMES, serverless_functions
from .socialnetwork import SOCIAL_NETWORK_NAMES, social_network_services
from .trainticket import train_ticket_services
from .usuite import usuite_services
from .spec import (
    CATEGORY_OF_KIND,
    CpuSegment,
    ParallelInvocations,
    PathStep,
    ServiceSpec,
    TraceInvocation,
    count_ops_by_category,
    expand_chain,
    most_common_state,
    total_accelerators,
)

__all__ = [
    "ALIBABA_AVERAGE_RPS",
    "AVERAGE_TAX_FRACTIONS",
    "BranchProbabilities",
    "CATEGORY_OF_KIND",
    "COARSE_ACCELERATOR_SLOTS",
    "COARSE_SPEEDUPS",
    "CostModel",
    "CpuSegment",
    "MS",
    "MmppArrivals",
    "OrchestrationCosts",
    "ParallelInvocations",
    "PathStep",
    "PayloadModel",
    "Request",
    "Buckets",
    "PoissonArrivals",
    "RemoteLatencies",
    "SERVERLESS_NAMES",
    "SIZE_FACTORS",
    "SOCIAL_NETWORK_NAMES",
    "ServiceSpec",
    "TaxCategory",
    "TraceInvocation",
    "US",
    "make_arrivals",
    "coarse_machine_params",
    "count_ops_by_category",
    "expand_chain",
    "hotel_reservation_services",
    "media_services",
    "most_common_state",
    "relief_suite_registry",
    "relief_suite_services",
    "serverless_functions",
    "social_network_services",
    "train_ticket_services",
    "usuite_services",
    "total_accelerators",
]

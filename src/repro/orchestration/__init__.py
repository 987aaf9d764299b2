"""Orchestration architectures: Non-acc, CPU-Centric, RELIEF (+ladder),
Cohort, AccelFlow and Ideal."""

from typing import Dict, Type

from .accelflow import AccelFlowOrchestrator, IdealOrchestrator
from .adaptive import AdaptiveAccelFlowOrchestrator
from .base import Orchestrator, REMOTE_DEPENDENCY_OF_TRACE
from .cohort import CohortOrchestrator, DEFAULT_LINKED_PAIRS
from .cpu_centric import CpuCentricOrchestrator
from .hw_manager import LADDER_VARIANTS, HwManagerOrchestrator, LadderConfig
from .nonacc import NonAcceleratedOrchestrator

__all__ = [
    "ARCHITECTURES",
    "AccelFlowOrchestrator",
    "AdaptiveAccelFlowOrchestrator",
    "CohortOrchestrator",
    "CpuCentricOrchestrator",
    "DEFAULT_LINKED_PAIRS",
    "HwManagerOrchestrator",
    "IdealOrchestrator",
    "LADDER_VARIANTS",
    "LadderConfig",
    "NonAcceleratedOrchestrator",
    "Orchestrator",
    "REMOTE_DEPENDENCY_OF_TRACE",
    "make_orchestrator",
]

#: Architecture name -> orchestrator class (ladder rungs are configured
#: through :func:`make_orchestrator`).
ARCHITECTURES: Dict[str, Type[Orchestrator]] = {
    "non-acc": NonAcceleratedOrchestrator,
    "cpu-centric": CpuCentricOrchestrator,
    "relief": HwManagerOrchestrator,
    "per-acc-type-q": HwManagerOrchestrator,
    "direct": HwManagerOrchestrator,
    "cntrflow": HwManagerOrchestrator,
    "cohort": CohortOrchestrator,
    "accelflow": AccelFlowOrchestrator,
    "accelflow-adaptive": AdaptiveAccelFlowOrchestrator,
    "ideal": IdealOrchestrator,
}


def make_orchestrator(architecture: str, *args, **kwargs) -> Orchestrator:
    """Instantiate the orchestrator for an architecture name."""
    try:
        cls = ARCHITECTURES[architecture]
    except KeyError:
        raise ValueError(
            f"unknown architecture {architecture!r}; "
            f"known: {sorted(ARCHITECTURES)} "
            f"(ladder rungs of the RELIEF family: {sorted(LADDER_VARIANTS)})"
        ) from None
    if architecture in LADDER_VARIANTS:
        kwargs.setdefault("config", LADDER_VARIANTS[architecture])
    return cls(*args, **kwargs)

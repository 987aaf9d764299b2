"""Orchestration architectures: Non-acc, CPU-Centric, RELIEF (+ladder),
Cohort, AccelFlow and Ideal."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict, Type

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .base import Orchestrator

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

#: Architecture name -> orchestrator class name, resolved through the
#: lazy exports below. The RELIEF ladder rungs share one class and differ
#: in their ``LADDER_VARIANTS`` config.
_CLASS_OF = {
    "non-acc": "NonAcceleratedOrchestrator",
    "cpu-centric": "CpuCentricOrchestrator",
    "relief": "HwManagerOrchestrator",
    "per-acc-type-q": "HwManagerOrchestrator",
    "direct": "HwManagerOrchestrator",
    "cntrflow": "HwManagerOrchestrator",
    "cohort": "CohortOrchestrator",
    "accelflow": "AccelFlowOrchestrator",
    "accelflow-adaptive": "AdaptiveAccelFlowOrchestrator",
    "ideal": "IdealOrchestrator",
}


def _export(name: str):
    """A name of this package, importing its submodule on first use."""
    return getattr(sys.modules[__name__], name)


def _architectures() -> Dict[str, Type[Orchestrator]]:
    """``ARCHITECTURES``: architecture name -> orchestrator class (ladder
    rungs are configured through :func:`make_orchestrator`)."""
    return {arch: _export(name) for arch, name in _CLASS_OF.items()}


def make_orchestrator(architecture: str, *args, **kwargs) -> Orchestrator:
    """Instantiate the orchestrator for an architecture name, importing
    only that architecture's module."""
    if architecture not in _CLASS_OF:
        raise ValueError(
            f"unknown architecture {architecture!r}; "
            f"known: {sorted(_CLASS_OF)} "
            f"(ladder rungs of the RELIEF family: "
            f"{sorted(_export('LADDER_VARIANTS'))})"
        )
    name = _CLASS_OF[architecture]
    if name == "HwManagerOrchestrator":
        kwargs.setdefault("config", _export("LADDER_VARIANTS")[architecture])
    return _export(name)(*args, **kwargs)


__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".accelflow": ("AccelFlowOrchestrator", "IdealOrchestrator"),
        ".adaptive": ("AdaptiveAccelFlowOrchestrator",),
        ".base": ("Orchestrator", "REMOTE_DEPENDENCY_OF_TRACE"),
        ".cohort": ("CohortOrchestrator", "DEFAULT_LINKED_PAIRS"),
        ".cpu_centric": ("CpuCentricOrchestrator",),
        ".hw_manager": ("LADDER_VARIANTS", "HwManagerOrchestrator", "LadderConfig"),
        ".nonacc": ("NonAcceleratedOrchestrator",),
    },
    built={"ARCHITECTURES": _architectures},
)

"""Synthetic Alibaba-production-trace substitute (Fig 11-13 load model).

The paper picks 8 Alibaba services [54] with size/call structure
matching the 8 SocialNetwork services and replays their real invocation
rates (average 13.4K RPS per service). The public characterization of
those traces shows diurnal rate skew across services and short bursty
regimes; we reproduce both with per-service rates fixed in the service
specs (averaging 13.4K RPS) and MMPP burstiness
(``make_arrivals("alibaba", ...)`` in :mod:`repro.workloads.arrivals`).
"""

from __future__ import annotations

from typing import List

from .calibration import ALIBABA_AVERAGE_RPS
from .spec import ServiceSpec

__all__ = ["verify_average_rate"]


def verify_average_rate(services: List[ServiceSpec], tolerance: float = 0.02) -> bool:
    """Whether the per-service rates average the paper's 13.4K RPS."""
    average = sum(spec.rate_rps for spec in services) / len(services)
    return abs(average - ALIBABA_AVERAGE_RPS) / ALIBABA_AVERAGE_RPS <= tolerance

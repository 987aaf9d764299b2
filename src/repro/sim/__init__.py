"""Discrete-event simulation substrate (kernel, resources, stores, RNG)."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    KernelProfile,
    Process,
    SimulationError,
    Timeout,
)
from .fluid import (
    FluidQueue,
    FluidStepper,
    MMKSteadyState,
    erlang_b,
    erlang_c,
    mmk_steady_state,
)
from .monitor import (
    LatencyRecorder,
    TimeWeightedValue,
    percentile,
    summarize,
)
from .resources import PriorityResource, Resource
from .rng import RandomStreams, Stream, derive_seed
from .stores import PriorityItem, PriorityStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "FluidQueue",
    "FluidStepper",
    "Interrupt",
    "KernelProfile",
    "LatencyRecorder",
    "MMKSteadyState",
    "PriorityItem",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "Stream",
    "TimeWeightedValue",
    "Timeout",
    "derive_seed",
    "erlang_b",
    "erlang_c",
    "mmk_steady_state",
    "percentile",
    "summarize",
]

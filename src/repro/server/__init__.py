"""Server assembly, experiment driver and metrics."""

from .._lazy import lazy_exports

__all__ = [
    "Buckets",
    "ExperimentResult",
    "Request",
    "RunConfig",
    "ServiceResult",
    "SimulatedServer",
    "combine_dedicated",
    "energy_summary",
    "max_throughput_search",
    "run_dedicated_service",
    "run_experiment",
    "saturation_throughput",
    "run_unloaded",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".driver": (
        "RunConfig",
        "combine_dedicated",
        "max_throughput_search",
        "run_dedicated_service",
        "run_experiment",
        "run_unloaded",
        "saturation_throughput",
    ),
    ".machine": ("SimulatedServer",),
    ".metrics": ("ExperimentResult", "ServiceResult", "energy_summary"),
    "..workloads.request": ("Buckets", "Request"),
})

"""Per-figure/table experiment harness (the paper's evaluation)."""

from importlib import import_module

from .._lazy import lazy_exports

__all__ = [
    "EXPERIMENTS",
    "LADDER",
    "MAIN_ARCHITECTURES",
    "SCALES",
    "format_table",
]

#: (module, attribute) of every ShardedExperiment, in report order.
_SOURCES = (
    ("fig01_breakdown", "SHARDED"),
    ("fig03_orchestration", "SHARDED"),
    ("fig05_datasizes", "SHARDED"),
    ("table1_connectivity", "SHARDED"),
    ("table2_traces", "SHARDED"),
    ("table4_paths", "SHARDED"),
    ("fig11_latency", "SHARDED"),
    ("fig12_loads", "SHARDED"),
    ("fig13_ablation", "SHARDED"),
    ("fig14_throughput", "SHARDED"),
    ("fig15_gem5", "SHARDED"),
    ("fig16_serverless", "SHARDED"),
    ("fig17_components", "SHARDED"),
    ("fig18_chiplets", "SHARDED"),
    ("fig19_pes", "SHARDED"),
    ("fig20_generations", "SHARDED"),
    ("fig_campaign", "SHARDED"),
    ("fig_cluster", "SHARDED"),
    ("fig_faults", "SHARDED"),
    ("fig_fluid", "SHARDED"),
    ("fig_metastable", "SHARDED"),
    ("fig_placement", "SHARDED"),
    ("sensitivity", "SHARDED_INTERCHIPLET"),
    ("sensitivity", "SHARDED_SPEEDUPS"),
    ("sensitivity", "SHARDED_ADAPTIVE"),
    ("char_branches", "SHARDED"),
    ("characterization", "SHARDED_GLUE"),
    ("characterization", "SHARDED_UTILIZATION"),
    ("characterization", "SHARDED_ENERGY"),
    ("characterization", "SHARDED_EVENTS"),
)


def _experiments():
    """``EXPERIMENTS``: experiment id ->
    :class:`~repro.experiments.parallel.ShardedExperiment`, the one table
    the runner, the report and the worker processes share, built (and
    checked for duplicate ids) on first access.
    ``EXPERIMENTS[id].run(scale, seed, executor=...)`` returns a dict
    with at least a ``"table"`` string."""
    from .parallel import experiment_table

    return experiment_table([
        getattr(import_module(f".{module}", __name__), attribute)
        for module, attribute in _SOURCES
    ])


__getattr__, __dir__ = lazy_exports(
    __name__,
    {".common": ("LADDER", "MAIN_ARCHITECTURES", "SCALES", "format_table")},
    built={"EXPERIMENTS": _experiments},
)

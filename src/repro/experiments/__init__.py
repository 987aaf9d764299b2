"""Per-figure/table experiment harness (the paper's evaluation)."""

from . import (
    char_branches,
    characterization,
    fig01_breakdown,
    fig03_orchestration,
    fig05_datasizes,
    fig11_latency,
    fig12_loads,
    fig13_ablation,
    fig14_throughput,
    fig15_gem5,
    fig16_serverless,
    fig17_components,
    fig18_chiplets,
    fig19_pes,
    fig20_generations,
    fig_campaign,
    fig_cluster,
    fig_faults,
    fig_fluid,
    fig_metastable,
    fig_placement,
    sensitivity,
    table1_connectivity,
    table2_traces,
    table4_paths,
)
from .common import LADDER, MAIN_ARCHITECTURES, SCALES, format_table
from .parallel import experiment_table

#: Experiment id -> :class:`~repro.experiments.parallel.ShardedExperiment`,
#: the one table the runner, the report and the worker processes share.
#: ``EXPERIMENTS[id].run(scale, seed, executor=...)`` returns a dict
#: with at least a ``"table"`` string.
EXPERIMENTS = experiment_table([
    fig01_breakdown.SHARDED,
    fig03_orchestration.SHARDED,
    fig05_datasizes.SHARDED,
    table1_connectivity.SHARDED,
    table2_traces.SHARDED,
    table4_paths.SHARDED,
    fig11_latency.SHARDED,
    fig12_loads.SHARDED,
    fig13_ablation.SHARDED,
    fig14_throughput.SHARDED,
    fig15_gem5.SHARDED,
    fig16_serverless.SHARDED,
    fig17_components.SHARDED,
    fig18_chiplets.SHARDED,
    fig19_pes.SHARDED,
    fig20_generations.SHARDED,
    fig_campaign.SHARDED,
    fig_cluster.SHARDED,
    fig_faults.SHARDED,
    fig_fluid.SHARDED,
    fig_metastable.SHARDED,
    fig_placement.SHARDED,
    sensitivity.SHARDED_INTERCHIPLET,
    sensitivity.SHARDED_SPEEDUPS,
    sensitivity.SHARDED_ADAPTIVE,
    char_branches.SHARDED,
    characterization.SHARDED_GLUE,
    characterization.SHARDED_UTILIZATION,
    characterization.SHARDED_ENERGY,
    characterization.SHARDED_EVENTS,
])

__all__ = [
    "EXPERIMENTS",
    "LADDER",
    "MAIN_ARCHITECTURES",
    "SCALES",
    "format_table",
]

"""Table I: source/destination accelerators of each accelerator.

Derived statically from the trace catalogue: for every hand-off (src,
dst) on any path of any trace (including CPU/network boundaries), the
src appears in dst's source set and vice versa. The paper's point —
connections must be flexible because each accelerator talks to several
others — shows as multi-entry rows.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core import TraceRegistry
from ..hw import ACCEL_KINDS, AcceleratorKind
from .common import format_table
from .parallel import single_shard

__all__ = ["run", "connectivity"]


def connectivity(registry: TraceRegistry = None) -> Dict[str, Dict[str, Set[str]]]:
    """(sources, destinations) per accelerator across the catalogue."""
    registry = registry or TraceRegistry.with_standard_templates()
    sources: Dict[AcceleratorKind, Set[str]] = {k: set() for k in ACCEL_KINDS}
    destinations: Dict[AcceleratorKind, Set[str]] = {k: set() for k in ACCEL_KINDS}
    for trace in registry.traces():
        for src, dst in trace.accelerator_pairs():
            destinations[src].add(dst.value)
            sources[dst].add(src.value)
        for state, path in trace.all_paths():
            kinds = path.kinds()
            if not kinds:
                continue
            first, last = kinds[0], kinds[-1]
            # Chains starting at a non-TCP accelerator are fed by a core;
            # TCP entry points are fed by the network/its own send side.
            if first is not AcceleratorKind.TCP:
                sources[first].add("CPU")
            if path.notified:
                destinations[last].add("CPU")
    return {
        kind.value: {
            "sources": sources[kind],
            "destinations": destinations[kind],
        }
        for kind in ACCEL_KINDS
    }


def _compute(scale: str = "quick", seed: int = 0) -> Dict:
    table_data = connectivity()
    rows = []
    for name, entry in table_data.items():
        rows.append(
            [
                name,
                ", ".join(sorted(entry["sources"])) or "-",
                ", ".join(sorted(entry["destinations"])) or "-",
            ]
        )
    table = format_table(
        ["Accelerator", "Src Accelerators", "Dst Accelerators"],
        rows,
        title="Table I: source/destination accelerators",
    )
    return {"connectivity": table_data, "table": table}


SHARDED = single_shard(
    "table1", _compute,
    claim=(
        "Each accelerator exchanges data with several others (flexible links "
        "needed)"
    ),
)
run = SHARDED.run

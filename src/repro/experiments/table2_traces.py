"""Table II: the trace catalogue used by the services.

Lists every registered trace with its description, branch conditions,
accelerator-slot usage and whether it fits the 8-byte hardware budget
(all of the paper's traces do; none require splitting).
"""

from __future__ import annotations

from typing import Dict

from ..core import TraceRegistry, fits
from ..core.encoding import accel_slots
from ..core.templates import TEMPLATE_DESCRIPTIONS
from .common import format_table
from .parallel import single_shard

__all__ = ["run"]


def _compute(scale: str = "quick", seed: int = 0) -> Dict:
    registry = TraceRegistry.with_standard_templates()
    registry.validate_closed()
    rows = []
    data = {}
    for name in registry.names():
        trace = registry.get(name)
        base_name = name.rstrip("c")
        description = TEMPLATE_DESCRIPTIONS.get(
            base_name, "Report a function error to the user"
        )
        entry = {
            "description": description,
            "conditions": sorted(trace.conditions()),
            "accel_slots": accel_slots(trace.nodes),
            "fits_8_bytes": fits(trace),
            "links": sorted(trace.linked_traces()),
        }
        data[name] = entry
        rows.append(
            [
                name,
                description[:52],
                ",".join(entry["conditions"]) or "-",
                entry["accel_slots"],
                "yes" if entry["fits_8_bytes"] else "NO",
            ]
        )
    table = format_table(
        ["Trace", "Explanation", "Conditions", "Slots", "Fits"],
        rows,
        title="Table II: trace catalogue",
    )
    return {"traces": data, "table": table}


SHARDED = single_shard(
    "table2", _compute,
    claim=(
        "Twelve trace templates T1-T12; none exceeds the 8-byte trace budget"
    ),
)
run = SHARDED.run

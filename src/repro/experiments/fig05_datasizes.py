"""Figure 5: input/output data sizes of each accelerator.

The paper reports per-accelerator max/median/min payload sizes: medians
of a few KB with a long tail to tens of KB, and no bar for LdB (it
carries no data). Reproduced by sampling the payload model across the
SocialNetwork services' wire-size distributions.
"""

from __future__ import annotations

from typing import Dict

from ..hw import ACCEL_KINDS, AcceleratorKind
from ..sim import RandomStreams, percentile
from ..workloads import PayloadModel, social_network_services
from .common import format_table
from .parallel import single_shard

__all__ = ["run"]

_SAMPLES_PER_SERVICE = 2000


def _compute(scale: str = "quick", seed: int = 0) -> Dict:
    streams = RandomStreams(seed)
    services = social_network_services()
    sizes: Dict[AcceleratorKind, Dict[str, list]] = {
        kind: {"in": [], "out": []} for kind in ACCEL_KINDS
    }
    for spec in services:
        model = PayloadModel(
            streams.stream(f"fig5/{spec.name}"), median_bytes=spec.wire_median_bytes
        )
        for _ in range(_SAMPLES_PER_SERVICE):
            wire = model.sample_wire_size()
            for kind in ACCEL_KINDS:
                data_in, data_out = PayloadModel.sizes_for(kind, wire)
                sizes[kind]["in"].append(data_in)
                sizes[kind]["out"].append(data_out)

    rows = []
    stats = {}
    for kind in ACCEL_KINDS:
        if kind is AcceleratorKind.LDB:
            continue  # no LdB bar in the paper: it carries no data
        in_sorted = sorted(sizes[kind]["in"])
        out_sorted = sorted(sizes[kind]["out"])
        entry = {
            "in": {
                "min": in_sorted[0],
                "median": percentile(in_sorted, 50.0),
                "max": in_sorted[-1],
            },
            "out": {
                "min": out_sorted[0],
                "median": percentile(out_sorted, 50.0),
                "max": out_sorted[-1],
            },
        }
        stats[kind.value] = entry
        rows.append(
            [
                kind.value,
                f"{entry['in']['min'] / 1024:.2f}",
                f"{entry['in']['median'] / 1024:.2f}",
                f"{entry['in']['max'] / 1024:.1f}",
                f"{entry['out']['min'] / 1024:.2f}",
                f"{entry['out']['median'] / 1024:.2f}",
                f"{entry['out']['max'] / 1024:.1f}",
            ]
        )
    table = format_table(
        ["Accel", "In min(KB)", "In med(KB)", "In max(KB)",
         "Out min(KB)", "Out med(KB)", "Out max(KB)"],
        rows,
        title="Fig 5: Input/output data sizes per accelerator",
    )
    return {"sizes": stats, "table": table}


SHARDED = single_shard(
    "fig5", _compute,
    claim=(
        "Per-accelerator payloads: median a few KB, tail to tens of KB, "
        "no LdB data"
    ),
)
run = SHARDED.run

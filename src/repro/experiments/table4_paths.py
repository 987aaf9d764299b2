"""Table IV: most-common execution path and accelerator count per service.

Renders each SocialNetwork service's path (trace sequence with CPU
segments and parallel groups) and the total accelerator invocations per
request, which must reproduce the paper's counts exactly: CPost 87,
ReadH 28, StoreP 18, Follow 30, Login 29, CUrls 19, UniqId 9, RegUsr 25.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import TraceRegistry
from ..workloads import (
    CpuSegment,
    ParallelInvocations,
    ServiceSpec,
    TraceInvocation,
    expand_chain,
    social_network_services,
    total_accelerators,
)
from .common import format_table
from .parallel import single_shard

__all__ = ["run", "PAPER_COUNTS", "path_string"]

PAPER_COUNTS = {
    "CPost": 87,
    "ReadH": 28,
    "StoreP": 18,
    "Follow": 30,
    "Login": 29,
    "CUrls": 19,
    "UniqId": 9,
    "RegUsr": 25,
}


def _chain_names(registry: TraceRegistry, invocation: TraceInvocation) -> str:
    """Trace names along one chain, fanout continuations included."""
    chain = [invocation.entry]
    seen = {invocation.entry}
    for path in expand_chain(registry, invocation):
        followers = [path.next_trace]
        followers.extend(arm.next_trace for arm in path.fanout_paths())
        for name in followers:
            if name and name not in seen:
                chain.append(name)
                seen.add(name)
    return "-".join(chain)


def path_string(registry: TraceRegistry, spec: ServiceSpec) -> str:
    """Render the Table IV path notation for one service."""
    parts: List[str] = []
    for step in spec.path:
        if isinstance(step, CpuSegment):
            parts.append("CPU")
        elif isinstance(step, TraceInvocation):
            parts.append(_chain_names(registry, step))
        elif isinstance(step, ParallelInvocations):
            inner = _chain_names(registry, step.invocations[0])
            parts.append(f"{len(step.invocations)}x({inner})")
    return "-".join(parts)


def _compute(scale: str = "quick", seed: int = 0) -> Dict:
    registry = TraceRegistry.with_standard_templates()
    rows = []
    data = {}
    for spec in social_network_services():
        path = path_string(registry, spec)
        count = total_accelerators(registry, spec)
        data[spec.name] = {
            "path": path,
            "accelerators": count,
            "paper": PAPER_COUNTS[spec.name],
            "match": count == PAPER_COUNTS[spec.name],
        }
        rows.append([spec.name, path, count, PAPER_COUNTS[spec.name]])
    table = format_table(
        ["Service", "Most Common Execution Path", "#", "Paper #"],
        rows,
        title="Table IV: execution paths and accelerator counts",
    )
    return {"services": data, "table": table}


SHARDED = single_shard(
    "table4", _compute,
    claim="Accelerators per invocation: CPost 87 ... UniqId 9 (exact counts)",
)
run = SHARDED.run

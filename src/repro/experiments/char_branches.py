"""Section III Q2: how common is dynamic control flow in sequences?

The paper: 69.2%, 62.5%, 82.5% and 53.8% of the accelerator sequences
of SocialNetwork, HotelReservation, MediaServices and Train Ticket
contain at least one conditional (some have up to four). We measure the
same statistic over each suite's executed chains: the fraction of trace
executions (along the most common paths, weighted by how often each
trace runs per request) whose trace carries at least one branch
condition, plus the maximum conditionals in a single chain.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import TraceRegistry
from ..workloads import (
    ServiceSpec,
    expand_chain,
    hotel_reservation_services,
    media_services,
    social_network_services,
)
from ..workloads.trainticket import train_ticket_services
from .common import format_table
from .parallel import single_shard

__all__ = ["run", "PAPER_CONDITIONAL_SHARE"]

PAPER_CONDITIONAL_SHARE = {
    "socialnetwork": 0.692,
    "hotel": 0.625,
    "media": 0.825,
    "trainticket": 0.538,
}

_SUITES = {
    "socialnetwork": social_network_services,
    "hotel": hotel_reservation_services,
    "media": media_services,
    "trainticket": train_ticket_services,
}


def _suite_stats(registry: TraceRegistry, services: List[ServiceSpec]):
    """Per *chain* (a CPU-uninterrupted accelerator sequence): the share
    containing at least one conditional, and the max conditionals."""
    chains = 0
    conditional = 0
    max_conditionals = 0
    for spec in services:
        for invocation in spec.trace_invocations():
            chain_conditionals = 0
            for path in expand_chain(registry, invocation):
                branches = sum(s.branches_after for s in path.steps)
                for arm in path.fanout_paths():
                    branches += sum(s.branches_after for s in arm.steps)
                chain_conditionals += branches
            chains += 1
            if chain_conditionals > 0:
                conditional += 1
            max_conditionals = max(max_conditionals, chain_conditionals)
    share = conditional / chains if chains else 0.0
    return share, max_conditionals, chains


def _compute(scale: str = "quick", seed: int = 0) -> Dict:
    registry = TraceRegistry.with_standard_templates()
    rows = []
    shares = {}
    for suite, factory in _SUITES.items():
        share, max_cond, executions = _suite_stats(registry, factory())
        shares[suite] = share
        rows.append(
            [
                suite,
                f"{share * 100:.1f}%",
                f"{PAPER_CONDITIONAL_SHARE[suite] * 100:.1f}%",
                max_cond,
                executions,
            ]
        )
    table = format_table(
        ["Suite", "Conditional chains", "Paper", "Max cond/chain",
         "Chains"],
        rows,
        title="Section III Q2: dynamic control flow in accelerator sequences",
    )
    return {"shares": shares, "table": table}


SHARDED = single_shard(
    "char-branches", _compute,
    claim=(
        "Conditional sequences: SocialNet 69.2%, Hotel 62.5%, Media 82.5%, "
        "TrainTicket 53.8%"
    ),
)
run = SHARDED.run

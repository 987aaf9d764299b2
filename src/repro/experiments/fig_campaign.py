"""Chaos-campaign experiment: the fleet resilience scorecard.

Thin sharded wrapper around :mod:`repro.faults.campaign`: every
(scenario, architecture, replica) grid cell is one shard, run through
the standard parallel runner, and the merge step renders the
scorecard — availability, P99 inflation, telemetry-observed MTTR and
retry-amplification factor per scenario and architecture, averaged
over the replicas. CI runs this at smoke scale and diffs the table
against its golden fixture: a regression in any recovery path, the
gray-fault plane, or the alert plane moves a cell.
"""

from __future__ import annotations

from typing import Dict

from ..faults import campaign
from ..sim import derive_seed
from .common import format_table, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run"]


def make_shards(scale: str = "quick", seed: int = 0):
    return [
        # Replica seeds depend on (scenario, replica) only: both
        # architectures in one cell replay identical arrivals, request
        # bodies and injection schedules (CRN).
        Shard(
            (scenario, architecture, replica),
            {
                "scenario": scenario,
                "architecture": architecture,
                "replica": replica,
            },
            derive_seed(seed, "campaign", scenario, str(replica)),
        )
        for scenario in campaign.SCENARIO_ORDER
        for architecture in campaign.ARCHITECTURES
        for replica in range(campaign.REPLICAS)
    ]


def run_shard(shard: Shard, scale: str) -> Dict[str, float]:
    return campaign.run_cell(
        shard.params["architecture"],
        shard.params["scenario"],
        shard.seed,
        requests_for(scale),
    )


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    scorecard: Dict[str, Dict[str, Dict[str, float]]] = {}
    for scenario in campaign.SCENARIO_ORDER:
        scorecard[scenario] = {}
        for architecture in campaign.ARCHITECTURES:
            cells = [
                payloads[(scenario, architecture, replica)]
                for replica in range(campaign.REPLICAS)
            ]
            scorecard[scenario][architecture] = campaign.aggregate(cells)

    rows = []
    for scenario in campaign.SCENARIO_ORDER:
        for architecture in campaign.ARCHITECTURES:
            cell = scorecard[scenario][architecture]
            rows.append(
                [
                    scenario,
                    architecture,
                    100.0 * cell["availability"],
                    cell["p99_inflation"],
                    cell["mttr_ns"] / 1e6,
                    cell["amplification"],
                    cell["alerts_fired"],
                    cell["injected"],
                ]
            )
    table = format_table(
        [
            "Scenario",
            "Arch",
            "Avail%",
            "P99x",
            "MTTR(ms)",
            "Amplif",
            "Alerts",
            "Injected",
        ],
        rows,
        title=(
            "Chaos campaign: resilience scorecard "
            f"({campaign.SERVICE} @ {campaign.RATE_RPS:g} RPS, "
            f"{campaign.REPLICAS} replicas/cell; SLO = "
            f"{campaign.SLO_MULTIPLIER:g}x clean mean; MTTR from "
            "burn-rate alert lifecycles)"
        ),
    )

    # Fleet-level reduction: the worst cell availability is the
    # campaign's headline number (a resilient fleet has no weak cell).
    worst = min(
        scorecard[scenario][architecture]["availability"]
        for scenario in campaign.SCENARIO_ORDER
        for architecture in campaign.ARCHITECTURES
    )
    table += f"\n\nWorst-cell availability: {100.0 * worst:.1f}%"
    return {"scorecard": scorecard, "worst_availability": worst, "table": table}


SHARDED = ShardedExperiment(
    "campaign", make_shards, run_shard, merge,
    claim=(
        "(beyond paper) chaos-campaign scorecard: "
        "availability/P99-inflation/MTTR/retry-amplification per scenario x "
        "architecture; gray failures inflate P99 without tripping burn-rate "
        "alerts"
    ),
)
run = SHARDED.run

"""The benchmark's four workloads, each a fixed unit of simulated work.

A *unit* is everything one workload simulates for one seed. It returns
one :class:`Cell` per operation: a dedicated-server run, one fig14
search shard, or one fleet run. A cell carries the simulated outputs
that must never change (hashed into its digest) and whether the
output invariants hold. The seed picks the simulator's arrival and
request streams, so the same seed always yields the same arrivals.

``first_event(seed)`` is the set-up a user pays before any simulation:
import the modules the unit uses, build its first server (or fleet)
and schedule one event on it. ``perfbench/run.py`` times it in a fresh
interpreter.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["Cell", "Workload", "WORKLOADS", "LO_RPS"]

#: ``max_throughput_search``'s default lower bracket (RPS).
LO_RPS = 200.0


@dataclass
class Cell:
    """One operation of a unit and the outputs it produced."""

    label: str
    #: Simulated outputs; any change to one changes the digest.
    outputs: tuple
    #: Output invariants hold (e.g. completed + censored = submitted).
    ok: bool
    #: Host seconds the cell took (wall clock and process CPU).
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: The cell's Environment when it owns exactly one, else None.
    env: Optional[object] = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    #: unit(seed, between) runs the cells; between(wall_s) is called
    #: after each cell, outside its timing.
    unit: Callable[..., List[Cell]]
    first_event: Callable[[int], None]


def _no_pause(_wall_s: float) -> None:
    pass


class _Clock:
    """Host (wall, CPU) seconds between laps."""

    def __init__(self):
        self.wall0, self.cpu0 = time.perf_counter(), time.process_time()

    def lap(self):
        wall, cpu = time.perf_counter(), time.process_time()
        lap = wall - self.wall0, cpu - self.cpu0
        self.wall0, self.cpu0 = wall, cpu
        return lap


def _spec(name: str):
    from repro.workloads import social_network_services

    return next(s for s in social_network_services() if s.name == name)


# ---------------------------------------------------------------------------
# dedicated-server workloads (accel-steady, nonacc-mix)
# ---------------------------------------------------------------------------

def _dedicated(pairs, requests: int, seed: int, between) -> List[Cell]:
    """Run each (architecture, service) on its own server, open loop,
    Poisson arrivals at the service's paper rate, fault-free."""
    from repro.obs import ObsConfig
    from repro.server.driver import RunConfig, run_dedicated_service

    cells = []
    for arch, service in pairs:
        # Every observability feature stays off; the config only hands
        # back the server's Environment for its event count.
        obs = ObsConfig()
        clock = _Clock()
        config = RunConfig(
            arch,
            requests_per_service=requests,
            seed=seed,
            arrival_mode="poisson",
            obs=obs,
        )
        result = run_dedicated_service(_spec(service), config)["service"]
        wall_s, cpu_s = clock.lap()
        env = obs.sessions[-1].env
        cells.append(
            Cell(
                f"{arch}/{service}",
                (
                    result.completed,
                    result.censored,
                    result.p99_ns(),
                    result.mean_ns(),
                    env.scheduled_events,
                ),
                ok=result.completed + result.censored == requests,
                wall_s=wall_s,
                cpu_s=cpu_s,
                env=env,
            )
        )
        between(wall_s)
    return cells


def _first_server_event(arch: str, seed: int) -> None:
    from repro.server import SimulatedServer

    server = SimulatedServer(arch, seed=seed)
    server.env.timeout(0.0)


ACCEL_PAIRS = [
    (arch, service)
    for arch in ("accelflow", "relief")
    for service in ("CPost", "StoreP")
]
ACCEL_REQUESTS = 60

NONACC_SERVICES = (
    "CPost", "ReadH", "StoreP", "Follow", "Login", "CUrls", "UniqId", "RegUsr",
)
NONACC_REQUESTS = 600


def accel_steady(seed: int, between=_no_pause) -> List[Cell]:
    return _dedicated(ACCEL_PAIRS, ACCEL_REQUESTS, seed, between)


def nonacc_mix(seed: int, between=_no_pause) -> List[Cell]:
    return _dedicated(
        [("non-acc", service) for service in NONACC_SERVICES],
        NONACC_REQUESTS,
        seed,
        between,
    )


# ---------------------------------------------------------------------------
# slo-search: fig14's SLO-bounded max-throughput search
# ---------------------------------------------------------------------------

SLO_ARCHITECTURES = ["accelflow"]


def slo_search(seed: int, between=_no_pause) -> List[Cell]:
    """fig14 at smoke scale, serial executor, no result cache, no EDF
    colocation study. One cell per (architecture, service) shard."""
    from repro.experiments import fig14_throughput
    from repro.experiments.parallel import ProgressReporter, ShardExecutor

    class ShardClock(ProgressReporter):
        """Host time per shard, from the executor's progress hooks."""

        def begin(self, name, total, cached, jobs):
            self.laps, self.clock = [], _Clock()

        def update(self, name, done, total, started):
            self.laps.append(self.clock.lap())
            between(self.laps[-1][0])
            self.clock.lap()

    progress = ShardClock()
    with ShardExecutor(jobs=1, progress=progress) as executor:
        result = fig14_throughput.run(
            scale="smoke",
            seed=seed,
            architectures=SLO_ARCHITECTURES,
            include_edf=False,
            executor=executor,
        )
    shards = [
        (arch, service, throughput, result["slo_ns"][arch][service])
        for arch, row in result["throughput_rps"].items()
        for service, throughput in row.items()
    ]
    return [
        Cell(
            f"{arch}/{service}",
            (throughput, slo_ns),
            ok=throughput >= LO_RPS and slo_ns > 0,
            wall_s=wall_s,
            cpu_s=cpu_s,
        )
        for (arch, service, throughput, slo_ns), (wall_s, cpu_s)
        in zip(shards, progress.laps)
    ]


def _first_slo_event(seed: int) -> None:
    from repro.experiments import fig14_throughput  # noqa: F401

    _first_server_event(SLO_ARCHITECTURES[0], seed)


# ---------------------------------------------------------------------------
# chaos-fleet: a faulty fleet behind a load-aware balancer
# ---------------------------------------------------------------------------

FLEET_SERVICES = ("CPost", "StoreP")
#: Independent fleet runs per unit, each on its own derived seed: short
#: cells let the host reference loop track the host's speed closely.
FLEETS = 3
FLEET_REQUESTS = 50


def _fleet_config(seed: int, index: int):
    from repro.cluster import ClusterConfig, HealthConfig
    from repro.faults.campaign import SCENARIOS
    from repro.sim import derive_seed

    return ClusterConfig(
        architecture="accelflow",
        policy="least-outstanding",
        machines=4,
        requests_per_service=FLEET_REQUESTS,
        seed=derive_seed(seed, "chaos-fleet", index),
        arrival_mode="poisson",
        faults=SCENARIOS["wear"],
        health=HealthConfig(probe_interval_ns=1e6),
    )


def chaos_fleet(seed: int, between=_no_pause) -> List[Cell]:
    from repro.cluster import run_cluster

    services = [_spec(name) for name in FLEET_SERVICES]
    cells = []
    for index in range(FLEETS):
        clock = _Clock()
        result = run_cluster(services, _fleet_config(seed, index))
        wall_s, cpu_s = clock.lap()
        censored = result.total_censored()
        env = result.cluster.env
        accounted = result.completed + censored + result.shed + result.lost
        cells.append(
            Cell(
                f"accelflow/fleet-{index}",
                (
                    result.completed,
                    censored,
                    result.p99_ns(),
                    result.mean_ns(),
                    env.scheduled_events,
                ),
                ok=accounted == FLEET_REQUESTS * len(services) == result.arrivals,
                wall_s=wall_s,
                cpu_s=cpu_s,
                env=env,
            )
        )
        between(wall_s)
    return cells


def _first_fleet_event(seed: int) -> None:
    from repro.cluster import SimulatedCluster

    cluster = SimulatedCluster(_fleet_config(seed, 0))
    cluster.env.timeout(0.0)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "accel-steady",
            accel_steady,
            lambda seed: _first_server_event("accelflow", seed),
        ),
        Workload(
            "nonacc-mix",
            nonacc_mix,
            lambda seed: _first_server_event("non-acc", seed),
        ),
        Workload("slo-search", slo_search, _first_slo_event),
        Workload("chaos-fleet", chaos_fleet, _first_fleet_event),
    )
}

"""Per-layer instrumentation, installed from outside ``src/`` and only
for the passes that need it.

Three passes, each one run of a workload's unit:

* :class:`CountPass` wraps public entry points to count and time calls
  into each layer: ``Process`` creation, ``SimulatedServer.__init__``
  and ``make_request``, ``Orchestrator.run_step`` and
  ``execute_request``, and fig14's ``max_throughput_search`` with the
  ``server.driver.run_experiment`` probes it makes. Counts are exact and
  repeat bit for bit; wrapping changes no simulated event.
* :func:`self_time_shares` runs the unit under cProfile and folds self
  time by ``repro/<package>/``, with ``heapq``, other builtins and all
  remaining code in named buckets so the shares sum to 1.
* :class:`KernelPass` turns on the kernel's own :class:`KernelProfile`
  (what ``ObsConfig(profile_kernel=True)`` switches on) in every
  server's Environment. fig14's probe servers and a fleet's shared
  calendar take no ObsConfig, so the switch is flipped on each
  Environment a ``SimulatedServer`` is built on.

Timed runs install none of these.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from pathlib import Path
from typing import Dict, List

__all__ = [
    "LAYERS",
    "GROUPS",
    "CountPass",
    "KernelPass",
    "self_time_shares",
    "percentile",
]

#: The ``repro`` packages reported as layers.
LAYERS = (
    "sim", "hw", "orchestration", "core", "workloads",
    "server", "experiments", "cluster", "faults", "obs",
)

#: Kernel process groups reported by name; every other group is "other".
#: Accelerator PE processes ("TCP-pe", ...) fold into "pe", and their
#: input dispatchers ("in-dispatch-TCP", ...) into "dispatch".
GROUPS = (
    "transfer", "run_chain", "pe", "dispatch", "retire", "translate",
    "execute", "req",
)


class _Patches:
    """Set attributes for the duration of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class _Tally:
    __slots__ = ("processes", "steps", "completed")

    def __init__(self):
        self.processes = self.steps = self.completed = 0


class CountPass:
    """Exact per-Environment counts plus host time per layer call.

    Use as a context manager around one unit; the wrappers are removed
    on exit, and :meth:`ledger` then reads the counts.
    """

    def __init__(self):
        self.tallies: Dict[object, _Tally] = {}
        self.servers: List[object] = []
        self.build_s: List[float] = []
        self.make_request_s: List[float] = []
        #: One (wall_s, violating) pair per SLO-search probe.
        self.probes: List[tuple] = []
        #: Search label -> its result lies in [lo_rps, hi_rps].
        self.search_ok: Dict[str, bool] = {}
        self._patches = _Patches()

    def _tally(self, env) -> _Tally:
        tally = self.tallies.get(env)
        if tally is None:
            tally = self.tallies[env] = _Tally()
        return tally

    def __enter__(self) -> "CountPass":
        from repro.experiments import fig14_throughput
        from repro.orchestration.base import Orchestrator
        from repro.server import driver
        from repro.server.machine import SimulatedServer
        from repro.sim.core import Process

        patch = self._patches.set
        counter = self
        perf = time.perf_counter

        process_init = Process.__init__

        def counted_process(self, env, generator, name=""):
            counter._tally(env).processes += 1
            process_init(self, env, generator, name)

        server_init = SimulatedServer.__init__

        def timed_server(self, *args, **kwargs):
            start = perf()
            server_init(self, *args, **kwargs)
            counter.build_s.append(perf() - start)
            counter.servers.append(self)

        make_request = SimulatedServer.make_request

        def timed_make_request(self, spec):
            start = perf()
            request = make_request(self, spec)
            counter.make_request_s.append(perf() - start)
            return request

        run_step = Orchestrator.run_step

        def counted_step(self, request, step):
            counter._tally(self.env).steps += 1
            return run_step(self, request, step)

        execute_request = Orchestrator.execute_request

        def counted_request(self, request):
            value = yield from execute_request(self, request)
            counter._tally(self.env).completed += 1
            return value

        search = fig14_throughput.max_throughput_search
        run_experiment = driver.run_experiment
        current = {}

        def watched_search(architecture, spec, slo_ns, **kwargs):
            current.update(slo_ns=slo_ns, rates=[])
            throughput = search(architecture, spec, slo_ns, **kwargs)
            rates = current.pop("rates")
            current.clear()
            # The first probe is at lo_rps and the second at the midpoint
            # of [lo_rps, hi_rps], so the bracket is recoverable.
            lo = rates[0]
            hi = 2.0 * rates[1] - lo if len(rates) > 1 else lo
            counter.search_ok[f"{architecture}/{spec.name}"] = (
                lo <= throughput <= hi
            )
            return throughput

        def timed_probe(services, config):
            start = perf()
            result = run_experiment(services, config)
            if "slo_ns" in current:
                name = services[0].name
                violating = (
                    result.total_censored() > 0
                    or result.p99_ns(name) > current["slo_ns"]
                )
                counter.probes.append((perf() - start, violating))
                current["rates"].append(config.rate_rps)
            return result

        patch(Process, "__init__", counted_process)
        patch(SimulatedServer, "__init__", timed_server)
        patch(SimulatedServer, "make_request", timed_make_request)
        patch(Orchestrator, "run_step", counted_step)
        patch(Orchestrator, "execute_request", counted_request)
        patch(fig14_throughput, "max_throughput_search", watched_search)
        patch(driver, "run_experiment", timed_probe)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    def ledger(self, cells) -> Dict[str, Dict[str, int]]:
        """Exact counts per cell that owns an Environment, plus "all"."""
        by_env: Dict[object, List[object]] = {}
        for server in self.servers:
            by_env.setdefault(server.env, []).append(server)
        rows = {}
        for label, envs in [(c.label, [c.env]) for c in cells if c.env] + [
            ("all", list(self.tallies))
        ]:
            row = dict.fromkeys(
                ("completed", "events", "processes", "steps",
                 "dma_transfers", "accel_ops", "recoveries", "faults_injected"),
                0,
            )
            for env in envs:
                tally = self.tallies.get(env, _Tally())
                row["completed"] += tally.completed
                row["events"] += env.scheduled_events
                row["processes"] += tally.processes
                row["steps"] += tally.steps
                for server in by_env.get(env, ()):
                    _add_server_counts(row, server)
            rows[label] = row
        return rows


def _add_server_counts(row: Dict[str, int], server) -> None:
    stats = server.hardware.stats()
    row["dma_transfers"] += int(stats["dma"]["transfers"])
    row["accel_ops"] += int(
        sum(kind["ops_completed"] for kind in stats["accelerators"].values())
    )
    recovery = server.orchestrator.stats().get("recovery")
    if recovery is not None:
        row["recoveries"] += int(
            recovery["watchdog_timeouts"]
            + recovery["step_retries"]
            + recovery["dma_retries"]
            + recovery["degraded_to_cpu"]
        )
    if server.fault_plane is not None:
        row["faults_injected"] += server.fault_plane.total_injected()


class KernelPass:
    """Kernel profiling on every server's Environment for one unit."""

    def __init__(self):
        self.envs: List[object] = []
        self._patches = _Patches()

    def __enter__(self) -> "KernelPass":
        from repro.server.machine import SimulatedServer

        server_init = SimulatedServer.__init__
        envs = self.envs

        def profiled_server(self, *args, **kwargs):
            server_init(self, *args, **kwargs)
            if self.env.profile is None:
                envs.append(self.env)
            self.env.enable_profiling()

        self._patches.set(SimulatedServer, "__init__", profiled_server)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    def summary(self) -> Dict[str, float]:
        """Peak heap depth and events / host seconds per process group."""
        out = {"peak_queue": 0}
        for group in GROUPS + ("other",):
            out[f"{group}.events"] = 0
            out[f"{group}.wall_s"] = 0.0
        for env in self.envs:
            profile = env.profile
            out["peak_queue"] = max(out["peak_queue"], profile.peak_queue)
            for name, row in profile.by_process.items():
                group = _group(name)
                out[f"{group}.events"] += row["events"]
                out[f"{group}.wall_s"] += row["wall_s"]
        return out


def _group(name: str) -> str:
    if name.endswith("-pe"):
        return "pe"
    if name.startswith("in-dispatch-"):
        return "dispatch"
    name = name.lstrip("_")
    return name if name in GROUPS else "other"


def self_time_shares(run, src_repro: Path):
    """Run ``run()`` under cProfile; return (its value, wall seconds,
    self-time share per bucket)."""
    prefix = str(src_repro) + os.sep
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = run()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    totals = dict.fromkeys(LAYERS + ("heapq", "builtins", "other"), 0.0)
    for (filename, _line, func), row in pstats.Stats(profiler).stats.items():
        self_s = row[2]
        if filename == "~":
            bucket = "heapq" if "_heapq." in func else "builtins"
        elif filename.startswith(prefix):
            package = filename[len(prefix):].split(os.sep, 1)[0]
            bucket = package if package in LAYERS else "other"
        elif Path(filename).name == "heapq.py":
            bucket = "heapq"
        else:
            bucket = "other"
        totals[bucket] += self_s
    total = sum(totals.values()) or 1.0
    return value, wall, {name: t / total for name, t in totals.items()}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]

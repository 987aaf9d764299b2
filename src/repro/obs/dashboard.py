"""Live fleet dashboard over the telemetry bus.

The :class:`Dashboard` subscribes to the bus and maintains just enough
state to render a terminal view: per-service latency sparklines and
windowed P99 gauges, throughput and availability, open breakers and
fault-plane activity, and the alert feed. Rendering is pull-based —
:meth:`Dashboard.snapshot` returns a plain-ASCII block, so the same
object backs the interactive live view (ANSI redraw), tests/CI
(snapshot mode), and the ``--dashboard`` preview of the experiment
runner.

Run a self-contained demo (a seeded chaos cell with the full telemetry
plane attached) with::

    PYTHONPATH=src python -m repro.obs.dashboard --scenario mgr-outage \
        --architecture relief --requests 300

Add ``--live`` for in-place redraw while the simulation advances, or
``--cluster`` for a small fleet with a mid-run machine failure instead
of a single server.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple

from ..analysis.ascii_chart import sparkline
from .telemetry import (
    AdmissionEvent,
    AlertFired,
    FaultInjected,
    MetricSample,
    RecoveryEvent,
    RequestEnd,
    TelemetryBus,
    TelemetryEvent,
)

__all__ = ["Dashboard", "preview", "run_demo_cluster", "run_demo_server"]

_US = 1e-3  # ns -> us


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(round(0.99 * (len(ordered) - 1))), 0)
    return ordered[rank]


class _ServicePanel:
    """Rolling per-service view (latest ``window`` outcomes)."""

    __slots__ = ("name", "outcomes", "ok", "bad", "total")

    def __init__(self, name: str, window: int):
        self.name = name
        self.outcomes: Deque[Tuple[float, float, bool]] = deque(maxlen=window)
        self.ok = 0
        self.bad = 0
        self.total = 0

    def add(self, t_ns: float, latency_ns: float, ok: bool) -> None:
        self.outcomes.append((t_ns, latency_ns, ok))
        self.total += 1
        if ok:
            self.ok += 1
        else:
            self.bad += 1

    def latencies(self) -> List[float]:
        return [latency for _, latency, _ in self.outcomes]

    def window_rps(self) -> float:
        if len(self.outcomes) < 2:
            return 0.0
        span_ns = self.outcomes[-1][0] - self.outcomes[0][0]
        if span_ns <= 0:
            return 0.0
        return (len(self.outcomes) - 1) / (span_ns * 1e-9)

    def ok_fraction(self) -> float:
        return self.ok / self.total if self.total else 1.0


class Dashboard:
    """Bus subscriber rendering the fleet's live state as ASCII."""

    def __init__(
        self,
        bus: TelemetryBus,
        slo=None,
        window: int = 512,
        feed_length: int = 8,
    ):
        self.bus = bus
        #: Optional :class:`~repro.obs.slo.SLOMonitorConfig`; used to
        #: draw P99 gauges against each service's latency target.
        self.slo = slo
        self.window = window
        self.panels: Dict[str, _ServicePanel] = {}
        self.alert_feed: Deque[AlertFired] = deque(maxlen=feed_length)
        self.firing: Dict[str, AlertFired] = {}
        self.open_breakers = 0
        self.watchdog_timeouts = 0
        self.degraded_to_cpu = 0
        self.faults: Dict[str, int] = {}
        self.shed = 0
        self.degraded = 0
        self.gauges: Dict[str, float] = {}
        self.now_ns = 0.0
        bus.subscribe(self._on_event)

    # -- intake ------------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        self.now_ns = max(self.now_ns, event.t_ns)
        if isinstance(event, RequestEnd):
            panel = self.panels.get(event.service)
            if panel is None:
                panel = _ServicePanel(event.service, self.window)
                self.panels[event.service] = panel
            panel.add(event.t_ns, event.latency_ns, event.ok)
        elif isinstance(event, AlertFired):
            self.alert_feed.append(event)
            if event.state == "firing":
                self.firing[event.alert] = event
            elif event.state == "resolved":
                self.firing.pop(event.alert, None)
        elif isinstance(event, RecoveryEvent):
            if event.kind_name == "breaker-open":
                self.open_breakers += 1
            elif event.kind_name == "breaker-close":
                self.open_breakers = max(self.open_breakers - 1, 0)
            elif event.kind_name == "watchdog-timeout":
                self.watchdog_timeouts += 1
            elif event.kind_name == "degraded-to-cpu":
                self.degraded_to_cpu += 1
        elif isinstance(event, FaultInjected):
            self.faults[event.category] = self.faults.get(event.category, 0) + 1
        elif isinstance(event, AdmissionEvent):
            if event.decision == "shed":
                self.shed += 1
            else:
                self.degraded += 1
        elif isinstance(event, MetricSample):
            self.gauges[event.name] = event.value

    # -- helpers -----------------------------------------------------------
    def _latency_target_ns(self, service: str) -> Optional[float]:
        if self.slo is None:
            return None
        for target in self.slo.targets:
            if target.service in (service, "*"):
                return target.latency_ns
        return None

    @staticmethod
    def _gauge_bar(fraction: float, width: int = 24) -> str:
        filled = int(round(min(max(fraction, 0.0), 1.0) * width))
        return "[" + "#" * filled + "-" * (width - filled) + "]"

    # -- rendering ---------------------------------------------------------
    def snapshot(self, width: int = 78) -> str:
        """The whole dashboard as one plain-ASCII block."""
        spark_width = max(width - 18, 16)
        title = f"= fleet telemetry @ {self.now_ns * 1e-6:,.2f} ms sim "
        lines = [title + "=" * max(width - len(title), 0)]
        if not self.panels:
            lines.append("(no request telemetry yet)")
        for name in sorted(self.panels):
            panel = self.panels[name]
            latencies = panel.latencies()
            p99_ns = _p99(latencies)
            lines.append(
                f"{name:<12} n={panel.total:<6} ok {100.0 * panel.ok_fraction():5.1f}%"
                f"  rps {panel.window_rps():9,.0f}  p99 {p99_ns * _US:10,.1f} us"
            )
            lines.append(
                f"  lat(us)   |{sparkline([v * _US for v in latencies], width=spark_width)}|"
            )
            target_ns = self._latency_target_ns(name)
            if target_ns:
                fraction = p99_ns / target_ns
                lines.append(
                    f"  slo       {self._gauge_bar(fraction)} "
                    f"{100.0 * fraction:6.1f}% of {target_ns * _US:,.1f} us target"
                )
        fluid_fraction = self.gauges.get("cluster:fluid_fraction")
        if fluid_fraction is not None:
            # Only clusters running the fluid-approximation tier publish
            # this gauge (see repro.cluster.fluid).
            lines.append(
                f"fluid tier  {self._gauge_bar(fluid_fraction)} "
                f"{100.0 * fluid_fraction:5.1f}% of fleet   queued mass "
                f"{self.gauges.get('cluster:fluid_mass', 0.0):8,.1f}"
            )
        hop_gauges = {
            name[len("placement:hops:"):]: value
            for name, value in self.gauges.items()
            if name.startswith("placement:hops:")
        }
        if hop_gauges:
            # Only machines with off-package accelerator placements
            # publish these gauges (see repro.hw.placement).
            ranked = sorted(hop_gauges.items(), key=lambda kv: (-kv[1], kv[0]))
            lines.append(
                "placement hops  "
                + "  ".join(f"{site}={count:,.0f}" for site, count in ranked)
            )
        fault_total = sum(self.faults.values())
        lines.append(
            f"breakers open {self.open_breakers}   watchdogs {self.watchdog_timeouts}"
            f"   to-cpu {self.degraded_to_cpu}   faults {fault_total}"
            f"   shed {self.shed}   degraded {self.degraded}"
        )
        if self.faults:
            ranked = sorted(self.faults.items(), key=lambda kv: (-kv[1], kv[0]))
            lines.append(
                "  faults by category: "
                + "  ".join(f"{cat}={n}" for cat, n in ranked[:6])
            )
        lines.append("alerts:")
        if not self.alert_feed:
            lines.append("  (none)")
        for alert in self.alert_feed:
            lines.append(
                f"  [{alert.state.upper():<8}] {alert.alert:<24} "
                f"@ {alert.t_ns * 1e-6:9,.2f} ms  "
                f"burn fast {alert.burn_fast:6.1f} slow {alert.burn_slow:6.1f}"
            )
        return "\n".join(lines)

    def render_live(self, stream=None) -> None:
        """Redraw in place (ANSI home + clear-to-end)."""
        stream = stream or sys.stdout
        stream.write("\x1b[H\x1b[J" + self.snapshot() + "\n")
        stream.flush()


# ----------------------------------------------------------------------
# Self-contained demos (also back `accelflow-repro ... --dashboard`)
# ----------------------------------------------------------------------
def run_demo_server(
    architecture: str = "relief",
    scenario: str = "mgr-outage",
    requests: int = 300,
    seed: int = 0,
    rate_rps: float = 2000.0,
    live: bool = False,
    live_interval_ns: float = 5e6,
    stream=None,
):
    """One chaos cell (a :mod:`~repro.experiments.fig_faults` scenario)
    with the full telemetry plane attached.

    Returns a dict with the server, bus, dashboard, SLO monitor and
    flight recorder, for programmatic use; in ``live`` mode the
    dashboard additionally redraws on ``stream`` as sim time advances.
    """
    # Only the demos need the fault scenarios and the server layer.
    from ..experiments.fig_faults import DRAIN_NS, SCENARIOS, SLO_MULTIPLIER
    from ..server.driver import RunConfig, calibrate_slo, drive, make_server
    from ..workloads import social_network_services
    from .config import ObsConfig
    from .slo import SLOMonitorConfig, SLOTarget

    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}"
        )
    service = "StoreP"
    spec = next(s for s in social_network_services() if s.name == service)
    config = RunConfig(
        architecture,
        requests_per_service=requests,
        seed=seed,
        arrival_mode="poisson",
        rate_rps=rate_rps,
        drain_ns=DRAIN_NS,
    )

    # Fault-free calibration run pins the latency SLO, exactly like the
    # chaos experiment does (SLO = multiplier x clean mean latency); a
    # run that completed nothing falls back to a fixed SLO.
    try:
        slo_ns, _, _ = calibrate_slo(
            spec,
            replace(config, requests_per_service=min(requests, 150)),
            SLO_MULTIPLIER,
        )
    except RuntimeError:
        slo_ns = 1e6

    obs = ObsConfig(
        trace=True,
        metrics=True,
        telemetry=True,
        flight_recorder=True,
        slo=SLOMonitorConfig(
            targets=(SLOTarget(service, availability=0.99, latency_ns=slo_ns),),
            fast_window_ns=2e6,
            slow_window_ns=2e7,
            burn_threshold=10.0,
            min_events=6,
        ),
    )
    config = replace(config, faults=SCENARIOS[scenario], obs=obs)
    server = make_server(config)
    session = obs.sessions[-1]
    dashboard = Dashboard(session.bus, slo=obs.slo)
    env = server.env
    if live:  # pragma: no cover - interactive path

        def redraw(env):
            while True:
                yield env.timeout(live_interval_ns)
                dashboard.render_live(stream)

        env.process(redraw(env), name="dashboard-redraw")
    in_flight = drive(server, [spec], config)
    session.slo_monitor.sweep(env.now)
    return {
        "server": server,
        "obs": obs,
        "bus": session.bus,
        "dashboard": dashboard,
        "monitor": session.slo_monitor,
        "recorder": session.recorder,
        "slo_ns": slo_ns,
        "in_flight": in_flight,
    }


def run_demo_cluster(
    requests: int = 200,
    seed: int = 0,
    machines: int = 2,
    rate_rps: float = 6000.0,
    architecture: str = "accelflow",
):
    """A small fleet losing a machine mid-run, with cluster telemetry.

    Returns the same dict shape as :func:`run_demo_server` (with
    ``result`` instead of ``server``/``in_flight``).
    """
    from ..cluster import ClusterConfig, MachineFailure, run_cluster
    from ..workloads import social_network_services
    from .config import ObsConfig
    from .slo import SLOMonitorConfig, SLOTarget

    service = "UniqId"
    specs = [s for s in social_network_services() if s.name == service]

    # Clean calibration run (full fleet, no failure) pins the SLO.
    clean = run_cluster(
        specs,
        ClusterConfig(
            architecture=architecture,
            machines=machines,
            requests_per_service=min(requests, 150),
            seed=seed,
            arrival_mode="poisson",
            rate_rps=rate_rps,
        ),
    )
    # Same guard as run_demo_server: a calibration run that completed
    # nothing (idle fleet, zero routable machines) falls back to a fixed
    # SLO instead of raising from the empty latency recorder.
    slo_ns = 5.0 * clean.mean_ns() if len(clean.recorder) else 1e6

    fail_at_ns = 0.35 * requests / rate_rps * 1e9
    obs = ObsConfig(
        trace=True,
        metrics=True,
        telemetry=True,
        flight_recorder=True,
        slo=SLOMonitorConfig(
            targets=(SLOTarget(service, availability=0.99, latency_ns=slo_ns),),
            fast_window_ns=2e6,
            slow_window_ns=2e7,
            burn_threshold=8.0,
            min_events=6,
        ),
    )
    config = ClusterConfig(
        architecture=architecture,
        machines=machines,
        requests_per_service=requests,
        seed=seed,
        arrival_mode="poisson",
        rate_rps=rate_rps,
        failures=(MachineFailure(at_ns=fail_at_ns, machine=machines - 1),),
        obs=obs,
    )
    # The dashboard must subscribe before the run, so build the cluster
    # pieces through run_cluster's config hook: subscribe on session
    # creation via a tiny shim around ObsConfig.make_session.
    original_make_session = obs.make_session
    dashboards = []

    def make_session(env):
        session = original_make_session(env)
        if session.bus is not None:
            dashboards.append(Dashboard(session.bus, slo=obs.slo))
        return session

    obs.make_session = make_session  # type: ignore[method-assign]
    result = run_cluster(specs, config)
    session = obs.sessions[-1]
    if session.slo_monitor is not None:
        session.slo_monitor.sweep(result.elapsed_ns)
    return {
        "result": result,
        "obs": obs,
        "bus": session.bus,
        "dashboard": dashboards[-1],
        "monitor": session.slo_monitor,
        "recorder": session.recorder,
        "slo_ns": slo_ns,
    }


def preview(experiment: str, scale: str = "smoke", seed: int = 0) -> Optional[str]:
    """Dashboard preview for ``accelflow-repro <exp> --dashboard``.

    Runs a small representative telemetry-enabled cell for experiments
    that have one (currently ``fig_faults`` and ``fig_cluster``) and
    returns its snapshot; None for experiments without a preview.
    """
    requests = {"smoke": 120, "quick": 250, "full": 500}.get(scale, 120)
    if experiment == "fig_faults":
        demo = run_demo_server(
            architecture="relief",
            scenario="mgr-outage",
            requests=requests,
            seed=seed,
        )
    elif experiment == "fig_cluster":
        demo = run_demo_cluster(requests=requests, seed=seed)
    else:
        return None
    header = (
        f"[dashboard preview: {experiment} telemetry cell, seed {seed}]\n"
    )
    return header + demo["dashboard"].snapshot()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Live telemetry dashboard over a seeded chaos demo run.",
    )
    parser.add_argument("--architecture", default="relief")
    parser.add_argument("--scenario", default="mgr-outage")
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cluster", action="store_true",
        help="run the fleet demo (machine failure) instead of one server",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="redraw the dashboard in place while the simulation runs",
    )
    parser.add_argument(
        "--bundle-out", default=None, metavar="PATH",
        help="write the latest flight-recorder incident bundle as JSON",
    )
    args = parser.parse_args(argv)

    if args.cluster:
        demo = run_demo_cluster(requests=args.requests, seed=args.seed)
    else:
        demo = run_demo_server(
            architecture=args.architecture,
            scenario=args.scenario,
            requests=args.requests,
            seed=args.seed,
            live=args.live,
        )
    print(demo["dashboard"].snapshot())
    monitor = demo["monitor"]
    recorder = demo["recorder"]
    print(
        f"\nalerts fired {len(monitor.fired_ever())}, "
        f"incidents captured {len(recorder.incidents)}"
        f" (suppressed {recorder.suppressed})"
    )
    if recorder.correlation:
        print("\nfault -> breach correlation:")
        print(recorder.correlation_table())
    if args.bundle_out:
        if recorder.incidents:
            recorder.write(args.bundle_out)
            print(f"\nwrote incident bundle to {args.bundle_out}")
        else:
            print("\nno incidents captured; no bundle written")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Trace replay against the live serving façade.

``python -m repro.serve.replay`` replays an open-loop arrival trace —
recorded (JSONL) or synthesized from the :func:`make_arrivals` load
models — through a :class:`~repro.serve.ServiceFacade` in wall-clock
time, logging per-request latencies and finishing with the fleet
scorecard.

Determinism: the whole trace is drawn up front (plain CRN draws, no
asyncio involved) and injected by a single task, so under
``--dilation inf`` the whole replay makes zero wall-clock reads and two
runs with the same seed produce byte-identical scorecards. That is the
mode CI exercises; finite dilations add pacing (and pacing statistics)
on top of the *same* sim-side event sequence.

Examples::

    # Deterministic CI smoke: unpaced, 2 machines, 40 requests/service.
    python -m repro.serve.replay --dilation inf --requests 40

    # Real-time-ish: 1 sim second per wall second, log each request.
    python -m repro.serve.replay --dilation 1.0 --log-latencies -

    # Record a trace, then replay the recording.
    python -m repro.serve.replay --save-trace /tmp/t.jsonl --requests 80
    python -m repro.serve.replay --trace /tmp/t.jsonl
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from ..cluster import AdmissionConfig, ClusterConfig
from ..obs import ObsConfig
from ..obs.slo import SLOMonitorConfig, SLOTarget
from ..sim import RandomStreams, derive_seed
from ..workloads import social_network_services
from ..workloads.arrivals import make_arrivals
from ..workloads.spec import ServiceSpec
from .clock import SimClock
from .facade import ServiceFacade, build_scorecard

__all__ = [
    "build_serving_stack",
    "load_trace",
    "main",
    "replay_trace",
    "save_trace",
    "synthetic_trace",
]

_SECOND_NS = 1e9

#: One trace entry: (arrival sim time in ns, service name).
TraceEvent = Tuple[float, str]


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def synthetic_trace(
    services: Sequence[ServiceSpec],
    mode: str = "poisson",
    rate_rps: Optional[float] = None,
    requests_per_service: int = 50,
    seed: int = 0,
) -> List[TraceEvent]:
    """Materialize an open-loop trace from the named load model.

    Reuses the :func:`make_arrivals` shapes (poisson / alibaba / azure /
    mmpp) with per-service CRN streams derived from ``seed``, so the
    trace — like a batch run — is a pure function of its parameters.
    """
    streams = RandomStreams(derive_seed(seed, "replay-trace"))
    events: List[TraceEvent] = []
    for spec in services:
        rate = rate_rps if rate_rps is not None else spec.rate_rps
        arrivals = make_arrivals(mode, rate, streams.stream(f"arrivals/{spec.name}"))
        t_ns = 0.0
        for _ in range(requests_per_service):
            t_ns += arrivals.next_gap_ns()
            events.append((t_ns, spec.name))
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def save_trace(path: str, trace: Sequence[TraceEvent]) -> None:
    """Write a trace as JSONL (one ``{"t_ns", "service"}`` per line)."""
    with open(path, "w") as handle:
        for t_ns, service in trace:
            handle.write(
                json.dumps({"t_ns": t_ns, "service": service}) + "\n"
            )


def load_trace(path: str) -> List[TraceEvent]:
    """Read a JSONL trace written by :func:`save_trace` (or a real
    front-door access log massaged into the same shape)."""
    events: List[TraceEvent] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                events.append((float(record["t_ns"]), str(record["service"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected t_ns/service, got {line!r}"
                ) from exc
    events.sort(key=lambda event: (event[0], event[1]))
    return events


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
async def replay_trace(
    facade: ServiceFacade,
    trace: Sequence[TraceEvent],
    drain_ns: float = 500e6,
    log: Optional[TextIO] = None,
) -> Dict[str, object]:
    """Replay ``trace`` through ``facade`` and return its scorecard.

    A single injector advances the façade's clock to each arrival time
    and submits; after the last arrival the run drains (bounded by
    ``drain_ns``) and pending requests are censored. With ``log``, one
    line per completed request is written in completion order.
    """
    env = facade.env
    for t_ns, service in trace:
        if t_ns > env.now:
            await facade.clock.advance_to(t_ns)
        facade.submit_nowait(service)
    await facade.drain(drain_ns=drain_ns)
    if log is not None:
        for response in facade.responses:
            latency = (
                f"{response.latency_ns / 1e3:10.1f}us"
                if math.isfinite(response.latency_ns)
                else f"{'-':>12}"
            )
            log.write(
                f"{response.service:<16} {response.status:<8} {latency}"
                f"  degraded={int(response.degraded)}\n"
            )
    monitor = None
    obs = facade.cluster.config.obs
    if obs is not None:
        monitor = obs.slo_monitor
    if monitor is not None:
        monitor.sweep(env.now)
    alerts = len(monitor.fired_ever()) if monitor is not None else 0
    return build_scorecard(
        facade.responses,
        elapsed_ns=env.now,
        alerts_fired=alerts,
        title="Replay scorecard",
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_dilation(value: str) -> float:
    dilation = float(value)  # accepts "inf"
    if not dilation > 0:
        raise argparse.ArgumentTypeError(
            f"dilation must be positive (or inf), got {value}"
        )
    return dilation


def pick_services(names: Optional[str]) -> List[ServiceSpec]:
    """The SocialNetwork specs named in a comma list (None = first 3)."""
    catalog = {spec.name: spec for spec in social_network_services()}
    if not names:
        return list(catalog.values())[:3]
    picked = []
    for name in names.split(","):
        name = name.strip()
        if name not in catalog:
            raise SystemExit(
                f"unknown service {name!r}; known: {', '.join(catalog)}"
            )
        picked.append(catalog[name])
    return picked


def build_serving_stack(
    services: Sequence[ServiceSpec],
    machines: int = 2,
    policy: str = "round-robin",
    seed: int = 0,
    dilation: float = float("inf"),
    admission: Optional[str] = None,
    slo_ms: float = 2.0,
    with_slo_monitor: bool = True,
) -> ServiceFacade:
    """One-stop construction of cluster + telemetry + clock + façade."""
    slo = (
        SLOMonitorConfig(
            targets=tuple(
                SLOTarget(
                    service=spec.name,
                    availability=0.99,
                    latency_ns=slo_ms * 1e6,
                )
                for spec in services
            ),
            fast_window_ns=20e6,
            slow_window_ns=200e6,
            burn_threshold=2.0,
        )
        if with_slo_monitor
        else None
    )
    config = ClusterConfig(
        machines=machines,
        policy=policy,
        seed=seed,
        admission=(
            AdmissionConfig(slo_ns=slo_ms * 1e6, mode=admission)
            if admission
            else None
        ),
        obs=ObsConfig(telemetry=True, slo=slo),
    )
    facade = ServiceFacade.build(list(services), config)
    facade.clock = SimClock(facade.env, dilation=dilation)
    return facade


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.replay",
        description="Replay an open-loop trace against the simulated fleet.",
    )
    parser.add_argument(
        "--dilation",
        type=_parse_dilation,
        default=float("inf"),
        help="sim seconds per wall second; 'inf' disables pacing "
        "(deterministic, the CI mode). Default: inf.",
    )
    parser.add_argument(
        "--services",
        default=None,
        help="comma list of SocialNetwork services (default: first 3)",
    )
    parser.add_argument("--machines", type=int, default=2)
    parser.add_argument("--policy", default="round-robin")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode",
        default="poisson",
        choices=["poisson", "alibaba", "azure", "mmpp"],
        help="synthetic load model (ignored with --trace)",
    )
    parser.add_argument(
        "--rate", type=float, default=None, help="per-service RPS override"
    )
    parser.add_argument("--requests", type=int, default=50,
                        help="synthetic requests per service")
    parser.add_argument(
        "--admission",
        default=None,
        choices=["shed", "degrade", "proportional"],
        help="front-door admission control mode (default: off)",
    )
    parser.add_argument("--slo-ms", type=float, default=2.0,
                        help="per-request latency SLO in milliseconds")
    parser.add_argument("--drain-ms", type=float, default=500.0,
                        help="sim milliseconds to wait past the last arrival")
    parser.add_argument("--trace", default=None,
                        help="replay this JSONL trace instead of synthesizing")
    parser.add_argument("--save-trace", default=None,
                        help="write the (synthetic) trace to this path")
    parser.add_argument(
        "--log-latencies",
        default=None,
        metavar="PATH",
        help="per-request completion log ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    services = pick_services(args.services)
    if args.trace:
        trace = load_trace(args.trace)
        known = {spec.name for spec in services}
        missing = sorted({s for _, s in trace} - known)
        if missing:
            raise SystemExit(
                f"trace references services not in --services: {missing}"
            )
    else:
        trace = synthetic_trace(
            services,
            mode=args.mode,
            rate_rps=args.rate,
            requests_per_service=args.requests,
            seed=args.seed,
        )
    if args.save_trace:
        save_trace(args.save_trace, trace)

    facade = build_serving_stack(
        services,
        machines=args.machines,
        policy=args.policy,
        seed=args.seed,
        dilation=args.dilation,
        admission=args.admission,
        slo_ms=args.slo_ms,
    )
    log: Optional[TextIO] = None
    close_log = False
    if args.log_latencies == "-":
        log = sys.stdout
    elif args.log_latencies:
        log = open(args.log_latencies, "w")
        close_log = True
    try:
        scorecard = asyncio.run(
            replay_trace(
                facade, trace, drain_ns=args.drain_ms * 1e6, log=log
            )
        )
    finally:
        if close_log and log is not None:
            log.close()
    print(scorecard["table"])
    if facade.clock.paced:
        # Pacing stats read the wall clock, so they are only printed in
        # paced mode — unpaced output stays byte-deterministic.
        stats = facade.clock.stats()
        print(
            f"\nPacing: dilation {stats['dilation']:g}x, "
            f"wall {stats['wall_elapsed_s']:.2f} s for "
            f"{stats['sim_elapsed_ns'] / 1e6:.2f} ms sim, "
            f"max lag {stats['max_lag_ns'] / 1e6:.2f} ms sim"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

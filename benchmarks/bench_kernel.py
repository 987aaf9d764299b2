"""Kernel microbenchmark harness — the repo's perf trajectory anchor.

Measures event throughput of the simulation substrate (`repro.sim`) on
four workloads that together cover the kernel's hot paths:

* ``event_churn``       — timeout-heavy process churn (the event loop,
                          Timeout allocation, inline process resumption).
* ``store_contention``  — many producers/consumers blocked on a bounded
                          Store (waiter-queue dispatch, the historical
                          O(n) ``pop(0)`` hot spot).
* ``condition_fanin``   — wide AllOf/AnyOf fan-in (Condition._check).
* ``paced_slice``       — the event_churn model driven to one horizon by
                          ``run_wall_slice`` in fixed sim-time slices
                          (the paced serving path) vs one
                          ``run(until=...)``; reports the wall ratio
                          (sliced over single run; what remains above
                          1 is the wall-budget check).
* ``fig11_shard``       — one end-to-end (architecture, service) cell of
                          the Figure 11 latency experiment at smoke
                          scale: the realistic mix every figure in the
                          paper reproduction bottoms out in.
* ``fluid_cluster``     — the same fleet run twice in interleaved A/B
                          rounds, exact DES vs a 90%-fluid tier
                          (`repro.cluster.fluid`); reports the wall
                          clock speedup the fluid approximation buys.
* ``placement_overhead`` — A/B of one dedicated StoreP server with no
                          placement config vs the forced pass-through
                          placement fabric (everything on-package);
                          reports the fabric layer's pure indirection
                          cost on the DMA hot path, which must stay
                          marginal (<2%). The two servers take turns in
                          short slices of simulated time and the case
                          reports the median over rounds of the wall
                          ratio, as the health case does; it is not
                          gated.
* ``health_plane_overhead`` — A/B of one fleet with no health plane
                          vs an installed-but-idle monitor (thresholds
                          nothing crosses, prober on); the delta is
                          the plane's pure observation cost. The two
                          fleets take turns in short slices of
                          simulated time, and the harness fails when
                          the median over rounds of the wall ratio
                          exceeds 1 + ``--max-health-overhead``
                          (default 2%).

Kernel cases report events processed per wall-clock second; the
end-to-end ``fig11_shard`` case has no kernel event count and reports
completed requests per second under its own ``reqs_per_s`` key instead.
Each kernel case also times ``perfbench/hostref.reference_loop`` right
after every timed run and reports ``events_per_ref_loop``: the events
the case processes in the time the host takes for one reference loop,
a rate in which the host's speed cancels. Results are written to
``BENCH_kernel.json`` at the repo root; CI runs ``--quick`` and fails
when ``store_contention``'s ``events_per_ref_loop`` regresses more than
``--max-regression`` against the checked-in baseline
(``--baseline BENCH_kernel.json``, recorded in the same mode).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick \
        --baseline BENCH_kernel.json --max-regression 0.20

See docs/performance.md for the kernel perf model and how to read the
output.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim import AllOf, AnyOf, Environment, Store  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"


def _load_reference_loop():
    """``perfbench/hostref.reference_loop``: a frozen pure-Python event
    loop that imports nothing from ``src/``, so no simulator change can
    move its time. Loaded by path, leaving ``sys.path`` alone."""
    path = REPO_ROOT / "perfbench" / "hostref.py"
    spec = importlib.util.spec_from_file_location("perfbench_hostref", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_loop


reference_loop = _load_reference_loop()


# ---------------------------------------------------------------------------
# benchmark cases: each returns (events_processed, wall_seconds)
# ---------------------------------------------------------------------------

def _run_counted(build, profile: bool):
    """Build a fresh environment via ``build()`` and run it to exhaustion.

    Timing runs keep kernel profiling *off* — its two ``perf_counter``
    calls per event would swamp the dispatch cost being measured. Event
    counts are deterministic, so each case is counted once in a
    profiled pre-run and the count reused for every timed run.
    """
    env = build(profile)
    start = perf_counter()
    env.run()
    elapsed = perf_counter() - start
    return (env.profile.events if profile else None), elapsed


def bench_event_churn(scale: int):
    """Timeout-heavy churn: `scale` processes, 100 sequential timeouts each."""

    def build(profile):
        env = Environment(profile=profile)

        def ticker(env, delay):
            for _ in range(100):
                yield env.timeout(delay)

        for i in range(scale):
            # Mixed delays: exercises the calendar, not just one heap lane.
            env.process(ticker(env, 1.0 + (i % 7) * 0.25), name=f"tick-{i}")
        return env

    return build


def bench_store_contention(scale: int):
    """Bounded store with `scale` producers and consumers all blocked at
    once — dispatch cost on long waiter queues dominates."""

    def build(profile):
        env = Environment(profile=profile)
        store = Store(env, capacity=16)

        def producer(env, store, n):
            for i in range(n):
                yield store.put(i)

        def consumer(env, store, n):
            for _ in range(n):
                yield store.get()

        per_actor = 40
        for i in range(scale):
            env.process(producer(env, store, per_actor), name=f"prod-{i}")
        for i in range(scale):
            env.process(consumer(env, store, per_actor), name=f"cons-{i}")
        return env

    return build


def bench_condition_fanin(scale: int):
    """Wide AllOf/AnyOf over timeout events, `scale` rounds of width 64."""

    def build(profile):
        env = Environment(profile=profile)

        def round_proc(env):
            for r in range(scale):
                events = [env.timeout((i % 5) * 0.5) for i in range(64)]
                yield AllOf(env, events)
                events = [env.timeout(1.0 + (i % 3)) for i in range(64)]
                yield AnyOf(env, events)

        env.process(round_proc(env), name="fanin")
        return env

    return build


#: Sim-time horizon and slice count of the ``paced_slice`` case: every
#: event_churn ticker is still running at the horizon.
PACED_HORIZON = 100.0
PACED_SLICES = 100


def bench_paced_slice(scale: int):
    """The event_churn model to ``PACED_HORIZON``, either in one
    ``run(until=...)`` or in ``PACED_SLICES`` fixed ``run_wall_slice``
    calls under a wall budget that never binds."""
    build = bench_event_churn(scale)

    def run(sliced: bool, profile: bool = False):
        env = build(profile)
        start = perf_counter()
        if sliced:
            for k in range(1, PACED_SLICES + 1):
                env.run_wall_slice(
                    PACED_HORIZON * k / PACED_SLICES, wall_budget_s=3600.0
                )
        else:
            env.run(until=PACED_HORIZON)
        return env, perf_counter() - start

    return run


def bench_fig11_shard(scale: str):
    """One end-to-end Figure 11 cell (accelflow x a SocialNetwork service)."""
    from repro.experiments.fig11_latency import make_shards, run_shard

    shard = make_shards(scale=scale, seed=0, architectures=["accelflow"])[0]
    start = perf_counter()
    payload = run_shard(shard, scale)
    elapsed = perf_counter() - start
    # The shard payload does not carry a kernel event count; report
    # completed requests per second instead (same axis: sim work / wall s).
    return payload["service"].completed, elapsed


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def run_case(name, fn, arg, repeat):
    build = fn(arg)
    events, _ = _run_counted(build, profile=True)  # deterministic count
    walls, ref_walls = [], []
    for _ in range(repeat):
        _, elapsed = _run_counted(build, profile=False)
        walls.append(elapsed)
        # The host's speed right now, measured next to the case.
        start = perf_counter()
        reference_loop()
        ref_walls.append(perf_counter() - start)
    # Best-of-N wall time: the most noise-robust estimator of the
    # kernel's actual cost (anything slower is scheduler interference).
    best = min(walls)
    ref_best = min(ref_walls)
    return {
        "events": events,
        "wall_s_best": best,
        "wall_s_median": statistics.median(walls),
        "events_per_s": events / best if best > 0 else 0.0,
        "ref_loop_s_best": ref_best,
        # Events per reference-loop time: a faster or slower host
        # scales both walls alike, so this rate holds across hosts.
        "events_per_ref_loop": events * ref_best / best if best > 0 else 0.0,
        "repeats": repeat,
    }


def run_paced_case(scale, repeat):
    run = bench_paced_slice(scale)
    env, _ = run(sliced=False, profile=True)  # deterministic count
    run_walls, slice_walls = [], []
    for i in range(repeat):
        # Interleaved, alternating which arm goes first.
        for sliced in (False, True) if i % 2 == 0 else (True, False):
            _, elapsed = run(sliced)
            (slice_walls if sliced else run_walls).append(elapsed)
    best_run, best_slice = min(run_walls), min(slice_walls)
    return {
        "events": env.profile.events,
        "slices": PACED_SLICES,
        "run_wall_s_best": best_run,
        "slice_wall_s_best": best_slice,
        "slice_over_run": best_slice / best_run if best_run > 0 else 0.0,
        "repeats": repeat,
    }


def run_endtoend_case(name, fn, arg, repeat):
    # End-to-end cases count *requests*, not kernel events — reporting
    # them under ``events_per_s`` once made a ~1M events/s kernel look
    # like it ran at 96 "events"/s. They get their own keys.
    rates, count, walls = [], 0, []
    for _ in range(repeat):
        count, elapsed = fn(arg)
        walls.append(elapsed)
        rates.append(count / elapsed if elapsed > 0 else 0.0)
    return {
        "requests": count,
        "wall_s_best": min(walls),
        "wall_s_median": statistics.median(walls),
        "reqs_per_s": max(rates),
        "repeats": repeat,
    }


def bench_fluid_cluster(quick: bool):
    """Interleaved A/B: one fleet run exact, then again with nine of its
    ten machines on the analytical fluid tier (batched arrivals). Both
    arms share a seed (CRN); the speedup is the wall-clock ratio of
    best-of rounds measured in the same process epoch."""
    from repro.cluster import ClusterConfig, FluidConfig, run_cluster
    from repro.workloads import social_network_services

    services = [
        s for s in social_network_services() if s.name in ("UniqId", "StoreP")
    ]
    requests = 300 if quick else 900

    def run(fluid: bool):
        config = ClusterConfig(
            policy="round-robin",
            machines=10,
            requests_per_service=requests,
            rate_rps=60000.0,
            seed=0,
            arrival_mode="poisson",
            warmup_fraction=0.0,
            fluid=FluidConfig(
                fluid_machines=tuple(range(1, 10)),
                calibrate_requests=15,
                batched=True,
            ) if fluid else None,
        )
        start = perf_counter()
        result = run_cluster(services, config)
        elapsed = perf_counter() - start
        return result, elapsed

    return run


def run_fluid_case(repeat, quick):
    run = bench_fluid_cluster(quick=quick)
    exact_walls, fluid_walls = [], []
    exact_events = fluid_events = 0
    fluid_fraction = 0.0
    for _ in range(repeat):
        result, elapsed = run(fluid=False)
        exact_walls.append(elapsed)
        exact_events = result.cluster.env.scheduled_events
        result, elapsed = run(fluid=True)
        fluid_walls.append(elapsed)
        fluid_events = result.cluster.env.scheduled_events
        fluid_fraction = result.fluid_stats["mean_fluid_fraction"]
    best_exact, best_fluid = min(exact_walls), min(fluid_walls)
    return {
        "exact_wall_s_best": best_exact,
        "fluid_wall_s_best": best_fluid,
        "speedup": best_exact / best_fluid if best_fluid > 0 else 0.0,
        "exact_events": exact_events,
        "fluid_events": fluid_events,
        "event_ratio": (
            exact_events / fluid_events if fluid_events else 0.0
        ),
        "mean_fluid_fraction": fluid_fraction,
        "repeats": repeat,
    }


def take_turns(plain, other, finished, horizon_ns, slice_ns):
    """Advance two environments in alternating slices of ``slice_ns``
    simulated time until ``finished()``; returns each one's summed wall
    time and the slice count.

    The first turn alternates, so a slow spell of a shared host lands
    on both arms alike instead of on whichever whole run it hit.
    """
    envs = (plain, other)
    walls = [0.0, 0.0]
    until, slices = 0.0, 0
    while not finished():
        if until > horizon_ns:
            raise RuntimeError("the A/B arms did not finish")
        until += slice_ns
        for arm in (0, 1) if slices % 2 == 0 else (1, 0):
            start = perf_counter()
            envs[arm].run_wall_slice(until)
            walls[arm] += perf_counter() - start
        slices += 1
    return walls[0], walls[1], slices


def median_of_rounds(run_round, rounds, arm):
    """Median over rounds of the ``arm`` side's wall over the plain
    side's, after one discarded warm-up round; the median ignores the
    round that a burst of host noise still splits."""
    run_round()
    plain_walls, arm_walls, ratios = [], [], []
    completed = slices = 0
    for _ in range(rounds):
        completed, plain, other, slices = run_round()
        plain_walls.append(plain)
        arm_walls.append(other)
        ratios.append(other / plain)
    return {
        "requests": completed,
        "plain_wall_s_median": statistics.median(plain_walls),
        f"{arm}_wall_s_median": statistics.median(arm_walls),
        "round_ratios": ratios,
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "rounds": rounds,
        "slices": slices,
    }


#: Simulated time each arm of the placement A/B advances per turn: half
#: an arrival gap at 2,000 RPS.
PLACEMENT_SLICE_NS = 250e3


def bench_placement_overhead(quick: bool):
    """Two copies of one dedicated StoreP server, with no placement
    config and with the forced pass-through fabric (everything
    on-package, ``force_fabric=True``). Same seed -> identical event
    schedules; the wall-clock delta is the fabric's pure indirection
    cost on the DMA hot path, which the byte-identity contract says is
    all it may add.

    Returns ``run_round()``: it builds both servers, starts on each the
    arrival source ``drive`` would start, and advances them in
    alternating slices of ``PLACEMENT_SLICE_NS`` simulated time until
    both have finished every request. It returns the completed count,
    each arm's summed wall time and the slice count."""
    from repro.experiments.common import pick_service
    from repro.hw import MachineParams
    from repro.server.driver import RunConfig, _source, make_server
    from repro.workloads import social_network_services

    spec = pick_service(social_network_services(), "StoreP")
    requests = 200 if quick else 500

    def config_for(forced: bool):
        params = MachineParams()
        if forced:
            params = params.with_placement("on_package", force_fabric=True)
        return RunConfig(
            "accelflow",
            requests_per_service=requests,
            seed=0,
            arrival_mode="poisson",
            rate_rps=2000.0,
            machine_params=params,
            warmup_fraction=0.0,
        )

    def build(forced: bool):
        config = config_for(forced)
        server = make_server(config)
        sink = []
        server.env.process(
            _source(server, spec, config, sink), name=f"src-{spec.name}"
        )
        return server, sink

    def completed(sink) -> int:
        return sum(1 for request, _ in sink if request.completed)

    def run_round():
        gc.collect()
        arms = [build(False), build(True)]
        plain, fabric = (server.env for server, _ in arms)
        walls = take_turns(
            plain,
            fabric,
            lambda: all(completed(sink) == requests for _, sink in arms),
            config_for(False).horizon_ns([spec]),
            PLACEMENT_SLICE_NS,
        )
        if plain.scheduled_events != fabric.scheduled_events:
            raise RuntimeError("the forced fabric changed the run")
        return (requests, *walls)

    return run_round


def run_placement_case(rounds, quick):
    """Median over rounds of the fabric arm's wall over the plain arm's."""
    return median_of_rounds(
        bench_placement_overhead(quick=quick), rounds, "fabric"
    )


#: Simulated time each arm of the health A/B advances per turn: about
#: one arrival, and about a millisecond of host time.
HEALTH_SLICE_NS = 20e3


def bench_health_overhead(quick: bool):
    """Two copies of one fleet, with no health plane and with an
    installed-but-idle :class:`~repro.cluster.HealthConfig` (thresholds
    nothing crosses, prober on). The monitor is RNG-free and ejects
    nothing here, so both arms execute the identical event schedule;
    the wall-clock delta is the plane's pure observation cost — EWMA
    folds on every completion plus bounded probe sweeps.

    Returns ``run_round()``: it builds both fleets, starts on each the
    arrival sources ``run_cluster`` would start, and advances them in
    alternating slices of ``HEALTH_SLICE_NS`` simulated time until both
    have finished every request. It returns the completed count, each
    arm's summed wall time and the slice count."""
    from repro.cluster import ClusterConfig, HealthConfig, SimulatedCluster
    from repro.cluster.driver import _source
    from repro.workloads import social_network_services

    services = [
        s for s in social_network_services() if s.name in ("UniqId", "StoreP")
    ]
    requests = 200 if quick else 500
    total = requests * len(services)

    def build(health: bool):
        config = ClusterConfig(
            policy="round-robin",
            machines=3,
            requests_per_service=requests,
            rate_rps=30000.0,
            seed=0,
            arrival_mode="poisson",
            warmup_fraction=0.0,
            health=HealthConfig(
                latency_threshold_ns=1e12,
                error_threshold=1.0,
                probe_interval_ns=1e6,
                probe_pressure_threshold=1e12,
                probe_max=256,
            ) if health else None,
        )
        cluster = SimulatedCluster(config)
        sink = []
        for spec in services:
            cluster.env.process(
                _source(cluster, spec, config, sink), name=f"src-{spec.name}"
            )
        return cluster

    def finished(cluster) -> bool:
        return cluster.completed + cluster.shed + cluster.lost >= total

    def run_round():
        gc.collect()
        plain, health = build(False), build(True)
        walls = take_turns(
            plain.env,
            health.env,
            lambda: finished(plain) and finished(health),
            plain.config.horizon_ns(services),
            HEALTH_SLICE_NS,
        )
        if plain.completed != health.completed:
            raise RuntimeError("the idle health plane changed the run")
        return (plain.completed, *walls)

    return run_round


def run_health_case(rounds, quick):
    """Median over rounds of the health arm's wall over the plain arm's."""
    return median_of_rounds(bench_health_overhead(quick=quick), rounds, "health")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller scales + fewer repeats (CI mode)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="runs per case (median reported)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"result JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline BENCH_kernel.json to compare against")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="fail if store_contention events per reference "
                             "loop drop by more than this fraction vs the "
                             "baseline (default 0.20)")
    parser.add_argument("--skip-fig11", action="store_true",
                        help="skip the end-to-end fig11 shard case")
    parser.add_argument("--skip-fluid", action="store_true",
                        help="skip the fluid-vs-DES cluster A/B case")
    parser.add_argument("--skip-placement", action="store_true",
                        help="skip the placement-fabric overhead A/B case")
    parser.add_argument("--skip-health", action="store_true",
                        help="skip the health-plane overhead A/B case")
    parser.add_argument("--max-health-overhead", type=float, default=0.02,
                        help="fail if the idle health plane costs more than "
                             "this fraction of fleet wall clock (default 0.02)")
    args = parser.parse_args(argv)

    repeat = args.repeat or (3 if args.quick else 5)
    churn_scale = 200 if args.quick else 500
    # Contention is a *scaling* case: thousands of simultaneously
    # blocked actors, the regime the fleet/cluster sims live in, where
    # waiter-queue service cost dominates.
    store_scale = 1500 if args.quick else 4000
    fanin_scale = 100 if args.quick else 300

    results = {}
    print(f"bench_kernel: repeat={repeat} quick={args.quick}", flush=True)
    for name, fn, arg in [
        ("event_churn", bench_event_churn, churn_scale),
        ("store_contention", bench_store_contention, store_scale),
        ("condition_fanin", bench_condition_fanin, fanin_scale),
    ]:
        results[name] = run_case(name, fn, arg, repeat)
        print(f"  {name:<18} {results[name]['events_per_s']:>12,.0f} events/s "
              f"({results[name]['events']:,} events, "
              f"{results[name]['wall_s_median'] * 1e3:.1f} ms; "
              f"{results[name]['events_per_ref_loop']:,.0f} per reference "
              f"loop)", flush=True)

    results["paced_slice"] = run_paced_case(churn_scale, repeat)
    r = results["paced_slice"]
    print(f"  {'paced_slice':<18} {r['slice_over_run']:>11.2f}x run(until) "
          f"wall ({r['slices']} slices, {r['events']:,} events)", flush=True)

    if not args.skip_fig11:
        results["fig11_shard"] = run_endtoend_case(
            "fig11_shard", bench_fig11_shard, "smoke", max(1, repeat - 2))
        r = results["fig11_shard"]
        print(f"  {'fig11_shard':<18} {r['reqs_per_s']:>12,.0f} reqs/s "
              f"({r['wall_s_median'] * 1e3:.1f} ms)", flush=True)

    if not args.skip_fluid:
        results["fluid_cluster"] = run_fluid_case(
            max(1, repeat - 2), args.quick)
        r = results["fluid_cluster"]
        print(f"  {'fluid_cluster':<18} {r['speedup']:>11.1f}x speedup "
              f"({r['exact_wall_s_best'] * 1e3:.0f} ms exact vs "
              f"{r['fluid_wall_s_best'] * 1e3:.0f} ms fluid, "
              f"{r['mean_fluid_fraction']:.0%} fluid)", flush=True)

    if not args.skip_placement:
        results["placement_overhead"] = run_placement_case(
            2 * repeat + 3, args.quick)
        r = results["placement_overhead"]
        print(f"  {'placement_overhead':<18} "
              f"{r['overhead_fraction']:>+11.1%} overhead "
              f"(median of {r['rounds']} rounds of {r['slices']} "
              f"alternating slices; {r['plain_wall_s_median'] * 1e3:.0f} ms "
              f"plain vs {r['fabric_wall_s_median'] * 1e3:.0f} ms forced "
              f"fabric)", flush=True)

    health_gate_failed = False
    if not args.skip_health:
        results["health_plane_overhead"] = run_health_case(
            2 * repeat + 3, args.quick)
        r = results["health_plane_overhead"]
        print(f"  {'health_plane_overhead':<18} "
              f"{r['overhead_fraction']:>+11.1%} overhead "
              f"(median of {r['rounds']} rounds of {r['slices']} "
              f"alternating slices; {r['plain_wall_s_median'] * 1e3:.0f} ms "
              f"plain vs {r['health_wall_s_median'] * 1e3:.0f} ms health "
              f"plane)", flush=True)
        if r["overhead_fraction"] > args.max_health_overhead:
            print(f"FAIL: idle health plane costs "
                  f"{r['overhead_fraction']:.1%} of fleet wall clock "
                  f"(budget {args.max_health_overhead:.0%})",
                  file=sys.stderr)
            health_gate_failed = True

    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mode": "quick" if args.quick else "full",
        "cases": results,
    }

    status = 1 if health_gate_failed else 0
    if args.baseline and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        # Like with like: the quick and full cases differ in size, and a
        # raw events/s rate moves with the host, so the gate compares
        # the host-normalized rate of a baseline in the same mode.
        base_case = baseline["cases"]["store_contention"]
        if baseline.get("mode") != payload["mode"] or (
            "events_per_ref_loop" not in base_case
        ):
            print(f"FAIL: the baseline must be recorded in {payload['mode']} "
                  f"mode with events_per_ref_loop (it is "
                  f"{baseline.get('mode')!r}); re-record it with this "
                  f"harness", file=sys.stderr)
            return 2
        base_rate = base_case["events_per_ref_loop"]
        new_rate = results["store_contention"]["events_per_ref_loop"]
        ratio = new_rate / base_rate if base_rate else float("inf")
        payload["comparison"] = {
            "baseline_store_contention_events_per_ref_loop": base_rate,
            "ratio": ratio,
        }
        print(f"store_contention vs baseline: {ratio:.2f}x "
              f"({new_rate:,.0f} vs {base_rate:,.0f} events per reference "
              f"loop)")
        if ratio < 1.0 - args.max_regression:
            print(f"FAIL: store_contention regressed more than "
                  f"{args.max_regression:.0%} vs baseline", file=sys.stderr)
            status = 1

    # Carry the pre-optimization reference and the last recorded
    # parent/change A/B forward so the JSON documents the perf
    # trajectory, not just a point sample.
    if args.output.exists():
        try:
            previous = json.loads(args.output.read_text())
            for key in ("reference", "ab"):
                if key in previous:
                    payload[key] = previous[key]
        except (ValueError, KeyError):
            pass

    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())

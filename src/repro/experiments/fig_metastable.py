"""Metastable-failure experiment: fixed retries vs retry budgets.

Beyond-paper experiment reproducing the *metastable failure* pattern
(Bronson et al., HotOS'21; Huang et al., OSDI'22) on the accelerator
ensemble: a short gray-failure trigger (intermittent slowdowns on one
accelerator instance, :mod:`repro.faults.plane`) pushes queue waits past
the step watchdog, the watchdog abandons attempts whose work is already
admitted to the accelerator, and each retry *duplicates* that work. The
sustaining feedback loop is load amplification: duplicated work keeps
queue waits above the watchdog, which keeps duplicating work — long
after the trigger itself has cleared.

Two arms share the same seed (CRN: identical arrivals, identical
trigger schedule):

* ``fixed-retry``  — the legacy recovery config: every watchdog timeout
  earns up to ``step_max_retries`` fresh attempts, unconditionally.
* ``retry-budget`` — identical, plus a per-service retry *budget*
  (token bucket, :class:`repro.faults.recovery.RetryBudget`). While
  the storm rages the bucket drains, further retries are denied, and
  denied requests degrade to the CPU fallback path instead of
  re-entering the accelerator queue — quenching the amplification.

Each arm first replays the same arrivals fault-free to pin the SLO
(``SLO_MULTIPLIER`` x clean mean), then runs with the trigger enabled
and reports the fraction of requests breaching the SLO per time window.
Expected shape: both arms breach during the trigger (window 1); the
fixed-retry arm then *stays* breached to the end of the run while the
retry-budget arm returns to ~0 within a window or two.

Circuit breakers are deliberately defanged here (huge failure
threshold): breakers tripping on watchdog failures would halve capacity
for the breaker cooldown in *both* arms and mask the mechanism under
test. The experiment isolates retry amplification as the sustaining
loop and the budget as the cure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..faults import FaultConfig
from ..server.driver import RunConfig, calibrate_slo, drive, make_server
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pick_service, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "ARMS", "ARM_ORDER", "SERVICE", "RATE_RPS", "WINDOWS"]

#: The measured service: a light, accelerator-heavy path whose clean
#: latency is dominated by one accelerator kind, so a slowdown on one
#: instance of that kind moves the whole distribution.
SERVICE = "UniqId"

#: The measured architecture (the trigger needs multiple instances per
#: accelerator kind for a *single-instance* slowdown to be partial).
ARCHITECTURE = "accelflow"

#: Offered load (RPS): ~65% of the architecture's capacity for this
#: service. High enough that duplicated work saturates the ensemble,
#: low enough that the baseline (and the budget arm's CPU-degraded
#: remainder) has headroom to drain.
RATE_RPS = 170_000.0

#: Requests per run = this multiplier x the scale's request budget, so
#: the run spans enough windows to see the post-trigger regime.
N_MULT = 40

#: Time windows the run is cut into for the breach-fraction series.
WINDOWS = 8

#: SLO = multiplier x the same-seed fault-free mean latency.
SLO_MULTIPLIER = 5.0

#: Simulated drain budget past the last arrival (ns).
DRAIN_NS = 50e6

#: The gray-failure trigger: short intermittent slowdowns scoped to the
#: TCP accelerator (the bottleneck kind for this service — 34% of the
#: UniqId path), confined to the first run window. The tight watchdog
#: converts the resulting queue waits into abandoned attempts (whose
#: admitted work still executes) plus duplicated retries.
_TRIGGER = dict(
    gray_slowdown_interval_ns=5e4,
    gray_slowdown_ns=3e5,
    gray_slowdown_factor=10.0,
    gray_slowdown_max=6,
    gray_slowdown_kind="TCP",
)

#: Arm name -> fault config. Same trigger, same watchdog, same retry
#: ceiling; the only difference is the retry budget. Breakers are
#: defanged in both arms (see module docstring).
_FIXED = FaultConfig(
    **_TRIGGER,
    watchdog_timeout_ns=1.5e5,
    step_max_retries=8,
    breaker_failure_threshold=100_000,
)
ARMS: Dict[str, FaultConfig] = {
    "fixed-retry": _FIXED,
    "retry-budget": replace(
        _FIXED,
        retry_budget_tokens=40.0,
        retry_budget_refill_per_s=2000.0,
    ),
}

#: Render order (legacy config first, cure second).
ARM_ORDER = ["fixed-retry", "retry-budget"]


def _breach_series(in_flight, span_ns: float, slo_ns: float) -> List[float]:
    """Per-window fraction of requests breaching the SLO.

    Completed requests are windowed by completion time; censored
    (unfinished) requests count as breaches in their arrival window.
    """
    totals = [0] * WINDOWS
    breaches = [0] * WINDOWS
    for request, _process in in_flight:
        if request.completed:
            t_ns = request.complete_ns
            breached = request.latency_ns > slo_ns or request.error
        else:
            t_ns = request.arrival_ns
            breached = True
        index = min(int(t_ns / span_ns * WINDOWS), WINDOWS - 1)
        totals[index] += 1
        if breached:
            breaches[index] += 1
    return [
        breaches[i] / totals[i] if totals[i] else 0.0 for i in range(WINDOWS)
    ]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        # The seed is arm-independent: both arms replay identical
        # arrivals and an identical trigger schedule (CRN), so any
        # post-trigger divergence is the retry policy's doing.
        Shard(
            (arm,),
            {"arm": arm},
            derive_seed(seed, "fig_metastable"),
        )
        for arm in ARM_ORDER
    ]


def run_shard(shard: Shard, scale: str) -> Dict[str, object]:
    """Windowed breach series + recovery counters for one arm."""
    arm = shard.params["arm"]
    spec = pick_service(social_network_services(), SERVICE)
    n_requests = N_MULT * requests_for(scale)

    # Fault-free reference at the same seed pins the SLO, so the breach
    # series measures storm damage, not steady-state queueing.
    config = RunConfig(
        ARCHITECTURE,
        requests_per_service=n_requests,
        seed=shard.seed,
        arrival_mode="poisson",
        rate_rps=RATE_RPS,
        drain_ns=DRAIN_NS,
    )
    slo_ns, _, _ = calibrate_slo(spec, config, SLO_MULTIPLIER)
    config = replace(config, faults=ARMS[arm])
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    span_ns = n_requests / RATE_RPS * 1e9  # expected arrival span
    recovery = server.orchestrator.stats().get("recovery", {})
    censored = sum(1 for r, _ in in_flight if not r.completed)
    return {
        "breach": _breach_series(in_flight, span_ns, slo_ns),
        "slo_ns": slo_ns,
        "censored": float(censored),
        "watchdog_timeouts": float(recovery.get("watchdog_timeouts", 0.0)),
        "step_retries": float(recovery.get("step_retries", 0.0)),
        "degraded_to_cpu": float(recovery.get("degraded_to_cpu", 0.0)),
        "budget_denials": float(recovery.get("budget_denials", 0.0)),
        "breaker_trips": float(recovery.get("breaker_trips", 0.0)),
    }


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    breach = {arm: payloads[(arm,)]["breach"] for arm in ARM_ORDER}

    rows = [
        [arm] + [100.0 * fraction for fraction in breach[arm]]
        for arm in ARM_ORDER
    ]
    table = format_table(
        ["Arm"] + [f"W{i + 1}" for i in range(WINDOWS)],
        rows,
        title=(
            "Metastable failure: % of requests breaching the SLO per "
            f"window\n({SERVICE} on {ARCHITECTURE} @ {RATE_RPS:g} RPS; "
            f"SLO = {SLO_MULTIPLIER:g}x clean mean; gray trigger "
            "confined to W1)"
        ),
    )

    recovery_rows = [
        [
            arm,
            payloads[(arm,)]["watchdog_timeouts"],
            payloads[(arm,)]["step_retries"],
            payloads[(arm,)]["degraded_to_cpu"],
            payloads[(arm,)]["budget_denials"],
            payloads[(arm,)]["censored"],
        ]
        for arm in ARM_ORDER
    ]
    table += "\n\n" + format_table(
        ["Arm", "Watchdogs", "Retries", "ToCPU", "Denied", "Censored"],
        recovery_rows,
        title="Metastable failure: recovery-plane activity per arm",
    )

    # The claim: after the trigger clears (W1), the fixed-retry arm
    # stays breached to the end of the run while the budget arm
    # recovers. Judge on the final window.
    fixed_final = breach["fixed-retry"][-1]
    budget_final = breach["retry-budget"][-1]
    metastable = fixed_final > 0.5 and budget_final < 0.1
    verdict = "CONFIRMED" if metastable else "NOT CONFIRMED"
    table += (
        "\n\nSustained degradation after the trigger cleared: fixed-retry "
        f"{100.0 * fixed_final:.1f}% vs retry-budget "
        f"{100.0 * budget_final:.1f}% breached in the final window "
        f"-> {verdict}"
    )
    return {
        "breach": breach,
        "metastable_confirmed": metastable,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig_metastable", make_shards, run_shard, merge,
    claim=(
        "(beyond paper) metastable failure A/B: "
        "fixed retries sustain a retry storm after the trigger clears; "
        "an adaptive retry budget self-quenches it"
    ),
)
run = SHARDED.run

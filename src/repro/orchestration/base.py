"""Orchestrator base: walks service paths and trace chains.

Every architecture executes the same service paths (Table IV) over the
same hardware; what differs is *who coordinates* the hand-off between
accelerators and what that costs. The base class owns the shared walk —
CPU segments, trace chains across ATM links, remote-response waits,
parallel fan-out, CPU fallback, tenant throttling — and defers three
hooks to subclasses:

* :meth:`submit_overhead` — cost of initiating a chain from a core,
* :meth:`after_step` — what happens when an accelerator finishes one
  operation (the architectural crux),
* :meth:`run_step` — how an operation is admitted to an accelerator.

Latency is attributed to the request's component buckets throughout
(Figure 17).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..core.glue import GlueCostModel
from ..core.registry import TraceRegistry
from ..core.tenancy import TenantManager
from ..core.trace import ResolvedPath, ResolvedStep
from ..hw.ensemble import ServerHardware
from ..hw.noc import CPU_ENDPOINT
from ..hw.ops import QueueEntry
from ..hw.params import AcceleratorKind
from ..obs.telemetry import RecoveryEvent, RequestEnd
from ..workloads.request import Buckets, Request
from ..sim import Environment, Interrupt, RandomStreams
from ..workloads.calibration import OrchestrationCosts, RemoteLatencies
from ..workloads.costs import CostModel
from ..workloads.spec import CpuSegment, ParallelInvocations, TraceInvocation

__all__ = ["Orchestrator", "REMOTE_DEPENDENCY_OF_TRACE"]

#: Which remote dependency a receive-trace waits on (median pick key).
REMOTE_DEPENDENCY_OF_TRACE: Dict[str, str] = {
    "T5": "db_cache",
    "T6": "database",
    "T7": "db_cache",
    "T10": "nested_rpc",
    "T12": "http",
}

#: Remote dependencies (caches, databases, peer services) run on servers
#: with the same architecture, so their response times scale with it.
#: These factors are the measured unloaded-latency ratios of a short
#: service on each architecture relative to the software-only baseline
#: (the RemoteLatencies medians describe non-accelerated responders).
REMOTE_ARCHITECTURE_SCALE: Dict[str, float] = {
    "non-acc": 1.00,
    "cpu-centric": 0.42,
    "relief": 0.37,
    "per-acc-type-q": 0.37,
    "direct": 0.34,
    "cntrflow": 0.32,
    "cohort": 0.33,
    "accelflow": 0.29,
    "accelflow-adaptive": 0.29,
    "ideal": 0.28,
}

#: Lost remote responses re-waited (with recovery installed) before the
#: request is declared fatally timed out.
TCP_MAX_RETRIES = 2

#: Corrupted inter-accelerator DMA transfers re-issued (with recovery
#: installed) before the request is failed.
DMA_MAX_RETRIES = 2


class Orchestrator:
    """Base orchestrator; subclasses implement the coordination costs."""

    name = "base"
    #: False for the software-only architecture (Non-acc).
    uses_accelerators = True

    def __init__(
        self,
        env: Environment,
        hardware: ServerHardware,
        registry: TraceRegistry,
        cost_model: CostModel,
        streams: RandomStreams,
        orch_costs: Optional[OrchestrationCosts] = None,
        remotes: Optional[RemoteLatencies] = None,
        tracer=None,
        fault_plane=None,
    ):
        self.env = env
        self.hardware = hardware
        self.registry = registry
        self.cost_model = cost_model
        self.streams = streams
        #: Optional :class:`repro.obs.SpanTracer` (one attribute check
        #: per instrumentation point when tracing is off).
        self.tracer = tracer
        #: Optional :class:`repro.obs.TelemetryBus` (same contract);
        #: request terminals and recovery-plane events stream onto it.
        self.bus = None
        self.costs = orch_costs or OrchestrationCosts()
        self.remotes = remotes or RemoteLatencies()
        self.glue = GlueCostModel(hardware.params.cpu.ghz)
        self.tenants = TenantManager(hardware.params.tenant_trace_limit)
        self._remote_stream = streams.stream(f"remote/{self.name}")
        #: Optional :class:`repro.faults.FaultPlane`. When present, the
        #: dispatch path runs under watchdog timeouts with bounded retry
        #: and circuit-breaker health tracking; when None (default) every
        #: code path and every RNG draw matches the fault-free simulator.
        self.fault_plane = fault_plane
        self.recovery = None
        if fault_plane is not None:
            from ..faults.recovery import RecoveryPolicy

            self.recovery = RecoveryPolicy(
                env, fault_plane.config,
                streams.stream(f"faults/recovery/{self.name}"),
            )
            #: Name prefix of each recovered attempt's process, per kind:
            #: "step-<kind>-<rid>" groups per kind in the kernel profile.
            self._attempt_prefix = {
                kind: f"step-{kind.value}-" for kind in AcceleratorKind
            }
        self.fallbacks = 0
        self.tcp_timeouts = 0
        #: Requests that lost at least one remote response but recovered
        #: through a retried wait (vs. tcp_timeouts: fatal, request
        #: errored out). Satellite accounting split.
        self.tcp_recovered = 0
        self.chains_executed = 0
        # Per-tenant FIFO of slot-gate events; deques so the
        # grant path pops in O(1) however deep the throttle backlog.
        self._tenant_waiters: Dict[int, deque] = {}

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------
    def _obs_rid(self, request: Request) -> Optional[int]:
        """The request's id iff this request is being traced."""
        tracer = self.tracer
        if tracer is not None and tracer.is_sampled(request.rid):
            return request.rid
        return None

    # ------------------------------------------------------------------
    # Request-level walk
    # ------------------------------------------------------------------
    def execute_request(self, request: Request):
        """Process: run one request through its service path."""
        env = self.env
        spec = request.spec
        for step in spec.path:
            if isinstance(step, CpuSegment):
                duration = self.cost_model.cpu_segment_ns(spec, step)
                yield from self._run_on_core(request, duration)
            elif isinstance(step, TraceInvocation):
                yield env.process(self.run_chain(request, step), name="run_chain")
            elif isinstance(step, ParallelInvocations):
                chains = [
                    env.process(self.run_chain(request, inv), name="run_chain")
                    for inv in step.invocations
                ]
                yield env.all_of(chains)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown path step {step!r}")
            if request.error or request.timed_out:
                break
        request.complete_ns = env.now
        if self.bus is not None:
            self.bus.publish(
                RequestEnd(
                    t_ns=env.now,
                    service=spec.name,
                    latency_ns=request.latency_ns,
                    ok=not (request.error or request.timed_out),
                    error=request.error,
                    timed_out=request.timed_out,
                    fell_back=request.fell_back,
                )
            )
        rid = self._obs_rid(request)
        if rid is not None:
            self.tracer.complete(
                f"request {spec.name}",
                f"req:{spec.name}",
                request.arrival_ns,
                env.now,
                rid=rid,
                cat="request",
                args={
                    "ops": request.accelerator_ops,
                    "error": request.error,
                    "fell_back": request.fell_back,
                    **{k: round(v, 1) for k, v in request.components.items() if v},
                },
            )
            self.tracer.finish_request(request.rid)

    # ------------------------------------------------------------------
    # Chain-level walk (entry trace + ATM links + remote waits)
    # ------------------------------------------------------------------
    def run_chain(self, request: Request, invocation: TraceInvocation):
        """The body of one chain's process: the :meth:`_chain` generator
        with this request's payload fields, returned as is so that no
        delegating frame runs on each of its resumptions."""
        state = dict(request.state)
        state.update(invocation.forced)
        return self._chain(request, invocation.entry, state, first=True)

    def _chain(self, request: Request, name: str, state: Dict[str, bool], first: bool):
        """Generator: run trace ``name`` and every trace it links to."""
        while name:
            trace = self.registry.get(name)
            path = trace.resolve(state)
            self.chains_executed += 1
            initiated_by_core = (
                first and path.steps
                and path.steps[0].kind is not AcceleratorKind.TCP
            )
            # A CPU fallback still continues the chain from the CPU.
            yield from self.execute_path(
                request, path, state, initiated_by_core=initiated_by_core
            )
            if path.error:
                request.error = True
                return
            name = yield from self._next_trace(request, path)
            first = False

    def _next_trace(self, request: Request, path: ResolvedPath):
        """Generator: the name of the trace ``path`` links to, or None.

        Across a remote boundary it first waits for the remote response,
        and returns None when that response was lost for good.
        """
        name = path.next_trace
        if name and self._is_remote_boundary(path, self.registry.get(name)):
            ok = yield from self._wait_remote(request, name)
            if not ok:
                return None
        return name

    def _is_remote_boundary(self, path: ResolvedPath, next_trace) -> bool:
        """A TCP send followed by a TCP receive crosses the network."""
        if not path.steps:
            return False
        return (
            path.steps[-1].kind is AcceleratorKind.TCP
            and next_trace.first_kind is AcceleratorKind.TCP
        )

    def _wait_remote(self, request: Request, next_name: str) -> bool:
        """Wait for the remote response; False on fatal TCP timeout.

        With recovery installed, a lost response is re-waited up to
        :data:`TCP_MAX_RETRIES` times with jittered backoff (counted in
        ``tcp_recovered`` when a retry eventually lands); without it, the
        first loss is fatal, exactly as in the fault-free simulator.
        """
        env = self.env
        recovery = self.recovery
        attempts = 0
        while self._remote_stream.bernoulli(self.remotes.loss_probability):
            # The response never arrives: the TCP input-queue entry times
            # out and the core is notified (Section IV-B).
            yield env.timeout(self.costs.tcp_response_timeout_ns)
            # Re-waiting is a retry: it must clear both the per-attempt
            # bound and the shared retry budget, else the loss is fatal
            # now instead of re-offering load to a saturated network.
            if (
                recovery is None
                or attempts >= TCP_MAX_RETRIES
                or not recovery.allow_retry("tcp")
            ):
                request.timed_out = True
                request.error = True
                self.tcp_timeouts += 1
                return False
            attempts += 1
            request.tcp_retries += 1
            yield env.timeout(recovery.backoff_ns(attempts))
        if attempts:
            self.tcp_recovered += 1
        dependency = REMOTE_DEPENDENCY_OF_TRACE.get(next_name, "nested_rpc")
        median = getattr(self.remotes, f"{dependency}_ns")
        median *= REMOTE_ARCHITECTURE_SCALE.get(self.name, 1.0)
        delay = self._remote_stream.lognormal_median(median, self.remotes.sigma)
        start = env.now
        yield env.timeout(delay)
        request.add(Buckets.REMOTE, delay)
        rid = self._obs_rid(request)
        if rid is not None:
            self.tracer.complete(
                f"remote-wait {dependency}",
                f"req:{request.spec.name}",
                start,
                env.now,
                rid=rid,
                cat="remote",
                args={"trace": next_name},
            )
        return True

    # ------------------------------------------------------------------
    # Path-level walk (one resolved trace)
    # ------------------------------------------------------------------
    def execute_path(
        self,
        request: Request,
        path: ResolvedPath,
        state: Dict[str, bool],
        initiated_by_core: bool = False,
    ):
        """Generator: run one resolved trace, then its parallel fan-out."""
        env = self.env
        steps = path.steps
        if not steps:
            return
        # Per-tenant trace accounting (Section IV-D): a trace may only
        # start while the tenant is below its concurrent-trace limit N.
        wait_start = env.now
        yield from self._acquire_tenant_slot(request.tenant)
        request.components[Buckets.QUEUE] += env.now - wait_start
        try:
            if initiated_by_core:
                yield from self.submit_overhead(request, path)
            for index, step in enumerate(steps):
                entry = yield from self.run_step(request, step)
                if entry is None:
                    yield from self.cpu_fallback(request, steps[index:], state)
                    return
                request.accelerator_ops += 1
                next_step = steps[index + 1] if index + 1 < len(steps) else None
                yield from self.after_step(request, step, entry, next_step)
                # The output dispatcher has moved the entry onward: free
                # its output-queue slot (unblocks a backpressured PE).
                entry.context["accel"].consume_output(entry)
                if self.recovery is not None and request.error:
                    # A fatally corrupted hand-off already failed the
                    # request; executing the rest of the trace would only
                    # burn simulated hardware on a dead request.
                    return
        finally:
            self._release_tenant_slot(request.tenant)
        yield from self._fan_out(request, steps[-1].fanout, state)

    def _fan_out(
        self, request: Request, arms: List[ResolvedPath], state: Dict[str, bool]
    ):
        """Generator: run the arms that fork after a trace's last step in
        parallel (each arm's traces claim their own tenant slots)."""
        if arms:
            env = self.env
            yield env.all_of(
                [env.process(self._run_arm(request, arm, state)) for arm in arms]
            )

    def _run_arm(self, request: Request, arm: ResolvedPath, state: Dict[str, bool]):
        """Process: one parallel arm, following its own chain links."""
        yield from self.execute_path(request, arm, state)
        name = yield from self._next_trace(request, arm)
        yield from self._chain(request, name, state, first=False)

    # ------------------------------------------------------------------
    # Core execution (deadline-aware when the request carries an SLO)
    # ------------------------------------------------------------------
    def _core_priority(self, request: Request):
        """Core-queue priority: requests closer to their deadline first
        (Section IV-C policy); None means the default priority."""
        if request.slo_deadline_ns is None:
            return None
        # Strictly between the interrupt priority (0) and normal (10).
        return 1.0 + request.slo_deadline_ns * 1e-12

    def _run_on_core(self, request: Request, duration_ns: float):
        """Run ``duration_ns`` of this request's work on a core,
        charging busy time to CPU and any wait to the queue bucket."""
        env = self.env
        start = env.now
        yield env.process(
            self.hardware.cores.execute(
                duration_ns, priority=self._core_priority(request)
            )
        )
        components = request.components
        components[Buckets.CPU] += duration_ns
        # Clamped at 0.0: float cancellation in now - start - duration
        # can land an idle wait a few ulps below zero.
        wait_ns = env.now - start - duration_ns
        if wait_ns < 0.0:
            wait_ns = 0.0
        components[Buckets.QUEUE] += wait_ns
        rid = None if self.tracer is None else self._obs_rid(request)
        if rid is not None:
            self.tracer.complete(
                "cpu",
                "cores",
                start,
                env.now,
                rid=rid,
                cat="cpu",
                args={"busy_ns": round(duration_ns, 1),
                      "wait_ns": round(env.now - start - duration_ns, 1)},
            )

    # ------------------------------------------------------------------
    # Tenant slot waiting (event-based, no polling)
    # ------------------------------------------------------------------
    def _acquire_tenant_slot(self, tenant: int):
        while not self.tenants.try_start(tenant):
            gate = self.env.event()
            waiters = self._tenant_waiters.setdefault(tenant, deque())
            waiters.append(gate)
            try:
                yield gate
            except Interrupt:
                # Torn down while throttled (machine failure, watchdog
                # cascade): never swallow a slot-freed wakeup.
                if gate.triggered:
                    if waiters:
                        waiters.popleft().succeed()
                else:
                    waiters.remove(gate)
                raise

    def _release_tenant_slot(self, tenant: int) -> None:
        self.tenants.end(tenant)
        waiters = self._tenant_waiters.get(tenant)
        if waiters:
            waiters.popleft().succeed()

    # ------------------------------------------------------------------
    # Hooks (overridden per architecture)
    # ------------------------------------------------------------------
    def submit_overhead(self, request: Request, path: ResolvedPath):
        """Core-side cost of launching a chain (user-mode Enqueue + DMA)."""
        cost = self.hardware.params.cpu.enqueue_ns
        yield self.env.timeout(cost)
        request.components[Buckets.ORCHESTRATION] += cost

    def run_step(self, request: Request, step: ResolvedStep):
        """Admit one operation and wait for its PE to finish.

        Returns a generator (run with ``yield from``) whose value is the
        completed :class:`QueueEntry`, or None when the step could not
        run on hardware (accelerator full after retries; with recovery:
        retry budget exhausted or every instance breaker-open) and the
        trace must fall back to the CPU. The base class returns the
        attempt's own generator, so no delegating frame runs on each of
        its resumptions.
        """
        if self.recovery is not None:
            return self._run_step_recovered(request, step)
        return self._attempt(request, step, {})

    def _attempt(self, request: Request, step: ResolvedStep, box: Dict):
        """Generator: one dispatch attempt; the completed entry or None.

        The fault-free path runs it inline; with recovery it is the body
        of the child process raced against the watchdog. ``box["accel"]``
        holds the last instance tried, and ``box["fatal"]`` is set when
        retrying cannot help. A corrupted result returns None. On an
        Interrupt the entry is abandoned and the Interrupt re-raised.
        """
        env = self.env
        op = self.cost_model.op_for(request.spec, step.kind, request.wire_size)
        entry = QueueEntry(
            env,
            op,
            tenant=request.tenant,
            priority=request.priority,
            deadline_ns=request.slo_deadline_ns,
        )
        if self.tracer is not None:
            rid = self._obs_rid(request)
            if rid is not None:
                # Lets the accelerator attribute queue/PE spans to us.
                entry.context["obs_rid"] = rid
        # Each Enqueue targets a freshly picked instance of the type (a
        # failing Enqueue "retries with another accelerator of the same
        # type", Section IV-A): the least-occupied one, or with recovery
        # the healthiest least-occupied one, None if every one is tripped.
        recovery = self.recovery
        hardware = self.hardware
        retries = 0
        try:
            while True:
                if recovery is None:
                    accel = hardware.accel(step.kind)
                else:
                    accel = recovery.pick(hardware.instances[step.kind], env.now)
                    if accel is None:
                        break
                box["accel"] = accel
                if accel.try_enqueue(entry):
                    break
                retries += 1
                if retries > hardware.params.cpu.enqueue_max_retries:
                    accel = None
                    break
                yield env.timeout(200.0)
            if accel is None:
                # Queues still full after every retry, or every instance
                # breaker-open: retrying cannot help, so degrade to CPU.
                box["fatal"] = True
                self.fallbacks += 1
                request.fell_back = True
                return None
            entry.context["accel"] = accel
            yield entry.done
        except Interrupt:
            # Watchdog (or teardown): the entry may still be queued or
            # executing; make sure its eventual output slot is freed.
            self._abandon_entry(accel, entry)
            raise
        if entry.context.get("fault") is not None:
            # Corrupted result: retire it; the caller retries or degrades.
            accel.consume_output(entry)
            return None
        # Request.add, QueueEntry.queue_wait_ns and .service_ns, inlined.
        components = request.components
        components[Buckets.QUEUE] += entry.dispatch_time - entry.enqueue_time
        retire_ns = entry.context.get("retire_ns", 0.0)
        components[Buckets.ACCEL] += (
            entry.complete_time - entry.dispatch_time - retire_ns
        )
        components[Buckets.ORCHESTRATION] += retire_ns
        return entry

    # ------------------------------------------------------------------
    # Recovered dispatch (watchdog + retry/backoff + circuit breakers)
    # ------------------------------------------------------------------
    def _run_step_recovered(self, request: Request, step: ResolvedStep):
        """Run one step under a watchdog with bounded backoff retries.

        Each attempt executes in a child process so the watchdog can
        interrupt it cleanly; a returned None degrades the remaining
        trace suffix to the CPU through the caller's fallback path.
        """
        env = self.env
        recovery = self.recovery
        config = recovery.config
        attempts = 0
        name = f"{self._attempt_prefix[step.kind]}{request.rid}"
        while True:
            attempt_start = env.now
            box: Dict[str, object] = {}
            attempt = env.process(self._raced_attempt(request, step, box), name=name)
            watchdog = env.timeout(config.watchdog_timeout_ns)
            try:
                yield env.any_of([attempt, watchdog])
            except Interrupt:
                # Our own process is being torn down (e.g. a machine
                # failure): unwind the attempt before propagating.
                if attempt.is_alive:
                    attempt.interrupt("parent-interrupted")
                    yield attempt
                raise
            if attempt.is_alive:
                recovery.watchdog_timeouts += 1
                if self.bus is not None:
                    self.bus.publish(
                        RecoveryEvent(
                            t_ns=env.now,
                            kind_name="watchdog-timeout",
                            args={"step": step.kind.value, "rid": request.rid},
                        )
                    )
                attempt.interrupt("watchdog")
                yield attempt  # lets the attempt abandon its entry
            entry = box.get("entry")
            if entry is not None:
                recovery.record_success(box["accel"])
                return entry
            # Time burned by the failed attempt reads as queueing delay.
            request.add(Buckets.QUEUE, env.now - attempt_start)
            if box.get("fatal"):
                # Full queues / all-breakers-open: immediate CPU fallback
                # (capacity exhaustion is not an instance-health signal).
                return None
            accel = box.get("accel")
            if accel is not None:
                recovery.record_failure(accel)
            attempts += 1
            # Short-circuit order matters: past the per-attempt bound no
            # token is drawn, so a zero-capacity budget (the default)
            # leaves this path byte-identical to the pre-budget model.
            if attempts > config.step_max_retries or not recovery.allow_retry(
                "step"
            ):
                recovery.degraded_to_cpu += 1
                self.fallbacks += 1
                request.fell_back = True
                if self.bus is not None:
                    self.bus.publish(
                        RecoveryEvent(
                            t_ns=env.now,
                            kind_name="degraded-to-cpu",
                            args={"step": step.kind.value, "rid": request.rid},
                        )
                    )
                return None
            recovery.step_retries += 1
            request.step_retries += 1
            backoff = recovery.backoff_ns(attempts)
            yield env.timeout(backoff)
            request.add(Buckets.QUEUE, backoff)

    def _raced_attempt(self, request: Request, step: ResolvedStep, box: Dict):
        """Process: :meth:`_attempt`, its entry left in ``box["entry"]``;
        an Interrupt (watchdog or teardown) ends it quietly."""
        try:
            box["entry"] = yield from self._attempt(request, step, box)
        except Interrupt:
            pass

    @staticmethod
    def _abandon_entry(accel, entry: QueueEntry) -> None:
        """Free an abandoned entry's output slot, now or on completion.

        The accelerator will still execute a queued entry we gave up on
        (the work was already admitted); what must not leak is its
        output-queue slot, which would otherwise backpressure a PE
        forever.
        """
        done = entry.done
        if done.callbacks is None:
            accel.consume_output(entry)
        else:
            done.callbacks.append(
                lambda _event, a=accel, e=entry: a.consume_output(e)
            )

    def after_step(
        self,
        request: Request,
        step: ResolvedStep,
        entry: QueueEntry,
        next_step: Optional[ResolvedStep],
    ):
        """Architecture-specific completion handling."""
        raise NotImplementedError

    def cpu_fallback(
        self, request: Request, steps: List[ResolvedStep], state: Dict[str, bool]
    ):
        """Run the remaining operations of a trace in software."""
        kinds = [s.kind for s in steps]
        for step in steps:
            for arm in step.fanout:
                kinds.extend(k for k in arm.kinds())
        duration = self.cost_model.software_chain_ns(
            request.spec, kinds, request.wire_size
        )
        yield from self._run_on_core(request, duration)

    # ------------------------------------------------------------------
    # Shared cost helpers
    # ------------------------------------------------------------------
    def _dma_with_retry(self, request: Request, src, dst, nbytes: int, rid=None):
        """Generator: one DMA leg, re-issuing corrupted transfers.

        Without recovery this is a single transfer (corruption cannot be
        injected then). With recovery, corrupted transfers are re-issued
        with backoff up to :data:`DMA_MAX_RETRIES`; exhaustion fails the
        request with a sane error status.
        """
        env = self.env
        recovery = self.recovery
        attempt = 0
        while True:
            ok = yield env.process(
                self.hardware.dma.transfer(src, dst, nbytes, obs_rid=rid)
            )
            if ok or recovery is None:
                return ok
            attempt += 1
            if attempt > DMA_MAX_RETRIES or not recovery.allow_retry("dma"):
                recovery.dma_fatal += 1
                request.error = True
                return False
            recovery.dma_retries += 1
            yield env.timeout(recovery.backoff_ns(attempt))

    def dma_to_next(self, request: Request, step: ResolvedStep, entry: QueueEntry,
                    next_step: ResolvedStep):
        """Move the output payload into the next accelerator's queue."""
        start = self.env.now
        yield from self._dma_with_retry(
            request, step.kind, next_step.kind, entry.op.data_out,
            rid=None if self.tracer is None else self._obs_rid(request),
        )
        request.components[Buckets.COMMUNICATION] += self.env.now - start

    def deliver_result(self, request: Request, step: ResolvedStep, entry: QueueEntry):
        """DMA the final payload to memory and notify the core."""
        env = self.env
        start = env.now
        rid = None if self.tracer is None else self._obs_rid(request)
        yield from self._dma_with_retry(
            request, step.kind, CPU_ENDPOINT, entry.op.data_out, rid=rid
        )
        notify_start = env.now
        notify_ns = self.hardware.cores.notification_ns()
        yield env.timeout(notify_ns)
        request.components[Buckets.COMMUNICATION] += env.now - start
        if rid is not None:
            self.tracer.complete(
                "notify",
                "cores",
                notify_start,
                env.now,
                rid=rid,
                cat="notify",
                args={"from": step.kind.value},
            )

    def stats(self) -> Dict[str, float]:
        stats = {
            "fallbacks": float(self.fallbacks),
            "tcp_timeouts": float(self.tcp_timeouts),
            "tcp_recovered": float(self.tcp_recovered),
            "chains_executed": float(self.chains_executed),
            "glue": self.glue.stats(),
            "tenants": self.tenants.stats(),
        }
        if self.recovery is not None:
            stats["recovery"] = self.recovery.stats()
        return stats

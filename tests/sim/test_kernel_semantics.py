"""Kernel-semantics parity suite: the permanent spec of the fast path.

The simulation kernel's dispatch substrate was rewritten for speed
(deque-backed waiter queues, an inlined event loop in ``run()``, inline
scheduling on the store hot paths). During review these tests were run
against both the old list-backed dispatch and the new fast path; they
are kept as the behavioural contract any future kernel optimization
must preserve. They pin the subtle orderings golden fixtures depend on:
interrupt-vs-completion races, condition defusing, and store
cancel/reinsert ordering — plus regressions for the latent bugs fixed
alongside the rewrite.
"""

import random

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# Regressions for the latent kernel bugs fixed with the perf rework
# ---------------------------------------------------------------------------

class TestRunUntilFailedEvent:
    def test_processed_failed_until_event_raises(self):
        """run(until=e) on an already-*processed* failed event must raise
        the exception — not hand the exception object back as a value."""
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("boom"))
        event._defused = True  # a handler saw it the first time around
        env.run()  # processes the event
        assert event.processed
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=event)

    def test_handled_failure_still_raises_from_run_until(self):
        """Even when a process already caught the failure, a later
        run(until=event) reports it as an exception, not a value."""
        env = Environment()
        event = env.event()
        caught = []

        def handler(env):
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        env.process(handler(env))
        event.fail(ValueError("x"))
        env.run()
        assert caught == ["x"]
        with pytest.raises(ValueError):
            env.run(until=event)

    def test_processed_ok_until_event_returns_value(self):
        env = Environment()
        event = env.event()
        event.succeed("result")
        env.run()
        assert env.run(until=event) == "result"


class TestLateConditionChildFailure:
    def test_anyof_loser_failing_later_is_defused(self):
        """An AnyOf whose losing branch fails *after* the condition has
        triggered must not leak an unhandled failure out of run()."""
        env = Environment()

        def winner(env):
            yield env.timeout(1.0)
            return "fast"

        def loser(env):
            yield env.timeout(5.0)
            raise RuntimeError("late loser failure")

        results = []

        def waiter(env):
            fast = env.process(winner(env), name="winner")
            slow = env.process(loser(env), name="loser")
            got = yield AnyOf(env, [fast, slow])
            results.append(got[fast])

        env.process(waiter(env), name="waiter")
        env.run()  # must not raise: the loser's failure is defused
        assert results == ["fast"]

    def test_or_operator_loser_failure(self):
        env = Environment()

        def fails_late(env):
            yield env.timeout(10.0)
            raise ValueError("ignored")

        def quick(env):
            yield env.timeout(1.0)
            return 42

        def waiter(env):
            a = env.process(quick(env))
            b = env.process(fails_late(env))
            yield a | b

        env.process(waiter(env))
        env.run()

    def test_failure_before_trigger_still_propagates(self):
        """Defusing only applies to post-trigger stragglers: a child that
        fails while the condition is still pending fails the condition."""
        env = Environment()

        def fails_first(env):
            yield env.timeout(1.0)
            raise RuntimeError("early")

        def slow(env):
            yield env.timeout(5.0)

        seen = []

        def waiter(env):
            a = env.process(fails_first(env))
            b = env.process(slow(env))
            try:
                yield AnyOf(env, [a, b])
            except RuntimeError as exc:
                seen.append(str(exc))

        env.process(waiter(env))
        env.run()
        assert seen == ["early"]


class TestPriorityStoreRemove:
    def test_remove_preserves_heap_invariant(self):
        """Removing a middle element must not corrupt the heap: every
        later pop still returns the current minimum."""
        env = Environment()
        store = PriorityStore(env)
        # This shape makes the old naive pop(index) produce a broken
        # heap (later pops return non-minimal items).
        values = [16, 8, 1, 0, 2, 11, 13]
        for v in values:
            assert store.try_put(v)
        assert store.remove(0)
        popped = []
        while True:
            item = store.try_get()
            if item is None:
                break
            popped.append(item)
        assert popped == sorted(popped), f"heap order violated: {popped}"
        assert popped == [1, 2, 8, 11, 13, 16]

    def test_remove_never_corrupts_heap_property(self):
        @settings(max_examples=150, deadline=None)
        @given(
            st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True),
            st.data(),
        )
        def check(values, data):
            env = Environment()
            store = PriorityStore(env)
            for v in values:
                store.try_put(v)
            target = data.draw(st.sampled_from(values))
            assert store.remove(target)
            popped = []
            while True:
                item = store.try_get()
                if item is None:
                    break
                popped.append(item)
            assert popped == sorted(v for v in values if v != target)

        check()

    def test_remove_missing_item_returns_false(self):
        env = Environment()
        store = PriorityStore(env)
        store.try_put(1)
        assert not store.remove(99)
        assert store.try_get() == 1

    def test_remove_unblocks_putter(self):
        env = Environment()
        store = PriorityStore(env, capacity=2)
        store.try_put(10)
        store.try_put(20)
        admitted = []

        def producer(env):
            yield store.put(15)
            admitted.append(env.now)

        env.process(producer(env))
        env.run()
        assert admitted == []  # still full
        assert store.remove(20)
        env.run()
        assert admitted == [0.0]
        assert store.try_get() == 10
        assert store.try_get() == 15

    def test_remove_last_element(self):
        env = Environment()
        store = PriorityStore(env)
        store.try_put(3)
        store.try_put(1)
        tail = sorted([3, 1])[-1]
        assert store.remove(tail)
        assert store.try_get() == 1
        assert store.try_get() is None


# ---------------------------------------------------------------------------
# Parity: interrupt-vs-completion races
# ---------------------------------------------------------------------------

class TestInterruptCompletionRaces:
    def test_interrupt_same_instant_as_completion_is_noop(self):
        """Interrupting a process at the exact instant it completes must
        neither blow up nor deliver a stale Interrupt."""
        env = Environment()
        log = []

        def worker(env):
            yield env.timeout(5.0)
            log.append("done")
            return "ok"

        victim = env.process(worker(env), name="victim")

        def killer(env):
            yield env.timeout(5.0)
            victim.interrupt("too late")

        env.process(killer(env), name="killer")
        env.run()
        assert log == ["done"]
        assert victim.value == "ok"

    def test_interrupt_before_completion_wins(self):
        env = Environment()
        log = []

        def worker(env):
            try:
                yield env.timeout(10.0)
                log.append("done")
            except Interrupt as intr:
                log.append(("interrupted", intr.cause, env.now))

        victim = env.process(worker(env), name="victim")

        def killer(env):
            yield env.timeout(3.0)
            victim.interrupt("reroute")

        env.process(killer(env), name="killer")
        env.run()
        assert log == [("interrupted", "reroute", 3.0)]

    def test_double_interrupt_collapses(self):
        """Two watchdogs interrupting the same process in the same instant
        deliver exactly one Interrupt."""
        env = Environment()
        hits = []

        def worker(env):
            while True:
                try:
                    yield env.timeout(100.0)
                except Interrupt:
                    hits.append(env.now)
                    return

        victim = env.process(worker(env), name="victim")

        def watchdog(env):
            yield env.timeout(4.0)
            victim.interrupt("a")
            victim.interrupt("b")

        env.process(watchdog(env), name="dog")
        env.run()
        assert hits == [4.0]

    def test_interrupted_getter_does_not_swallow_item(self):
        """A get() abandoned by an interrupt must leave the item for the
        next live waiter (cancel/reinsert ordering)."""
        env = Environment()
        store = Store(env)
        got = []

        def blocked_getter(env):
            try:
                yield store.get()
                got.append("stale-getter")
            except Interrupt:
                pass

        def live_getter(env):
            item = yield store.get()
            got.append(item)

        stale = env.process(blocked_getter(env), name="stale")
        env.process(live_getter(env), name="live")

        def driver(env):
            yield env.timeout(1.0)
            stale.interrupt()
            yield store.put("payload")

        env.process(driver(env), name="driver")
        env.run()
        assert got == ["payload"]

    def test_interrupted_putter_withdraws_item(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.try_put("occupies")
        outcomes = []

        def blocked_putter(env):
            try:
                yield store.put("abandoned")
                outcomes.append("landed")
            except Interrupt:
                outcomes.append("withdrawn")

        putter = env.process(blocked_putter(env), name="putter")

        def driver(env):
            yield env.timeout(1.0)
            putter.interrupt()
            yield env.timeout(1.0)
            item = store.try_get()
            outcomes.append(("drained", item))
            outcomes.append(("leftover", store.try_get()))

        env.process(driver(env), name="driver")
        env.run()
        assert outcomes == ["withdrawn", ("drained", "occupies"), ("leftover", None)]


# ---------------------------------------------------------------------------
# Parity: store cancel/reinsert ordering
# ---------------------------------------------------------------------------

class TestStoreCancelReinsert:
    def test_cancelled_triggered_get_reinserts_item_for_next_waiter(self):
        env = Environment()
        store = Store(env)
        store.try_put("token")
        get_event = store.get()  # served immediately (triggered)
        assert get_event.triggered
        get_event.cancel()  # never consumed: token must return
        assert store.try_get() == "token"

    def test_cancelled_pending_get_leaves_queue(self):
        env = Environment()
        store = Store(env)
        get_event = store.get()
        assert not get_event.triggered
        get_event.cancel()
        # A later put should not be consumed by the cancelled getter.
        store.try_put("x")
        assert store.try_get() == "x"
        assert not get_event.triggered

    def test_reinsert_wakes_blocked_getter(self):
        env = Environment()
        store = Store(env)
        store.try_put("one")
        first = store.get()
        assert first.triggered
        got = []

        def waiter(env):
            item = yield store.get()
            got.append(item)

        env.process(waiter(env))

        def canceller(env):
            yield env.timeout(1.0)
            first.cancel()

        env.process(canceller(env))
        env.run()
        assert got == ["one"]

    def test_fifo_order_across_cancellation(self):
        """Cancelling the middle waiter keeps the rest strictly FIFO."""
        env = Environment()
        store = Store(env)
        events = [store.get() for _ in range(3)]
        events[1].cancel()
        store.try_put("a")
        store.try_put("b")
        env.run()
        assert events[0].value == "a"
        assert not events[1].triggered
        assert events[2].value == "b"


# ---------------------------------------------------------------------------
# Property: deque-backed stores match the list-backed reference semantics
# ---------------------------------------------------------------------------

class _ReferenceStore:
    """The pre-rewrite list-backed store semantics, kept as the oracle:
    items are FIFO; puts admit in arrival order while there is room;
    gets serve in arrival order while items remain."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.put_queue = []  # pending put payloads, FIFO
        self.get_queue = []  # pending get ids, FIFO
        self.served = []  # (get_id, item) in service order

    def dispatch(self):
        while True:
            progress = False
            while self.put_queue and len(self.items) < self.capacity:
                self.items.append(self.put_queue.pop(0))
                progress = True
            while self.get_queue and self.items:
                self.served.append((self.get_queue.pop(0), self.items.pop(0)))
                progress = True
            if not progress:
                return

    def put(self, item):
        self.put_queue.append(item)
        self.dispatch()

    def get(self, get_id):
        self.get_queue.append(get_id)
        self.dispatch()


@st.composite
def store_scripts(draw):
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for i in range(n_ops):
        if draw(st.booleans()):
            ops.append(("put", i))
        else:
            ops.append(("get", i))
    capacity = draw(st.integers(min_value=1, max_value=5))
    return capacity, ops


@settings(max_examples=200, deadline=None)
@given(store_scripts())
def test_deque_store_matches_list_reference(script):
    """Any interleaving of puts/gets on the deque-backed Store serves the
    same (getter, item) pairs in the same order as the list-backed
    reference model."""
    capacity, ops = script

    reference = _ReferenceStore(capacity)
    for kind, op_id in ops:
        if kind == "put":
            reference.put(op_id)
        else:
            reference.get(op_id)

    env = Environment()
    store = Store(env, capacity=capacity)
    served = []
    gets = {}
    for kind, op_id in ops:
        if kind == "put":
            store.put(op_id)
        else:
            gets[op_id] = store.get()
    env.run()
    for op_id, event in gets.items():
        if event.triggered:
            served.append((op_id, event.value))
    # Service order in the kernel follows trigger order, which is the
    # scheduling order produced by dispatch — compare as ordered pairs
    # sorted by get id (ids are issued in program order on both sides).
    assert sorted(served) == sorted(reference.served)
    # The buffer contents (pending items) must agree too.
    assert list(store.items) == reference.items


# ---------------------------------------------------------------------------
# Property: run(), run_wall_slice() and step() drive the same event loop
# ---------------------------------------------------------------------------

_DELAYS = (0.0, 1.0, 1.0, 2.0, 3.0)  # small, repeated: same-time ties


def _process_mix(env, seed, log):
    """Start a seeded mix of processes that log ``(now, name, value)``.

    The mix covers the kernel's dispatch paths: timeouts, contended
    Resource / PriorityResource / Store, AnyOf / AllOf, a failing child,
    an interrupt timed to race a resource grant, and yields of events
    that were already processed.
    """
    rng = random.Random(seed)
    res = Resource(env, capacity=rng.randint(1, 2))
    pres = PriorityResource(env, capacity=1)
    store = Store(env, capacity=rng.randint(1, 3))

    def note(value):
        log.append((env.now, env.active_process.name, value))

    def user(env, hold):
        with res.request() as req:
            yield req
            note("res")
            yield env.timeout(hold)

    def prio_user(env, priority, hold):
        with pres.request(priority=priority) as req:
            yield req
            note(("pres", priority))
            yield env.timeout(hold)

    def producer(env, items, gap):
        for item in items:
            yield store.put(item)
            note(("put", item))
            yield env.timeout(gap)

    def consumer(env, count):
        for _ in range(count):
            item = yield store.get()
            note(("got", item))

    def failing_child(env, delay):
        yield env.timeout(delay)
        raise ValueError(f"child failed at {env.now}")

    def fanin(env, delays):
        timeouts = [env.timeout(d, value=d) for d in delays]
        got = yield AnyOf(env, timeouts)
        note(("any", sorted(got.todict().values())))
        got = yield AllOf(env, timeouts)
        note(("all", sorted(got.todict().values())))
        child = env.process(failing_child(env, rng.choice(_DELAYS)), name="child")
        try:
            yield AllOf(env, [env.timeout(rng.choice(_DELAYS)), child])
        except ValueError as exc:
            note(("caught", str(exc)))

    def victim(env):
        # Not a context manager: the interrupt alone must withdraw the
        # queued claim, so a grant in the same instant cannot leak.
        req = res.request()
        try:
            yield req
            note("victim-granted")
            yield env.timeout(1.0)
        except Interrupt as interrupt:
            note(("interrupted", interrupt.cause))
        req.cancel()

    def killer(env, target, delay):
        yield env.timeout(delay)
        target.interrupt("watchdog")
        note("fired")

    def quick_child(env):
        yield env.timeout(0.0)
        return "child-value"

    def replay(env):
        early = env.timeout(1.0, value="early")
        child = env.process(quick_child(env), name="replayed-child")
        yield env.timeout(2.0)
        note(("replayed", (yield early)))
        note(("replayed", (yield child)))
        note(("replayed", (yield early)))

    for i in range(rng.randint(1, 4)):
        env.process(user(env, rng.choice(_DELAYS)), name=f"user-{i}")
    for i in range(rng.randint(1, 4)):
        env.process(
            prio_user(env, rng.randint(0, 2), rng.choice(_DELAYS)),
            name=f"prio-{i}",
        )
    items = list(range(rng.randint(1, 6)))
    env.process(producer(env, items, rng.choice(_DELAYS)), name="producer")
    env.process(consumer(env, len(items)), name="consumer")
    env.process(fanin(env, rng.sample(_DELAYS, 3)), name="fanin")
    target = env.process(victim(env), name="victim")
    env.process(killer(env, target, rng.choice(_DELAYS)), name="killer")
    env.process(replay(env), name="replay")


def _drive(mode, profile, seed, horizon, cuts):
    """Run the mix to ``horizon`` through one kernel entry point."""
    env = Environment(profile=profile)
    log = []
    _process_mix(env, seed, log)
    if mode == "run":
        env.run(until=horizon)
    elif mode == "slice":
        for cut in sorted(cuts) + [horizon]:
            assert env.run_wall_slice(min(cut, horizon), wall_budget_s=1e6,
                                      check_every=2)
    else:
        while env.peek() <= horizon:
            env.step()
        env.run(until=horizon)  # no event left at or before horizon
    groups = None
    if profile:
        groups = {name: row["events"] for name, row in env.profile.by_process.items()}
        groups["<events>"] = env.profile.events
        groups["<peak>"] = env.profile.peak_queue
    return log, env.scheduled_events, env.now, env.peek(), groups


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.integers(min_value=0, max_value=25),
    cuts=st.lists(st.integers(min_value=0, max_value=25), max_size=6),
)
def test_run_slice_and_step_process_identical_event_streams(seed, horizon, cuts):
    """run(), run_wall_slice() in arbitrary sim-time slices and repeated
    step() are one event loop: same log, same event count, same clock,
    with kernel profiling on and off (and the same profile when on)."""
    outcomes = {}
    for profile in (False, True):
        for mode in ("run", "slice", "step"):
            outcomes[mode, profile] = _drive(mode, profile, seed, horizon, cuts)
    reference = outcomes["run", False]
    assert reference[0], "the mix must log something"
    for key, outcome in outcomes.items():
        assert outcome[:4] == reference[:4], key
    profiled = {key[0]: outcome[4] for key, outcome in outcomes.items() if key[1]}
    assert profiled["slice"] == profiled["run"] == profiled["step"]

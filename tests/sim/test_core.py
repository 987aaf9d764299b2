"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    env.process(proc(env))
    env.run()
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    result = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        result.append(value)

    env.process(proc(env))
    env.run()
    assert result == ["hello"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 123

    p = env.process(proc(env))
    env.run()
    assert p.value == 123


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"


def test_run_until_event_resumes_waiters_that_joined_after_the_call():
    # The waiter starts inside run(), so it waits behind the stop hook.
    env = Environment()
    signal = env.event()
    log = []

    def waiter(env):
        value = yield signal
        log.append((env.now, value))

    def trigger(env):
        yield env.timeout(1.0)
        signal.succeed("v")

    env.process(waiter(env))
    env.process(trigger(env))
    assert env.run(until=signal) == "v"
    assert log == [(1.0, "v")]


def test_run_until_event_stops_after_its_callbacks_only():
    env = Environment()
    signal = env.event()
    log = []

    def waiter(env):
        yield signal
        log.append("waiter")
        yield env.timeout(0)
        log.append("after-zero-delay")

    def trigger(env):
        yield env.timeout(1.0)
        signal.succeed()

    env.process(waiter(env))
    env.process(trigger(env))
    env.run(until=signal)
    assert log == ["waiter"]
    assert env.now == 1.0 and env.peek() == 1.0
    env.run()
    assert log == ["waiter", "after-zero-delay"]


def test_run_until_failed_event_raises_after_its_waiters_ran():
    env = Environment()
    signal = env.event()
    caught = []

    def waiter(env):
        try:
            yield signal
        except RuntimeError as error:
            caught.append(str(error))

    def trigger(env):
        yield env.timeout(1.0)
        signal.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(trigger(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=signal)
    assert caught == ["boom"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_two_processes_interleave():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "slow", 2.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert order == ["fast", "slow"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    done = env.event()
    log = []

    def waiter(env):
        value = yield done
        log.append(value)

    def trigger(env):
        yield env.timeout(3.0)
        done.succeed("payload")

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert log == ["payload"]
    assert env.now == 3.0


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_propagates_into_process():
    env = Environment()
    failing = env.event()
    caught = []

    def waiter(env):
        try:
            yield failing
        except RuntimeError as err:
            caught.append(str(err))

    env.process(waiter(env))
    failing.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_out_of_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(4.0)
        return "child-result"

    def parent(env):
        value = yield env.process(child(env))
        return value

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-result"


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(1.0)
        return "early"

    def parent(env, child_proc):
        yield env.timeout(10.0)
        value = yield child_proc  # already finished
        log.append((env.now, value))

    c = env.process(child(env))
    env.process(parent(env, c))
    env.run()
    assert log == [(10.0, "early")]


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, sorted(result.todict().values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (5.0, ["a", "b"])


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, list(result.todict().values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, ["fast"])


def test_and_operator():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0) & env.timeout(2.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.0


def test_or_operator():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0) | env.timeout(2.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 1.0


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(env, victim_proc):
        yield env.timeout(2.0)
        victim_proc.interrupt(cause="preempted")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [(2.0, "preempted")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    v = env.process(victim(env))
    env.run()
    # Interrupting a terminated process is a documented safe no-op.
    v.interrupt()
    v.interrupt("twice is fine too")
    assert not v.is_alive


def test_double_interrupt_delivers_once():
    env = Environment()
    hits = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            hits.append(interrupt.cause)
        yield env.timeout(50.0)

    def attacker(env, v):
        yield env.timeout(2.0)
        v.interrupt(cause="first")
        v.interrupt(cause="second")  # collapses into the in-flight one

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert hits == ["first"]


def test_interrupt_racing_with_completion_is_noop():
    env = Environment()
    outcomes = []

    def victim(env):
        yield env.timeout(2.0)
        outcomes.append("done")

    def attacker(env, v):
        yield env.timeout(2.0)
        v.interrupt()  # same instant as victim completion

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert outcomes == ["done"]


def test_interrupt_cancels_pending_store_get():
    from repro.sim import Store

    env = Environment()

    def getter(env, store):
        try:
            yield store.get()
        except Interrupt:
            pass
        yield env.timeout(1.0)

    def attacker(env, v):
        yield env.timeout(1.0)
        v.interrupt()

    store = Store(env, capacity=1)
    v = env.process(getter(env, store))
    env.process(attacker(env, v))
    env.run()
    # The dead getter's waiter was withdrawn: a later put is not consumed
    # by a ghost and the item stays available.
    assert not store._get_waiters
    assert store.try_put("item")
    assert list(store.items) == ["item"]


def test_interrupt_withdraws_queued_resource_claim():
    """Where a watchdog Interrupt lands on a process queued for a full
    Resource: the claim leaves the wait queue, the process sees exactly
    one Interrupt, and the freed server goes to the next live waiter."""
    from repro.sim import Resource

    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    claims = {}

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(5.0)

    def waiter(env, name):
        # No context manager: only the interrupt can withdraw the claim.
        claims[name] = req = res.request()
        try:
            yield req
            log.append((env.now, name, "granted"))
        except Interrupt as interrupt:
            log.append((env.now, name, interrupt.cause))
            yield env.timeout(10.0)  # stays alive across the release

    def watchdog(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("watchdog")

    env.process(holder(env))
    victim = env.process(waiter(env, "victim"))
    env.process(waiter(env, "next"))
    env.process(watchdog(env, victim))
    env.run(until=3.0)
    assert claims["victim"] not in res.queue
    assert list(res.queue) == [claims["next"]]
    env.run()
    assert log == [(2.0, "victim", "watchdog"), (5.0, "next", "granted")]
    assert res.users == [claims["next"]]
    assert not claims["victim"].triggered
    assert not victim.is_alive


def test_self_interrupt_rejected():
    env = Environment()
    errors = []

    def proc(env):
        me = env.active_process
        try:
            me.interrupt()
        except SimulationError:
            errors.append(True)
        yield env.timeout(0)

    env.process(proc(env))
    env.run()
    assert errors == [True]


def test_interrupted_process_can_continue():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(5.0)
        return env.now

    def attacker(env, v):
        yield env.timeout(1.0)
        v.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == 6.0


def test_is_alive_transitions():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_yield_non_event_with_callbacks_fails_process():
    # Only an Event may be waited on, whatever attributes the object has.
    env = Environment()

    class LooksLikeAnEvent:
        callbacks = []
        _value = None

    def proc(env):
        yield LooksLikeAnEvent()

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert LooksLikeAnEvent.callbacks == []


def test_clock_is_a_plain_attribute():
    env = Environment(initial_time=3.0)
    assert "now" in vars(env)
    env.timeout(2.0)
    env.run()
    assert vars(env)["now"] == 5.0


def test_peek_and_step():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.step()
    assert env.now == 7.0
    assert env.peek() == float("inf")


def test_step_with_no_events_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_run_until_untriggered_event_raises():
    env = Environment()
    ev = env.event()  # nothing will ever trigger it
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_many_processes_scale():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(float(i % 10))
        done.append(i)

    for i in range(1000):
        env.process(proc(env, i))
    env.run()
    assert len(done) == 1000


# -- runaway guard -----------------------------------------------------------


def _ticker(env):
    while True:
        yield env.timeout(1.0)


def test_runaway_guard_off_by_default():
    saved = (Environment.default_max_events, Environment.default_max_wall_s)
    Environment.default_max_events = None
    Environment.default_max_wall_s = None
    try:
        env = Environment()
        assert env.max_events is None
        assert env.max_wall_s is None
    finally:
        Environment.default_max_events, Environment.default_max_wall_s = saved


def test_runaway_guard_trips_on_event_budget():
    env = Environment(max_events=500)
    env.process(_ticker(env))
    with pytest.raises(SimulationError, match="runaway guard"):
        env.run()


def test_runaway_guard_spares_bounded_runs():
    env = Environment(max_events=500)
    done = []

    def proc(env):
        for _ in range(100):
            yield env.timeout(1.0)
        done.append(True)

    env.process(proc(env))
    env.run()
    assert done == [True]


def test_runaway_guard_class_default_applies():
    saved = Environment.default_max_events
    Environment.default_max_events = 200
    try:
        env = Environment()
        assert env.max_events == 200
        env.process(_ticker(env))
        with pytest.raises(SimulationError, match="runaway guard"):
            env.run()
    finally:
        Environment.default_max_events = saved


def test_runaway_guard_explicit_overrides_class_default():
    saved = Environment.default_max_events
    Environment.default_max_events = 200
    try:
        # An explicit (larger) budget wins over the class default: this
        # run processes far more than 200 events and still completes.
        env = Environment(max_events=100_000)
        env.process(_ticker(env))
        env.run(until=env.timeout(5_000.0))
        assert env.now == 5_000.0
    finally:
        Environment.default_max_events = saved


def test_runaway_wall_clock_guard_trips():
    env = Environment(max_wall_s=0.0)  # deadline already passed
    env.process(_ticker(env))
    with pytest.raises(SimulationError, match="runaway guard"):
        env.run(until=env.timeout(10_000.0))

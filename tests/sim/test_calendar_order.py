"""The event calendar's order at one instant, pinned.

At one instant the calendar runs process starts and interrupts first,
then every other event, each group in the order it was scheduled; the
timeouts that mature at an instant join the second group ahead of
anything scheduled during it. Golden fixtures and perfbench digests
depend on this order, so any calendar change must keep it exactly.
These tests pin it at one hand-derived instant, for a delay too small to
move a large clock, across early stops in the middle of an instant, and
through seeded process mixes whose logs, event counts, clocks and
profiled peak calendar sizes are hashed and pinned.

The pins hold on CPython 3.10 to 3.13. The module needs no pytest: run
it as a script to check it on an interpreter without one.
"""

import hashlib
import random

from repro.sim import Environment, Interrupt, Resource, SimulationError, Store


def _one_instant(env, log):
    """Start the hand-derived instant at t=5; return the event E.

    Timeouts A and B both mature at t=5, A's scheduled first. A spawns a
    child, interrupts a waiting victim, succeeds E and yields a
    zero-delay timeout; the child yields one as soon as it starts.
    """
    signal = env.event()

    def note(label):
        log.append((env.now, label))

    def child(env):
        note("child-start")
        yield env.timeout(0)
        note("child-zero-delay")

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            note("victim-interrupted")

    def e_waiter(env):
        yield signal
        note("E-waiter")

    def a(env, target):
        yield env.timeout(5)
        note("A")
        env.process(child(env))
        target.interrupt()
        signal.succeed()
        yield env.timeout(0)
        note("A-zero-delay")

    def b(env):
        yield env.timeout(5)
        note("B")

    target = env.process(victim(env))
    env.process(e_waiter(env))
    env.process(a(env, target))
    env.process(b(env))
    return signal


_ONE_INSTANT_ORDER = [
    (5.0, label)
    for label in (
        "A",
        "child-start",
        "victim-interrupted",
        "B",
        "E-waiter",
        "A-zero-delay",
        "child-zero-delay",
    )
]


def test_one_instant_runs_starts_and_interrupts_first_then_eid_order():
    env = Environment()
    log = []
    _one_instant(env, log)
    env.run()
    assert log == _ONE_INSTANT_ORDER
    assert env.peek() == float("inf")
    try:
        env.step()
    except SimulationError:
        pass
    else:
        raise AssertionError("step() must raise once the calendar is empty")


def test_stop_mid_instant_leaves_the_rest_of_the_instant_pending():
    env = Environment()
    log = []
    signal = _one_instant(env, log)
    env.run(until=1.0)  # start every process, so E's waiter is queued first
    env.run(until=signal)
    assert log[-1] == (5.0, "E-waiter")
    assert env.now == 5.0 and env.peek() == env.now
    env.step()
    assert log[-1] == (5.0, "A-zero-delay")
    assert env.peek() == env.now
    env.run()
    assert log == _ONE_INSTANT_ORDER


def test_zero_budget_wall_slices_keep_the_order():
    env = Environment()
    log = []
    _one_instant(env, log)
    for until in (5.0, 200.0):
        while not env.run_wall_slice(until, wall_budget_s=0.0, check_every=1):
            # An early stop, mid-instant or not, leaves the clock at the
            # last event it ran, with the next one due no later than until.
            assert env.now <= env.peek() <= until
        # A finished slice leaves nothing due at or before until.
        assert env.now == until < env.peek()
    assert log == _ONE_INSTANT_ORDER


def test_sub_ulp_timeout_joins_the_current_instant():
    env = Environment(initial_time=1e17)
    assert env.now + 1.0 == env.now
    log = []

    def logger(label):
        return lambda event: log.append((env.now, label))

    before = env.event()
    before.callbacks.append(logger("before"))
    before.succeed()
    tiny = env.timeout(1.0)
    tiny.callbacks.append(logger("sub-ulp"))
    after = env.event()
    after.callbacks.append(logger("after"))
    after.succeed()
    env.run()
    assert log == [(1e17, "before"), (1e17, "sub-ulp"), (1e17, "after")]


def test_sub_ulp_timeout_at_a_matured_instant():
    # One ulp of 1e17 is 16: a delay of 32 matures, a delay of 1 does not.
    env = Environment(initial_time=1e17)
    log = []
    signal = env.event()

    def note(label):
        log.append((env.now, label))

    def a(env):
        yield env.timeout(32.0)
        note("A")
        tiny = env.timeout(1.0)
        signal.succeed()
        yield tiny
        note("A-sub-ulp")

    def b(env):
        yield env.timeout(32.0)
        note("B")

    def waiter(env):
        yield signal
        note("signal")

    env.process(a(env))
    env.process(b(env))
    env.process(waiter(env))
    env.run()
    at = 1e17 + 32.0
    assert log == [(at, "A"), (at, "B"), (at, "A-sub-ulp"), (at, "signal")]


# -- seeded pins ---------------------------------------------------------

#: Delays drawn by the mix. Ties between heap timeouts are common; at
#: ``initial_time=1e17`` (odd seeds), where one ulp is 16, delays of 4
#: and 8 are sub-ulp and 12 rounds up to a full tick.
_STEPS = (0.0, 0.0, 4.0, 8.0, 12.0, 16.0, 16.0, 32.0)


def _calendar_mix(env, seed, log):
    """Start a seeded mix of processes that log ``(now, name, value)``.

    Workers act as their timeouts mature: they spawn children (and
    sometimes join them), interrupt sleepers, succeed signals, claim a
    contended resource and pass items through a bounded store. So
    process starts, interrupts, grants and hand-offs keep landing on
    instants at which other matured timeouts are still waiting to run.
    """
    rng = random.Random(seed)
    res = Resource(env, capacity=rng.randint(1, 2))
    store = Store(env, capacity=rng.randint(1, 3))
    signals = [env.event() for _ in range(3)]
    sleepers = []

    def note(value):
        log.append((env.now, env.active_process.name, value))

    def child(env, tag):
        note("start")
        yield env.timeout(rng.choice(_STEPS))
        note("end")
        return tag

    def sleeper(env, naps):
        for _ in range(naps):
            try:
                yield env.timeout(rng.choice((16.0, 48.0, 160.0)))
                note("woke")
            except Interrupt as interrupt:
                note(("interrupted", interrupt.cause))

    def waiter(env, signal):
        note(("signal", (yield signal)))

    def consumer(env):
        while True:
            note(("got", (yield store.get())))

    def worker(env, index, steps):
        for step in range(steps):
            yield env.timeout(rng.choice(_STEPS))
            tag = (index, step)
            note(("tick", step))
            action = rng.randrange(6)
            if action == 0:
                env.process(child(env, tag), name=f"child-{index}-{step}")
            elif action == 1:
                rng.choice(sleepers).interrupt(tag)
            elif action == 2:
                signal = rng.choice(signals)
                if not signal.triggered:
                    signal.succeed(tag)
            elif action == 3:
                with res.request() as req:
                    yield req
                    note("granted")
                    yield env.timeout(rng.choice(_STEPS))
            elif action == 4:
                yield store.put(tag)
                note("put")
            else:
                joined = env.process(child(env, tag), name=f"child-{index}-{step}")
                note(("joined", (yield joined)))

    for i in range(rng.randint(1, 3)):
        sleepers.append(env.process(sleeper(env, rng.randint(2, 5)), name=f"sleeper-{i}"))
    for i, signal in enumerate(signals):
        for j in range(rng.randint(1, 2)):
            env.process(waiter(env, signal), name=f"waiter-{i}-{j}")
    env.process(consumer(env), name="consumer")
    for i in range(rng.randint(3, 6)):
        env.process(worker(env, i, rng.randint(3, 8)), name=f"worker-{i}")


def _pinned_run(seed, profile):
    """Run the mix for ``seed`` to exhaustion and return what is pinned."""
    env = Environment(initial_time=1e17 if seed % 2 else 0.0, profile=profile)
    log = []
    _calendar_mix(env, seed, log)
    env.run()
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    outcome = (digest, env.scheduled_events, env.now)
    if profile:
        outcome += (env.profile.events, env.profile.peak_queue)
    return log, outcome


#: seed -> (sha256 prefix of the log, scheduled events, final clock,
#: profiled events, profiled peak calendar size).
_PINS = {
    0: ('0a39141fd795dc0a', 117, 112.0, 117, 13),
    1: ('197775ca6de78f5c', 122, 1.0000000000000035e+17, 122, 12),
    2: ('5584777b49c9b5de', 87, 176.0, 87, 10),
    3: ('af9ba68ac4111e95', 124, 1.0000000000000027e+17, 124, 12),
    4: ('92196e1a7bd6cf35', 62, 320.0, 62, 8),
    5: ('2995d6f5ae301187', 64, 1.0000000000000066e+17, 64, 8),
    6: ('3c5af1d7da87ccf7', 103, 160.0, 103, 12),
    7: ('04786d7b04c255c7', 70, 1.0000000000000008e+17, 70, 10),
    8: ('9ef58206dc662553', 96, 224.0, 96, 9),
    9: ('8dd45ff5723eca6d', 138, 1.0000000000000018e+17, 138, 13),
    10: ('715b0cd443c81fdc', 80, 176.0, 80, 12),
    11: ('cc91e529e79a6082', 73, 1.0000000000000021e+17, 73, 9),
    12: ('75423b31e2d62432', 135, 408.0, 135, 13),
    13: ('7d0fee34c1a0b878', 80, 1.0000000000000021e+17, 80, 9),
    14: ('68f57f9cb388cde0', 126, 416.0, 126, 13),
    15: ('cbc51bab68a3185f', 108, 1.0000000000000022e+17, 108, 11),
}


def test_seeded_mixes_are_pinned_profiled_and_not():
    assert sorted(_PINS) == list(range(16))
    for seed, pin in _PINS.items():
        _, plain = _pinned_run(seed, profile=False)
        _, profiled = _pinned_run(seed, profile=True)
        assert profiled[:3] == plain, seed
        assert profiled == pin, (seed, profiled)


def test_seeded_mixes_interrupt_and_spawn_at_matured_instants():
    interrupts = spawns = 0
    for seed in _PINS:
        log, _ = _pinned_run(seed, profile=False)
        start = log[0][0]
        for now, _, value in log:
            interrupts += type(value) is tuple and value[0] == "interrupted"
            spawns += value == "start" and now > start
    assert interrupts and spawns


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)

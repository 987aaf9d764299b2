"""Unit tests for Store / PriorityStore."""

import pytest

from repro.sim import Environment, PriorityItem, PriorityStore, Store


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_put_then_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == ["a", "b", "c"]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(5.0, "late")]


def test_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put(1)
        times.append(env.now)
        yield store.put(2)
        times.append(env.now)

    def consumer(env):
        yield env.timeout(3.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [0.0, 3.0]


def test_try_put_respects_capacity():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.try_put("a")
    assert store.try_put("b")
    assert not store.try_put("c")
    assert len(store) == 2
    assert store.is_full


def test_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.try_put("x")
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_try_put_wakes_blocked_getter():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append(item)

    def producer(env):
        yield env.timeout(1.0)
        assert store.try_put("wake")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == ["wake"]


def test_priority_store_orders_items():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def producer(env):
        yield store.put(PriorityItem(3, "low"))
        yield store.put(PriorityItem(1, "high"))
        yield store.put(PriorityItem(2, "mid"))

    def consumer(env):
        yield env.timeout(1.0)
        for _ in range(3):
            entry = yield store.get()
            got.append(entry.item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == ["high", "mid", "low"]


def test_priority_item_ordering_and_equality():
    a = PriorityItem(1, "x")
    b = PriorityItem(2, "x")
    assert a < b
    assert a == PriorityItem(1, "x")
    assert "PriorityItem" in repr(a)


def test_store_backpressure_chain():
    """A bounded store between producer and consumer limits throughput."""
    env = Environment()
    store = Store(env, capacity=2)
    consumed = []

    def producer(env):
        for i in range(6):
            yield store.put(i)

    def consumer(env):
        while len(consumed) < 6:
            item = yield store.get()
            yield env.timeout(1.0)
            consumed.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [item for _, item in consumed] == [0, 1, 2, 3, 4, 5]
    assert env.now == 6.0

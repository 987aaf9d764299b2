"""Tests for kernel extras: Store.remove, edge cases."""

from repro.sim import Environment, Store


class TestStoreRemove:
    def test_remove_specific_item(self):
        env = Environment()
        store = Store(env)
        a, b, c = object(), object(), object()
        for item in (a, b, c):
            store.try_put(item)
        assert store.remove(b)
        assert list(store.items) == [a, c]

    def test_remove_missing_returns_false(self):
        env = Environment()
        store = Store(env)
        store.try_put("x")
        assert not store.remove("y")

    def test_remove_matches_identity_not_equality(self):
        env = Environment()
        store = Store(env)
        first, second = [1], [1]  # equal but distinct
        store.try_put(first)
        store.try_put(second)
        assert store.remove(second)
        assert store.items[0] is first

    def test_remove_unblocks_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        blocker = object()
        store.try_put(blocker)
        done = []

        def producer(env):
            yield store.put("waiting")
            done.append(env.now)

        def remover(env):
            yield env.timeout(5.0)
            store.remove(blocker)

        env.process(producer(env))
        env.process(remover(env))
        env.run()
        assert done == [5.0]
        assert list(store.items) == ["waiting"]


class TestEnvironmentEdgeCases:
    def test_run_until_event_already_processed(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)
            return "v"

        p = env.process(quick(env))
        env.run()
        # Running until an already-processed event returns its value.
        assert env.run(until=p) == "v"

    def test_condition_failure_propagates(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("inner")

        def waiter(env, proc):
            try:
                yield env.all_of([proc, env.timeout(5.0)])
            except RuntimeError:
                return "caught"
            return "missed"

        p = env.process(failing(env))
        w = env.process(waiter(env, p))
        env.run()
        assert w.value == "caught"

"""The sharded runner framework: executor, ordering, caching.

(The parallel-equals-serial property lives in ``test_property.py``; it
needs hypothesis, which is optional.)
"""

import pickle

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.parallel import (
    Shard,
    ShardedExperiment,
    ShardExecutor,
    _run_shard_task,
    default_jobs,
    experiment_table,
    single_shard,
)
from repro.sim import derive_seed


class TestParallelEqualsSerial:
    def test_multi_shard_experiment_through_pool(self):
        # fig1 fans out one shard per service; force the real
        # multiprocessing path and check byte-identical tables.
        serial = EXPERIMENTS["fig1"].run(scale="smoke", seed=0)
        with ShardExecutor(jobs=2) as executor:
            parallel = EXPERIMENTS["fig1"].run(
                scale="smoke", seed=0, executor=executor
            )
        assert parallel["table"] == serial["table"]
        assert parallel == serial


class TestFramework:
    def test_registry_covers_every_experiment(self):
        # One table: each entry is keyed by its own id.
        for name, experiment in EXPERIMENTS.items():
            assert experiment.name == name

    def test_duplicate_experiment_id_rejected(self):
        first = single_shard("twin", lambda scale, seed: {}, claim="a")
        second = single_shard("twin", lambda scale, seed: {}, claim="b")
        other = single_shard("other", lambda scale, seed: {}, claim="c")
        assert list(experiment_table([first, other])) == ["twin", "other"]
        with pytest.raises(ValueError, match="duplicate experiment id 'twin'"):
            experiment_table([first, other, second])

    def test_shards_are_picklable(self):
        for name in ("fig1", "fig13", "char-energy"):
            for shard in EXPERIMENTS[name].shards(scale="smoke", seed=0):
                clone = pickle.loads(pickle.dumps(shard))
                assert clone.key == shard.key
                assert clone.seed == shard.seed

    def test_duplicate_shard_keys_rejected(self):
        bad = ShardedExperiment(
            "bad",
            lambda scale="quick", seed=0: [
                Shard(("x",)), Shard(("x",))
            ],
            lambda shard, scale: None,
            lambda payloads, scale, seed: {},
            claim="bad",
        )
        with pytest.raises(ValueError, match="duplicate shard keys"):
            bad.shards()

    def test_single_shard_wraps_classic_signature(self):
        calls = []

        def compute(scale, seed, flavor="plain"):
            calls.append((scale, seed, flavor))
            return {"table": flavor}

        wrapped = single_shard("wrapped", compute, claim="wrapped")
        result = wrapped.run(scale="smoke", seed=7, flavor="spicy")
        assert result == {"table": "spicy"}
        assert calls == [("smoke", 7, "spicy")]

    def test_run_shard_task_resolves_registry(self):
        shard = EXPERIMENTS["table2"].shards(scale="smoke", seed=0)[0]
        key, payload, duration = _run_shard_task(("table2", shard, "smoke"))
        assert key == shard.key
        assert "traces" in payload
        assert duration >= 0.0

    def test_results_follow_shard_order(self):
        # Merge sees payloads keyed and ordered by make_shards, however
        # the executor scheduled them.
        order = []

        def merge(payloads, scale, seed):
            order.extend(payloads)
            return {}

        exp = ShardedExperiment(
            "ordered",
            lambda scale="quick", seed=0: [
                Shard((i,), {}, i) for i in (3, 1, 2)
            ],
            lambda shard, scale: shard.key[0],
            merge,
            claim="ordered",
        )
        exp.run(scale="smoke", seed=0)
        assert order == [(3,), (1,), (2,)]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, "arrivals/x") == derive_seed(0, "arrivals/x")
        assert derive_seed(0, "fig13") != derive_seed(1, "fig13")
        assert derive_seed(0, "a") != derive_seed(0, "b")


def _counting_experiment(counter):
    def run_shard(shard, scale):
        counter.append(shard.key)
        return shard.key[0] * 10

    return ShardedExperiment(
        "counting",
        lambda scale="quick", seed=0: [
            Shard((i,), {}, seed) for i in range(3)
        ],
        run_shard,
        lambda payloads, scale, seed: dict(payloads),
        claim="counting",
    )


class TestCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        shard = Shard(("a", 1), {"p": 2}, 42)
        assert cache.get("exp", "smoke", shard) is None
        cache.put("exp", "smoke", shard, {"value": 7})
        assert cache.get("exp", "smoke", shard) == ({"value": 7},)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (
            1, 1, 1,
        )

    def test_none_payload_distinguished_from_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        shard = Shard(("a",))
        cache.put("exp", "smoke", shard, None)
        assert cache.get("exp", "smoke", shard) == (None,)

    def test_key_sensitivity(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("exp", "smoke", Shard(("a",), {}, 1), "x")
        assert cache.get("exp", "smoke", Shard(("a",), {}, 2)) is None
        assert cache.get("exp", "quick", Shard(("a",), {}, 1)) is None
        assert cache.get("exp", "smoke", Shard(("b",), {}, 1)) is None

    def test_refresh_recomputes_but_rewrites(self, tmp_path):
        shard = Shard(("a",))
        ResultCache(str(tmp_path)).put("exp", "smoke", shard, "stale")
        cache = ResultCache(str(tmp_path), refresh=True)
        assert cache.get("exp", "smoke", shard) is None
        cache.put("exp", "smoke", shard, "fresh")
        assert ResultCache(str(tmp_path)).get("exp", "smoke", shard) == ("fresh",)

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        shard = Shard(("a",))
        cache.put("exp", "smoke", shard, "ok")
        path = cache.path_for("exp", "smoke", shard)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("exp", "smoke", shard) is None
        assert cache.stats.errors == 1

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_executor_serves_second_run_from_cache(self, tmp_path):
        counter = []
        exp = _counting_experiment(counter)
        cache = ResultCache(str(tmp_path))
        with ShardExecutor(jobs=1, cache=cache) as executor:
            first = exp.run(scale="smoke", seed=0, executor=executor)
            second = exp.run(scale="smoke", seed=0, executor=executor)
        assert first == second == {(0,): 0, (1,): 10, (2,): 20}
        assert len(counter) == 3  # shards computed once, replayed once
        assert cache.stats.hits == 3

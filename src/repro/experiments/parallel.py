"""Sharded experiment execution: serial, parallel and cached.

The paper's evaluation is an embarrassingly parallel grid of
independent (architecture x load x seed) design points. Each experiment
module therefore exposes three pieces instead of one opaque loop:

* ``make_shards(scale, seed, **kw)`` — the design points, as a list of
  picklable :class:`Shard` specs. Every shard carries its own seed,
  derived through :func:`repro.sim.derive_seed` from the experiment
  seed and the design point's *workload identity*, so a shard's result
  depends only on what it measures — never on worker count, scheduling
  order, or the shards that ran before it. Design points that differ
  only in the system under test (e.g. the same service on five
  architectures) deliberately share a derived seed: common random
  numbers keep cross-architecture comparisons tight.
* ``run_shard(shard, scale)`` — one design point, pure and picklable.
* ``merge(payloads, scale, seed, **kw)`` — folds the ``{shard.key:
  payload}`` mapping (always in ``make_shards`` order) into the
  experiment's result dict, including its ``"table"`` string.

A :class:`ShardedExperiment` bundles the three with the experiment's id
and the paper claim it reproduces; it is the experiment's one
definition, listed once in :data:`repro.experiments.EXPERIMENTS`.

:class:`ShardExecutor` runs the shards — in-process when ``jobs=1``,
else on a persistent ``multiprocessing`` pool — consults the on-disk
:class:`~repro.experiments.cache.ResultCache` before dispatching, and
reports progress/ETA plus a shard-duration sparkline (reusing
:func:`repro.obs.metrics.sparkline_row`). Like AccelFlow itself, the
coordinator stays out of the inner loop: workers execute pre-compiled
work descriptions and only the merge step is centralized.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .cache import ResultCache

__all__ = [
    "Shard",
    "ShardedExperiment",
    "ShardExecutor",
    "ProgressReporter",
    "default_jobs",
    "experiment_table",
    "single_shard",
]


def default_jobs() -> int:
    """Default worker count for ``--jobs``: one per CPU."""
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class Shard:
    """One picklable design point of an experiment.

    ``key`` uniquely identifies the shard within its experiment and is
    the merge/cache identity; ``params`` are the keyword arguments its
    ``run_shard`` needs; ``seed`` is the derived per-shard seed.
    """

    key: Tuple
    params: Dict = field(default_factory=dict)
    seed: int = 0


class ShardedExperiment:
    """An experiment decomposed into shards plus a pure merge step.

    ``claim`` is the one-line paper claim the experiment reproduces;
    the EXPERIMENTS.md report quotes it above the regenerated table.
    """

    def __init__(
        self,
        name: str,
        make_shards: Callable[..., List[Shard]],
        run_shard: Callable[[Shard, str], object],
        merge: Callable[..., Dict],
        claim: str,
    ):
        self.name = name
        self.make_shards = make_shards
        self.run_shard = run_shard
        self.merge = merge
        self.claim = claim

    def shards(self, scale: str = "quick", seed: int = 0, **kw) -> List[Shard]:
        shards = self.make_shards(scale=scale, seed=seed, **kw)
        keys = [shard.key for shard in shards]
        if len(set(keys)) != len(keys):
            raise ValueError(f"{self.name}: duplicate shard keys in {keys}")
        return shards

    def run(
        self,
        scale: str = "quick",
        seed: int = 0,
        executor: Optional["ShardExecutor"] = None,
        **kw,
    ) -> Dict:
        """Execute all shards (serially unless ``executor`` says
        otherwise) and merge; the result is identical for every worker
        count, byte for byte."""
        shards = self.shards(scale=scale, seed=seed, **kw)
        if executor is None:
            executor = ShardExecutor(jobs=1)
        payloads = executor.execute(self, shards, scale)
        return self.merge(payloads, scale=scale, seed=seed, **kw)


def single_shard(
    name: str, compute: Callable[..., Dict], claim: str
) -> ShardedExperiment:
    """Wrap a monolithic (cheap or indivisible) experiment as one shard.

    ``compute`` keeps the classic ``(scale, seed, **kw) -> result``
    shape; it still gains result caching and the uniform executor path.
    """

    def make_shards(scale: str = "quick", seed: int = 0, **kw) -> List[Shard]:
        return [Shard(("all",), dict(kw), seed)]

    def run_shard(shard: Shard, scale: str):
        return compute(scale=scale, seed=shard.seed, **shard.params)

    def merge(payloads, scale: str, seed: int, **kw) -> Dict:
        return payloads[("all",)]

    return ShardedExperiment(name, make_shards, run_shard, merge, claim)


def experiment_table(
    experiments: List[ShardedExperiment],
) -> Dict[str, ShardedExperiment]:
    """Id -> experiment, in the given order; an id may appear once."""
    table: Dict[str, ShardedExperiment] = {}
    for experiment in experiments:
        if experiment.name in table:
            raise ValueError(f"duplicate experiment id {experiment.name!r}")
        table[experiment.name] = experiment
    return table


def _run_shard_task(item: Tuple[str, Shard, str]):
    """Top-level (hence picklable) pool task: run one shard."""
    name, shard, scale = item
    from . import EXPERIMENTS

    start = time.perf_counter()
    payload = EXPERIMENTS[name].run_shard(shard, scale)
    return shard.key, payload, time.perf_counter() - start


class ProgressReporter:
    """Shard progress/ETA lines plus a final duration sparkline."""

    def __init__(self, stream=None, min_interval_s: float = 1.0):
        self.stream = stream
        self.min_interval_s = min_interval_s
        self._last_print = 0.0

    def begin(self, name: str, total: int, cached: int, jobs: int) -> None:
        if self.stream is None:
            return
        line = f"[{name}] {total} shard{'s' if total != 1 else ''}"
        if cached:
            line += f", {cached} cached"
        if total - cached:
            line += f", jobs={jobs}"
        print(line, file=self.stream, flush=True)
        self._last_print = 0.0

    def update(self, name: str, done: int, total: int, started: float) -> None:
        if self.stream is None:
            return
        now = time.perf_counter()
        if done < total and now - self._last_print < self.min_interval_s:
            return
        self._last_print = now
        elapsed = now - started
        eta = elapsed / done * (total - done) if done else float("inf")
        print(
            f"[{name}] {done}/{total} shards, "
            f"elapsed {elapsed:.1f}s, eta {eta:.1f}s",
            file=self.stream,
            flush=True,
        )

    def finish(
        self, name: str, durations: List[float], elapsed: float, jobs: int
    ) -> None:
        if self.stream is None or not durations:
            return
        from ..obs.metrics import sparkline_row

        row = sparkline_row(f"[{name}] shard seconds", durations, width=40)
        print(
            f"{row}  ({len(durations)} run in {elapsed:.1f}s, jobs={jobs})",
            file=self.stream,
            flush=True,
        )


class ShardExecutor:
    """Runs shards for any number of experiments over one worker pool.

    * ``jobs=1`` (default) — in-process, no multiprocessing at all.
    * ``jobs>1`` — a persistent pool of that many workers, shared by
      every ``execute`` call (the runner's ``all`` mode reuses it
      across experiments instead of re-forking 24 times).
    * ``cache`` — optional :class:`ResultCache`; hits skip execution
      entirely and merged results remain byte-identical.

    Use as a context manager (or call :meth:`close`) to reap the pool.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressReporter] = None,
    ):
        self.jobs = max(1, int(jobs)) if jobs else 1
        self.cache = cache
        self.progress = progress or ProgressReporter(stream=None)
        self._pool = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = context.Pool(processes=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------
    def execute(
        self, experiment: ShardedExperiment, shards: List[Shard], scale: str
    ) -> Dict[Tuple, object]:
        """Run (or recall) every shard; returns ``{key: payload}`` in
        ``shards`` order regardless of completion order."""
        name = experiment.name
        results: Dict[Tuple, object] = {}
        pending: List[Shard] = []
        for shard in shards:
            hit = self.cache.get(name, scale, shard) if self.cache else None
            if hit is not None:
                results[shard.key] = hit[0]
            else:
                pending.append(shard)

        jobs = min(self.jobs, len(pending)) if pending else 0
        self.progress.begin(name, len(shards), len(shards) - len(pending), jobs)
        started = time.perf_counter()
        durations: List[float] = []
        by_key = {shard.key: shard for shard in pending}

        def _store(key, payload, duration):
            results[key] = payload
            durations.append(duration)
            if self.cache is not None:
                self.cache.put(name, scale, by_key[key], payload)
            self.progress.update(name, len(durations), len(pending), started)

        if jobs <= 1:
            for shard in pending:
                t0 = time.perf_counter()
                payload = experiment.run_shard(shard, scale)
                _store(shard.key, payload, time.perf_counter() - t0)
        else:
            pool = self._ensure_pool()
            tasks = [(name, shard, scale) for shard in pending]
            for key, payload, duration in pool.imap_unordered(
                _run_shard_task, tasks, chunksize=1
            ):
                _store(key, payload, duration)

        self.progress.finish(
            name, durations, time.perf_counter() - started, jobs
        )
        return {shard.key: results[shard.key] for shard in shards}

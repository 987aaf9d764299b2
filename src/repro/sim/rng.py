"""Deterministic random-number streams for reproducible experiments.

Every stochastic model component draws from its own named stream derived
from a single experiment seed, so adding a new component never perturbs
the draws of existing ones, and re-running an experiment with the same
seed reproduces it exactly.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict

__all__ = ["RandomStreams", "Stream", "derive_seed"]


def derive_seed(seed: int, *labels: object) -> int:
    """Derive an independent 64-bit sub-seed from ``seed`` and labels.

    The derivation is a stable hash, so it is reproducible across
    processes and Python versions (unlike built-in ``hash``), and two
    different label tuples virtually never collide. Used both for the
    named streams of :class:`RandomStreams` and for per-shard seeds in
    the parallel experiment runner, so that results depend only on the
    (experiment, design point) identity — never on worker count or
    scheduling order.
    """
    text = "/".join(str(part) for part in (seed, *labels))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Stream:
    """A named, seeded random stream with distribution helpers."""

    def __init__(self, seed: int, name: str):
        self.name = name
        self._rng = random.Random(seed)
        #: ``random()``: a uniform draw in [0, 1), the generator's own
        #: bound C method, so a draw runs no Python frame.
        self.random = self._rng.random

    # -- raw --------------------------------------------------------------
    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self._rng.random() < p

    # -- distributions ------------------------------------------------------
    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def lognormal_median(self, median: float, sigma: float) -> float:
        """Lognormal variate parameterized by its median and log-sigma."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return self._rng.lognormvariate(math.log(median), sigma)

    def bounded_lognormal(
        self, median: float, sigma: float, low: float, high: float
    ) -> float:
        """Lognormal clipped to ``[low, high]``.

        Clipping (rather than rejection) keeps the draw count per call
        constant, which preserves stream alignment across experiments.
        """
        return min(high, max(low, self.lognormal_median(median, sigma)))

    def poisson(self, mean: float) -> int:
        """Poisson variate with the given mean.

        Knuth's product method below ``mean < 64`` (one uniform per
        unit of mean, exact); above that a rounded normal approximation
        (one gauss draw) — the batched fluid arrival path uses large
        per-quantum means where the approximation error is far below
        the fluid tier's documented tolerance.
        """
        if mean < 0:
            raise ValueError(f"mean must be >= 0, got {mean}")
        if mean == 0:
            return 0
        if mean < 64.0:
            limit = math.exp(-mean)
            count = 0
            product = self._rng.random()
            while product > limit:
                count += 1
                product *= self._rng.random()
            return count
        return max(0, round(self._rng.gauss(mean, math.sqrt(mean))))

    def binomial(self, n: int, p: float) -> int:
        """Binomial variate: successes in ``n`` Bernoulli(p) trials.

        Plain inversion by summed Bernoulli trials — n is small on the
        batched-arrival split path, and a fixed n draws per call keeps
        stream alignment independent of the outcome.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        rnd = self._rng.random
        return sum(1 for _ in range(n) if rnd() < p)


class RandomStreams:
    """Registry of named :class:`Stream` objects derived from one seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Get (or lazily create) the stream called ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = Stream(derive_seed(self.seed, name), name)
        self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self):
        return sorted(self._streams)

"""On-disk result cache for experiment shards.

Every shard of the parallel runner (:mod:`repro.experiments.parallel`)
is a pure function of ``(experiment, scale, shard key, shard params,
shard seed)`` plus the simulator code itself, so its payload can be
memoised on disk. Entries live under ``.accelflow_cache/`` (one pickle
per shard) and are keyed by a SHA-256 digest of the shard identity and
a *code fingerprint* — a hash over every ``repro`` source file — so any
code change, however small, invalidates the whole cache rather than
ever serving stale numbers.

``accelflow-repro`` exposes this via ``--no-cache`` (bypass entirely),
``--refresh`` (recompute and overwrite) and ``--cache-dir``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "CacheStats",
    "ResultCache",
    "code_fingerprint",
    "fingerprint_manifest",
]

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".accelflow_cache"

_FINGERPRINT_CACHE: dict = {}


def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def fingerprint_manifest(root: Optional[str] = None) -> List[str]:
    """The relative paths :func:`code_fingerprint` hashes, sorted.

    Every ``.py`` file under ``root`` (default: the installed ``repro``
    package) is covered — new modules are picked up automatically, so
    the fingerprint never silently lags behind the package layout. The
    manifest exists so tests can assert exactly that.
    """
    if root is None:
        root = _package_root()
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        # Prune in place *before* descent. (A previous version wrapped
        # os.walk in sorted(), which listed the whole walk first
        # and made this assignment a dead letter.)
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if filename.endswith(".py"):
                paths.append(
                    os.path.relpath(os.path.join(dirpath, filename), root)
                )
    return sorted(paths)


def code_fingerprint(root: Optional[str] = None) -> str:
    """SHA-256 over every ``repro`` source file (hex digest).

    Computed once per process per root; any edit to the simulator,
    workloads or experiment harness changes the fingerprint and thereby
    invalidates every cached shard. ``root`` overrides the hashed tree
    (tests fingerprint a scratch directory instead of the live package).
    """
    cached = _FINGERPRINT_CACHE.get(root)
    if cached is not None:
        return cached
    base = root if root is not None else _package_root()
    digest = hashlib.sha256()
    for relpath in fingerprint_manifest(base):
        digest.update(relpath.encode())
        with open(os.path.join(base, relpath), "rb") as handle:
            digest.update(handle.read())
    value = digest.hexdigest()
    _FINGERPRINT_CACHE[root] = value
    return value


@dataclass
class CacheStats:
    """Counters for one runner invocation (all experiments combined)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.errors += other.errors

    def summary(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"writes={self.writes} errors={self.errors}"
        )


class ResultCache:
    """Pickle-per-shard cache under ``root`` with hit/miss accounting.

    ``refresh=True`` turns every lookup into a miss but still writes the
    recomputed payload back, i.e. it atomically rebuilds the cache.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR, refresh: bool = False):
        self.root = root
        self.refresh = refresh
        self.stats = CacheStats()

    # -- keys --------------------------------------------------------------
    def _digest(self, experiment: str, scale: str, shard) -> str:
        identity: Tuple = (
            experiment,
            scale,
            shard.key,
            tuple(sorted((k, repr(v)) for k, v in shard.params.items())),
            shard.seed,
            code_fingerprint(),
        )
        return hashlib.sha256(repr(identity).encode()).hexdigest()

    def path_for(self, experiment: str, scale: str, shard) -> str:
        digest = self._digest(experiment, scale, shard)
        return os.path.join(self.root, f"{experiment}-{digest[:24]}.pkl")

    # -- lookup ------------------------------------------------------------
    def get(self, experiment: str, scale: str, shard) -> Optional[Tuple[object]]:
        """Cached payload as a 1-tuple (so ``None`` payloads stay
        distinguishable from misses), or ``None`` on a miss."""
        path = self.path_for(experiment, scale, shard)
        if self.refresh or not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            # Corrupt or unreadable entry: recompute, then overwrite.
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return (payload,)

    def put(self, experiment: str, scale: str, shard, payload: object) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(experiment, scale, shard)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: concurrent runners never tear
        except Exception:
            self.stats.errors += 1
            if os.path.exists(tmp):
                os.unlink(tmp)
            return
        self.stats.writes += 1

    def entries(self) -> int:
        if not os.path.isdir(self.root):
            return 0
        return sum(1 for name in os.listdir(self.root) if name.endswith(".pkl"))

"""The code fingerprint must cover every module that shapes results.

Each growth PR adds planes (placement, health, fluid, gray faults,
chaos campaigns, serving façade...); if the cache key's fingerprint
missed one, editing it would serve stale shard payloads. The
fingerprint hashes *every* ``.py`` under the package by construction —
these tests pin that: the manifest names the newer planes explicitly,
``__pycache__`` stays pruned, and touching any fingerprinted module
changes the key (and therefore misses the cache).
"""

import os
from types import SimpleNamespace

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ResultCache,
    code_fingerprint,
    fingerprint_manifest,
)

#: Modules added by growth PRs since the fingerprint was introduced —
#: the ones a hand-maintained manifest would plausibly have missed.
GROWTH_PLANES = [
    os.path.join("hw", "placement.py"),
    os.path.join("cluster", "health.py"),
    os.path.join("cluster", "fluid.py"),
    os.path.join("faults", "plane.py"),
    os.path.join("faults", "campaign.py"),
    os.path.join("serve", "facade.py"),
]


def _scratch_tree(tmp_path):
    for rel in GROWTH_PLANES + [os.path.join("sim", "core.py")]:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n")
    return str(tmp_path)


def test_manifest_covers_every_growth_plane():
    manifest = set(fingerprint_manifest())
    for rel in GROWTH_PLANES:
        assert rel in manifest, f"fingerprint does not cover {rel}"


def test_manifest_prunes_pycache(tmp_path):
    # Regression: sorted(os.walk(...)) used to list the whole walk
    # before the prune assignment, descending into __pycache__ anyway.
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    stale = tmp_path / "pkg" / "__pycache__"
    stale.mkdir()
    (stale / "leftover.py").write_text("x = 2\n")
    manifest = fingerprint_manifest(root=str(tmp_path))
    assert manifest == [os.path.join("pkg", "mod.py")]


def test_touching_each_plane_changes_the_fingerprint(tmp_path):
    root = _scratch_tree(tmp_path)
    cache_mod._FINGERPRINT_CACHE.clear()
    previous = code_fingerprint(root=root)
    for rel in GROWTH_PLANES:
        (tmp_path / rel).write_text("x = 2  # touched\n")
        cache_mod._FINGERPRINT_CACHE.clear()
        current = code_fingerprint(root=root)
        assert current != previous, f"touching {rel} did not change the key"
        previous = current


def test_cache_misses_after_any_fingerprinted_module_changes(
    tmp_path, monkeypatch
):
    root = _scratch_tree(tmp_path / "tree")
    monkeypatch.setattr(
        cache_mod, "code_fingerprint", lambda: code_fingerprint(root=root)
    )
    shard = SimpleNamespace(key="k", params={"a": 1}, seed=3)
    store = ResultCache(root=str(tmp_path / "store"))
    store.put("exp", "smoke", shard, {"p99": 42.0})
    assert store.get("exp", "smoke", shard) == ({"p99": 42.0},)
    for rel in GROWTH_PLANES:
        (tmp_path / "tree" / rel).write_text(f"x = 'edit-{rel}'\n")
        cache_mod._FINGERPRINT_CACHE.clear()
        assert store.get("exp", "smoke", shard) is None, (
            f"stale cache hit after editing {rel}"
        )
        store.put("exp", "smoke", shard, {"p99": 42.0})
        assert store.get("exp", "smoke", shard) is not None

"""Shared fixtures for the experiment-suite tests.

``--update-golden`` regenerates the golden snapshot fixtures instead of
diffing against them::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --update-golden
"""

import pytest

from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.parallel import ShardExecutor, default_jobs


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/experiments/golden/*.txt from the current code",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def golden_executor():
    """One executor for the whole golden suite.

    It reads/writes the repo-level shard cache, so a pytest run on
    unchanged code replays cached shards instead of re-simulating
    (the cache key embeds a fingerprint of the ``repro`` sources, so
    any code edit forces recomputation). Cold shards run on up to two
    worker processes; merged results are in shard order, so every
    table is byte-identical to a serial run.
    """
    jobs = min(2, default_jobs())
    with ShardExecutor(jobs=jobs, cache=ResultCache(DEFAULT_CACHE_DIR)) as executor:
        yield executor

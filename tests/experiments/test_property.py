"""Property test: the merged parallel result equals the serial one.

The headline guarantee of the sharded runner — for any experiment,
seed and worker count, shard seeds derive from the design point, never
from scheduling, so the merged result is identical to a serial run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.experiments.parallel import ShardExecutor  # noqa: E402

#: Experiments cheap enough to run many times under hypothesis (all
#: finish in well under a second at smoke scale).
CHEAP = ["fig1", "fig5", "table1", "table2", "table4", "char-branches"]

_serial_cache = {}


def _serial(name, seed):
    key = (name, seed)
    if key not in _serial_cache:
        _serial_cache[key] = EXPERIMENTS[name].run(scale="smoke", seed=seed)
    return _serial_cache[key]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(CHEAP),
    seed=st.integers(min_value=0, max_value=3),
    jobs=st.sampled_from([1, 2, 4]),
)
def test_merged_result_matches_serial(name, seed, jobs):
    with ShardExecutor(jobs=jobs) as executor:
        parallel = EXPERIMENTS[name].run(
            scale="smoke", seed=seed, executor=executor
        )
    assert parallel == _serial(name, seed)

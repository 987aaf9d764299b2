"""Process names and event counts of two small runs, pinned.

``KernelProfile.by_process`` groups the kernel's events by process name
(trailing digits stripped), and perfbench's ``sim.group.*`` metrics fold
those groups. A change that renames a process, or adds, drops or moves
an event, changes these numbers; host-side work per event does not.
Each pin is (completed requests, scheduled events, profiled events,
events per process group) for CPost with 12 Poisson requests at seed 3.
"""

import pytest

from repro.faults import FaultConfig
from repro.hw import AcceleratorKind
from repro.obs import ObsConfig
from repro.server.driver import RunConfig, run_dedicated_service
from repro.workloads import social_network_services

_DISPATCH = {
    "in-dispatch-Cmp": 169,
    "in-dispatch-Dcmp": 193,
    "in-dispatch-Decr": 193,
    "in-dispatch-Dser": 193,
    "in-dispatch-Encr": 193,
    "in-dispatch-LdB": 193,
    "in-dispatch-RPC": 385,
    "in-dispatch-Ser": 193,
    "in-dispatch-TCP": 385,
}

PINS = {
    "accelflow": (12, 22732, 22731, {
        "Cmp-pe": 504, "Dcmp-pe": 576, "Decr-pe": 576, "Dser-pe": 576,
        "Encr-pe": 576, "LdB-pe": 576, "RPC-pe": 1152, "Ser-pe": 576,
        "TCP-pe": 1152, **_DISPATCH,
        "Process": 94, "_watch_completion": 3, "execute": 108, "read": 168,
        "req": 96, "run_chain": 4572, "src-CPost": 13, "transfer": 7152,
        "translate": 1062, "walk": 54,
    }),
    "relief": (12, 42076, 42075, {
        "Cmp-pe": 588, "Dcmp-pe": 672, "Decr-pe": 672, "Dser-pe": 672,
        "Encr-pe": 672, "LdB-pe": 672, "RPC-pe": 1344, "Ser-pe": 672,
        "TCP-pe": 1344, **_DISPATCH,
        "Process": 94, "_retire": 4176, "_watch_completion": 3,
        "execute": 432, "handle_interrupt": 216, "req": 96,
        "run_chain": 4584, "src-CPost": 13, "transfer": 20892,
        "translate": 1062, "walk": 54,
    }),
}


@pytest.mark.parametrize("architecture", sorted(PINS))
def test_process_groups_and_event_counts_are_pinned(architecture):
    spec = next(s for s in social_network_services() if s.name == "CPost")
    obs = ObsConfig(profile_kernel=True)
    config = RunConfig(
        architecture,
        requests_per_service=12,
        seed=3,
        arrival_mode="poisson",
        obs=obs,
    )
    result = run_dedicated_service(spec, config)["service"]
    env = obs.sessions[-1].env
    groups = {
        name: int(row["events"]) for name, row in env.profile.by_process.items()
    }
    assert (
        result.completed, env.scheduled_events, env.profile.events, groups
    ) == PINS[architecture]


def test_recovered_attempts_group_per_accelerator_kind():
    """Each recovered attempt runs as ``step-<kind>-<rid>``, so the
    profile holds one ``step-*`` group per kind, not one per attempt."""
    spec = next(s for s in social_network_services() if s.name == "CPost")
    obs = ObsConfig(profile_kernel=True)
    config = RunConfig(
        "accelflow",
        requests_per_service=12,
        seed=3,
        arrival_mode="poisson",
        obs=obs,
        faults=FaultConfig(pe_transient_rate=0.05),
    )
    run_dedicated_service(spec, config)
    groups = obs.sessions[-1].env.profile.by_process
    steps = sorted(name for name in groups if name.startswith("step-"))
    assert steps
    assert set(steps) <= {f"step-{kind.value}" for kind in AcceleratorKind}

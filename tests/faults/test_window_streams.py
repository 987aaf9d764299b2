"""Byte-for-byte pins of every windowed fault category's injections.

One fault mix turns on all four windowed categories (stuck PE, NoC
flap, manager outage, gray slowdown) together with the per-op draws and
the limp draw. Each cell pins three values that only depend on which
events the simulation scheduled and in what order:

* ``env.scheduled_events``,
* the fault plane's ``stats()``,
* a sha256 of the ordered ``(t_ns, category, sorted args)`` of every
  ``FaultInjected`` event on the telemetry bus.

The placed cells move compression to PCIe and the network stack to
the NIC, so the same mix also runs across the placement fabric; relief
adds manager outages. Latency sums are deliberately not pinned:
``sum()`` rounds differently across CPython versions, while these
three values do not.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.faults import FaultConfig
from repro.hw import MachineParams
from repro.hw.placement import PlacementConfig
from repro.obs import ObsConfig
from repro.obs.telemetry import FaultInjected
from repro.server.driver import RunConfig, drive, make_server
from repro.workloads import social_network_services

FAULTS = FaultConfig(
    pe_transient_rate=0.02,
    pe_wedge_rate=0.01,
    pe_stuck_mtbf_ns=2e6,
    pe_repair_ns=5e5,
    pe_stuck_max=32,
    dma_stall_rate=0.02,
    dma_corruption_rate=0.01,
    noc_flap_interval_ns=1e6,
    noc_flap_down_ns=2e4,
    noc_flap_max=64,
    noc_degraded_factor=1.1,
    manager_outage_interval_ns=2e6,
    manager_outage_ns=3e5,
    gray_limp_probability=1.0,
    gray_slowdown_interval_ns=1e6,
    gray_slowdown_ns=5e5,
)

PLACED = replace(
    MachineParams(),
    placement=PlacementConfig.build(
        overrides={"Cmp": "pcie", "Dcmp": "pcie", "TCP": "nic", "RPC": "nic"}
    ),
)

#: The injection categories, in the order the pinned counts list them.
CATEGORIES = (
    "pe-transient",
    "pe-wedge",
    "pe-stuck",
    "dma-stall",
    "dma-corruption",
    "noc-flap",
    "manager-outage",
    "gray-limp",
    "gray-slowdown",
)

#: (architecture, placed, seed, scheduled events, injections per
#: category, sha256 of the FaultInjected stream).
CELLS = [
    ("accelflow", False, 0, 29732, (21, 13, 9, 21, 12, 25, 0, 1, 14),
     "477666d4af2caaf2ee88b00971eaaa03727e7b0199eb0c8996633064c08a94f5"),
    ("accelflow", True, 0, 33176, (25, 11, 11, 21, 12, 26, 0, 1, 16),
     "7131367f8c1e0bc3d64738869f342d4b0653b39b6cb1a13dcc05e1c08234f2da"),
    ("relief", False, 0, 50348, (20, 13, 8, 46, 17, 23, 7, 1, 14),
     "8194518c501f62541fc6395a2960785a81b83e4fd57cab176980b4da5e2f1e44"),
    ("relief", True, 0, 48521, (17, 13, 8, 43, 20, 23, 8, 1, 14),
     "e9c50d2c322a4673f9a6252a8c672e692dbad1e7aeda2f3f728063c544ed6754"),
    ("cpu-centric", False, 0, 37026, (24, 12, 9, 21, 12, 24, 0, 1, 14),
     "90c5553b14f9d7649256a7ba5a7c2056da3b82bae0cda9b0aa069762eb353944"),
    ("cpu-centric", True, 0, 40531, (29, 11, 12, 21, 12, 26, 0, 1, 16),
     "c2c217bcc6b8e05ce40ddcbf08b5bf4bfa420752f29ebc81d82bb5a6dc44e09b"),
    ("accelflow", False, 1, 29657, (21, 10, 6, 24, 9, 27, 0, 1, 15),
     "6f583ed3838df90df0b21e77b312a95c1e2d7f4c5ec748106912709e8ed38cc5"),
    ("accelflow", True, 1, 33070, (29, 5, 6, 25, 8, 27, 0, 1, 15),
     "77c2d02c8ddd5394b29f4e5fda61a3cb83b47e33fee78fdbd8004494c82c47da"),
    ("relief", False, 1, 50201, (18, 9, 7, 50, 24, 28, 10, 1, 15),
     "e2927b25645fcf1964e7f267680786ff3f1245800ae18d77fa5a0d2ac05f7075"),
    ("relief", True, 1, 48535, (25, 7, 3, 48, 26, 21, 4, 1, 13),
     "9927ce16597f9c0b6a3587ebb15bcfc0a065b195a3a33d059049445557d9d8ef"),
    ("cpu-centric", False, 1, 36844, (20, 9, 6, 24, 8, 28, 0, 1, 15),
     "49a885b8a03a174652762e819f2cbda46ec3053a1149464c9638a04b3de5c2df"),
    ("cpu-centric", True, 1, 40242, (19, 11, 6, 23, 8, 27, 0, 1, 15),
     "685211cb9a1025229dc2ee7beeac1fb4b6264b300fb2345b17d3f0f0a0a7ef8c"),
]


def _cell_id(cell):
    architecture, placed, seed = cell[:3]
    return f"{architecture}-{'placed' if placed else 'on-package'}-seed{seed}"


@pytest.mark.parametrize("cell", CELLS, ids=[_cell_id(c) for c in CELLS])
def test_window_streams_are_pinned(cell):
    architecture, placed, seed, scheduled, counts, digest = cell
    spec = [s for s in social_network_services() if s.name == "StoreP"][0]
    obs = ObsConfig(telemetry=True)
    config = RunConfig(
        architecture,
        requests_per_service=60,
        seed=seed,
        machine_params=PLACED if placed else None,
        arrival_mode="poisson",
        rate_rps=4000.0,
        drain_ns=50e6,
        obs=obs,
        faults=FAULTS,
    )
    server = make_server(config)
    drive(server, [spec], config)

    expected = {name: float(n) for name, n in zip(CATEGORIES, counts)}
    expected["total_injected"] = float(sum(counts))
    assert server.fault_plane.stats() == expected
    events = [
        (event.t_ns, event.category, sorted((event.args or {}).items()))
        for event in obs.bus.recent([FaultInjected])
    ]
    assert len(events) == sum(counts), "the bus ring dropped injections"
    assert hashlib.sha256(repr(events).encode()).hexdigest() == digest
    assert server.env.scheduled_events == scheduled

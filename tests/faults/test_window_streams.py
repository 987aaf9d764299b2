"""Byte-for-byte pins of every windowed fault category's injections.

One fault mix turns on all eight windowed categories (stuck PE, NoC
flap, PCIe flap, NIC congestion, ATM outage, manager outage, gray
slowdown, gray ramp) together with the per-op draws and the limp draw.
Each cell pins three values that only depend on which events the
simulation scheduled and in what order:

* ``env.scheduled_events``,
* the fault plane's ``stats()``,
* a sha256 of the ordered ``(t_ns, category, sorted args)`` of every
  ``FaultInjected`` event on the telemetry bus.

With the placement (compression on PCIe, the network stack on the NIC)
every category fires; relief adds manager outages. Latency sums are
deliberately not pinned: ``sum()`` rounds differently across CPython
versions, while these three values do not.
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
    pcie_flap_interval_ns=1e6,
    pcie_flap_down_ns=5e4,
    nic_congestion_interval_ns=1e6,
    nic_congestion_ns=2e5,
    atm_outage_interval_ns=1e6,
    atm_outage_ns=5e4,
    manager_outage_interval_ns=2e6,
    manager_outage_ns=3e5,
    gray_limp_probability=1.0,
    gray_slowdown_interval_ns=1e6,
    gray_slowdown_ns=5e5,
    gray_ramp_interval_ns=1e6,
    gray_ramp_ns=5e5,
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
    "pcie-flap",
    "nic-congestion",
    "atm-outage",
    "manager-outage",
    "gray-limp",
    "gray-slowdown",
    "gray-ramp",
)

#: (architecture, placed, seed, scheduled events, injections per
#: category, sha256 of the FaultInjected stream).
CELLS = [
    ("accelflow", False, 0, 29758, (21, 13, 9, 21, 12, 25, 0, 0, 8, 0, 1, 14, 0),
     "4a776dc2cf212a5c6ee80d5db1b1e03048ab15f41f2bb027be96fe5286b709cf"),
    ("accelflow", True, 0, 33263, (25, 9, 8, 21, 12, 23, 14, 12, 8, 0, 1, 14, 6),
     "fb549b9da79d8fe7817e0f39597cad9467158cd767db3307e61b3959e7c2130d"),
    ("relief", False, 0, 50374, (20, 13, 8, 46, 17, 23, 0, 0, 8, 7, 1, 14, 0),
     "e1df9e0d4e284b8e3a26e2704ef4e90e3d64677ab7d425ddbc1940623158abd4"),
    ("relief", True, 0, 49042, (26, 15, 8, 45, 20, 22, 14, 12, 8, 7, 1, 12, 6),
     "907cacf6cc099bf76017e46090d649d6f2839667aba3383a43a5b60781eea7b4"),
    ("cpu-centric", False, 0, 37052, (24, 12, 9, 21, 12, 24, 0, 0, 8, 0, 1, 14, 0),
     "adad9cd74b2473ed345b1009357d458def16d60228ddc5a4923df5a66da2b486"),
    ("cpu-centric", True, 0, 40541, (25, 9, 8, 20, 12, 23, 14, 12, 8, 0, 1, 14, 6),
     "7caecfca2d6cffba0dacca1f9ce95e4a09a4887365a78e700bb055231554de12"),
    ("accelflow", False, 1, 29683, (21, 10, 6, 24, 9, 27, 0, 0, 8, 0, 1, 15, 0),
     "45ab9e7c3bd4ee223d12bf032baa9166843c811b13fa635746fe0c56412ff4bc"),
    ("accelflow", True, 1, 33191, (28, 5, 3, 22, 9, 21, 16, 6, 8, 0, 1, 13, 8),
     "ac7931bfeb3b225ce9fc690cc9c36877c4ed519f04cb7565076258865f077472"),
    ("relief", False, 1, 50227, (18, 9, 7, 50, 24, 28, 0, 0, 8, 10, 1, 15, 0),
     "33f33025129f0c31ab0dcd4b0cb55ef4c6cf41839fcdd902bf4b063745a35aa6"),
    ("relief", True, 1, 48936, (26, 9, 9, 52, 22, 30, 16, 12, 8, 11, 1, 16, 8),
     "a2abfa0e14ca8bc3fddc81cb805ad5bb01b43af0f088233039ed8cf069cd2be7"),
    ("cpu-centric", False, 1, 36870, (20, 9, 6, 24, 8, 28, 0, 0, 8, 0, 1, 15, 0),
     "4169ba940466822a0b10d7b8cfe58b9c3ce169143965639c81aa25f8929f25ac"),
    ("cpu-centric", True, 1, 40402, (24, 5, 6, 23, 8, 28, 16, 11, 8, 0, 1, 15, 8),
     "a95519cefd1d4761d26e45400e3d31f2982d7061acfb55a65d009b16478f58f4"),
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

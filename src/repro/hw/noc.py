"""On-package interconnect model: intra-chiplet meshes + inter-chiplet links.

Transfers between two agents (accelerators, the CPU/core complex, or
memory) pay:

* mesh hop latency and flit serialization on the source chiplet fabric,
* if the endpoints sit on different chiplets: the inter-chiplet link
  latency plus serialization at the (high) inter-chiplet bandwidth, with
  contention on the shared link between that chiplet pair,
* mesh latency on the destination chiplet.

Fabric contention is modeled per chiplet as a bounded number of parallel
in-flight transfers (``NocParams.mesh_parallelism``).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from ..sim import Environment, Resource, TimeWeightedValue
from .params import AcceleratorKind, ChipletLayout, MachineParams, NocParams

__all__ = ["Network", "Endpoint", "CPU_ENDPOINT", "MEMORY_ENDPOINT"]

#: The CPU/core complex and memory controllers live on chiplet 0 together
#: with the LdB accelerator (Figure 6).
CPU_ENDPOINT = "cpu"
MEMORY_ENDPOINT = "memory"

Endpoint = Union[AcceleratorKind, str]


class Network:
    """The on-package network of one server."""

    def __init__(self, env: Environment, params: MachineParams):
        self.env = env
        self.params = params
        self.noc: NocParams = params.noc
        self.layout: ChipletLayout = params.layout
        self.ghz = params.cpu.ghz
        n_chiplets = self.layout.chiplet_count
        self._fabrics = [
            Resource(env, capacity=self.noc.mesh_parallelism) for _ in range(n_chiplets)
        ]
        self._links: Dict[Tuple[int, int], Resource] = {}
        for a in range(n_chiplets):
            for b in range(a + 1, n_chiplets):
                self._links[(a, b)] = Resource(env, capacity=2)
        self.bytes_moved = 0
        self.inter_chiplet_transfers = 0
        self.intra_chiplet_transfers = 0
        self._busy = TimeWeightedValue(0.0, env.now)
        #: Optional :class:`repro.faults.FaultPlane` (None = fault-free):
        #: supplies link-down gates and the degradation factor for
        #: inter-chiplet legs.
        self.fault_plane = None
        self._meshes = None
        if self.noc.detailed_mesh:
            from .mesh import build_chiplet_meshes

            self._meshes = build_chiplet_meshes(self.layout)

    # -- topology helpers ---------------------------------------------------
    def chiplet_of(self, endpoint: Endpoint) -> int:
        if endpoint in (CPU_ENDPOINT, MEMORY_ENDPOINT):
            return 0
        return self.layout.chiplet_of(endpoint)

    def crosses_chiplets(self, src: Endpoint, dst: Endpoint) -> bool:
        return self.chiplet_of(src) != self.chiplet_of(dst)

    def _link(self, a: int, b: int) -> Resource:
        return self._links[(a, b) if a < b else (b, a)]

    def _hops(self, chiplet: int, endpoint: Endpoint) -> float:
        """Hop count from ``endpoint`` to the chiplet's portal stop."""
        if self._meshes is None:
            return self.noc.mesh_avg_hops
        from .mesh import PORTAL

        mesh = self._meshes[chiplet]
        member = PORTAL if endpoint in (CPU_ENDPOINT, MEMORY_ENDPOINT) else endpoint
        return float(mesh.hops(member, PORTAL)) or 1.0

    def _pair_hops(self, src: Endpoint, dst: Endpoint) -> float:
        """Same-chiplet hop count between two endpoints."""
        if self._meshes is None:
            return self.noc.mesh_avg_hops
        from .mesh import PORTAL

        chiplet = self.chiplet_of(src)
        mesh = self._meshes[chiplet]
        a = PORTAL if src in (CPU_ENDPOINT, MEMORY_ENDPOINT) else src
        b = PORTAL if dst in (CPU_ENDPOINT, MEMORY_ENDPOINT) else dst
        return float(mesh.hops(a, b)) or 1.0

    # -- timing -------------------------------------------------------------
    def estimate_ns(self, src: Endpoint, dst: Endpoint, nbytes: int) -> float:
        """Uncontended transfer time (used for admission heuristics)."""
        src_chip = self.chiplet_of(src)
        dst_chip = self.chiplet_of(dst)
        if src_chip == dst_chip:
            hops = self._pair_hops(src, dst)
            return (
                self.noc.mesh_latency_ns(hops, self.ghz)
                + self.noc.mesh_serialization_ns(nbytes, self.ghz)
            )
        time_ns = self.noc.mesh_latency_ns(self._hops(src_chip, src), self.ghz)
        time_ns += self.noc.mesh_serialization_ns(nbytes, self.ghz)
        time_ns += self.noc.inter_chiplet_latency_ns(self.ghz)
        time_ns += self.noc.inter_chiplet_serialization_ns(nbytes)
        time_ns += self.noc.mesh_latency_ns(self._hops(dst_chip, dst), self.ghz)
        return time_ns

    def transfer(self, src: Endpoint, dst: Endpoint, nbytes: int):
        """Process: move ``nbytes`` from ``src`` to ``dst`` with contention."""
        env = self.env
        src_chip = self.chiplet_of(src)
        dst_chip = self.chiplet_of(dst)
        self.bytes_moved += nbytes
        self._busy.add(1.0, env.now)
        try:
            same_chiplet = src_chip == dst_chip
            src_hops = (
                self._pair_hops(src, dst) if same_chiplet
                else self._hops(src_chip, src)
            )
            with self._fabrics[src_chip].request() as fabric_req:
                yield fabric_req
                yield env.timeout(
                    self.noc.mesh_latency_ns(src_hops, self.ghz)
                    + self.noc.mesh_serialization_ns(nbytes, self.ghz)
                )
            if same_chiplet:
                self.intra_chiplet_transfers += 1
                return
            self.inter_chiplet_transfers += 1
            plane = self.fault_plane
            if plane is not None:
                # Flapped link: wait until it comes back before competing
                # for it; degraded links stretch the whole leg.
                yield from plane.wait_up(
                    (src_chip, dst_chip) if src_chip < dst_chip
                    else (dst_chip, src_chip)
                )
            with self._link(src_chip, dst_chip).request() as link_req:
                yield link_req
                leg_ns = (
                    self.noc.inter_chiplet_latency_ns(self.ghz)
                    + self.noc.inter_chiplet_serialization_ns(nbytes)
                )
                if plane is not None:
                    leg_ns *= plane.link_factor()
                yield env.timeout(leg_ns)
            with self._fabrics[dst_chip].request() as fabric_req:
                yield fabric_req
                yield env.timeout(
                    self.noc.mesh_latency_ns(self._hops(dst_chip, dst), self.ghz)
                )
        finally:
            self._busy.add(-1.0, env.now)

    # -- statistics -----------------------------------------------------------
    def average_in_flight(self) -> float:
        return self._busy.average(self.env.now)

    def stats(self) -> Dict[str, float]:
        return {
            "bytes_moved": float(self.bytes_moved),
            "intra_chiplet_transfers": float(self.intra_chiplet_transfers),
            "inter_chiplet_transfers": float(self.inter_chiplet_transfers),
            "average_in_flight": self.average_in_flight(),
        }

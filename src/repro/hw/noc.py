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

Everything about a transfer except its size is fixed by its endpoint
pair, so :class:`Network` resolves each ``(src, dst)`` pair once into a
:class:`Route` (chiplets, contended resources, fault-gate key and mesh
latencies) that :meth:`Network.transfer` and :meth:`Network.estimate_ns`
both read; serialization, the only size-dependent part, is computed per
call.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..sim import Environment, Resource, TimeWeightedValue
from .params import AcceleratorKind, ChipletLayout, MachineParams, NocParams

__all__ = ["Network", "Route", "Endpoint", "CPU_ENDPOINT", "MEMORY_ENDPOINT"]

#: The CPU/core complex and memory controllers live on chiplet 0 together
#: with the LdB accelerator (Figure 6).
CPU_ENDPOINT = "cpu"
MEMORY_ENDPOINT = "memory"

Endpoint = Union[AcceleratorKind, str]


class Route:
    """What a transfer from one endpoint to another always pays.

    Built once per endpoint pair by :meth:`Network.route`: whether the
    pair crosses chiplets, the resources each leg contends for, the
    link key the fault plane gates on, and the :class:`NocParams`
    latencies of each leg at the average hop count.
    """

    __slots__ = (
        "crosses",
        "src_fabric",
        "link",
        "dst_fabric",
        "link_key",
        "src_mesh_ns",
        "link_latency_ns",
        "dst_mesh_ns",
    )

    def __init__(self, network: "Network", src: Endpoint, dst: Endpoint):
        noc, ghz = network.noc, network.ghz
        src_chip = network.chiplet_of(src)
        dst_chip = network.chiplet_of(dst)
        self.crosses = src_chip != dst_chip
        self.src_fabric: Resource = network._fabrics[src_chip]
        #: The first mesh leg: to the destination on one chiplet, else
        #: to the source chiplet's portal.
        self.src_mesh_ns = noc.mesh_latency_ns(noc.mesh_avg_hops, ghz)
        # The inter-chiplet leg and the destination mesh leg; None on
        # one chiplet.
        self.link: Optional[Resource] = None
        self.dst_fabric: Optional[Resource] = None
        self.link_key: Optional[Tuple[int, int]] = None
        self.link_latency_ns = self.dst_mesh_ns = 0.0
        if self.crosses:
            self.link_key = (min(src_chip, dst_chip), max(src_chip, dst_chip))
            self.link = network._links[self.link_key]
            self.dst_fabric = network._fabrics[dst_chip]
            self.link_latency_ns = noc.inter_chiplet_latency_ns(ghz)
            self.dst_mesh_ns = noc.mesh_latency_ns(noc.mesh_avg_hops, ghz)


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
        #: src -> dst -> :class:`Route`, filled on first use.
        self._routes: Dict[Endpoint, Dict[Endpoint, Route]] = {}

    # -- topology helpers ---------------------------------------------------
    def chiplet_of(self, endpoint: Endpoint) -> int:
        if endpoint in (CPU_ENDPOINT, MEMORY_ENDPOINT):
            return 0
        return self.layout.chiplet_of(endpoint)

    def crosses_chiplets(self, src: Endpoint, dst: Endpoint) -> bool:
        return self.chiplet_of(src) != self.chiplet_of(dst)

    def route(self, src: Endpoint, dst: Endpoint) -> Route:
        """The :class:`Route` from ``src`` to ``dst``, resolved once."""
        try:
            return self._routes[src][dst]
        except KeyError:
            route = Route(self, src, dst)
            self._routes.setdefault(src, {})[dst] = route
            return route

    # -- timing -------------------------------------------------------------
    def estimate_ns(self, src: Endpoint, dst: Endpoint, nbytes: int) -> float:
        """Uncontended transfer time (used for admission heuristics)."""
        route = self.route(src, dst)
        noc = self.noc
        time_ns = route.src_mesh_ns + noc.mesh_serialization_ns(nbytes, self.ghz)
        if route.crosses:
            time_ns += route.link_latency_ns
            time_ns += noc.inter_chiplet_serialization_ns(nbytes)
            time_ns += route.dst_mesh_ns
        return time_ns

    def transfer(self, src: Endpoint, dst: Endpoint, nbytes: int):
        """Process: move ``nbytes`` from ``src`` to ``dst`` with contention."""
        env = self.env
        try:
            route = self._routes[src][dst]
        except KeyError:
            route = self.route(src, dst)
        noc = self.noc
        # The NocParams serialization formulas, inlined: they are the
        # only leg costs that depend on the size.
        flits = (nbytes + noc.mesh_link_bytes - 1) // noc.mesh_link_bytes
        self.bytes_moved += nbytes
        self._busy.add(1.0, env.now)
        try:
            with route.src_fabric.request() as fabric_req:
                yield fabric_req
                yield env.timeout(
                    route.src_mesh_ns + float(max(1, flits)) / self.ghz
                )
            if not route.crosses:
                self.intra_chiplet_transfers += 1
                return
            self.inter_chiplet_transfers += 1
            plane = self.fault_plane
            if plane is not None:
                # Flapped link: wait until it comes back before competing
                # for it; degraded links stretch the whole leg.
                yield from plane.wait_up(route.link_key)
            with route.link.request() as link_req:
                yield link_req
                leg_ns = route.link_latency_ns + nbytes / noc.inter_chiplet_gbps
                if plane is not None:
                    leg_ns *= plane.link_factor()
                yield env.timeout(leg_ns)
            with route.dst_fabric.request() as fabric_req:
                yield fabric_req
                yield env.timeout(route.dst_mesh_ns)
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

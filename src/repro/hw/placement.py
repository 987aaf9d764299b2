"""Placement fabric: where each accelerator physically lives.

The paper puts the nine tax accelerators on-package; the related work
puts the very same accelerators everywhere else — RPCAcc behind a PCIe
link, Dagger coupled to the NIC over a memory interconnect, Arcalis
near the LLC, and the "Fine-Grained Computation Offload" line as a
remote service across the network. This module models *placement* as a
first-class config axis so the five orchestration architectures can be
compared across the whole disaggregation design space.

Three layers:

* :class:`Placement` — the five placements studied (``on_package``,
  ``near_cache``, ``pcie``, ``nic``, ``remote``).
* :class:`HopModel` — the cost of crossing from the package to one
  off-package site: a setup latency (doorbell/descriptor/driver turn),
  link bandwidth, a serialization quantum (TLP/MTU — payloads move in
  whole quanta), and a bounded number of lanes. Lanes are a queued
  :class:`~repro.sim.Resource`, so link *contention* is simulated, not
  just added as a constant.
* :class:`PlacementFabric` — sits between the A-DMA pool and
  :class:`~repro.hw.noc.Network`. Transfers whose endpoints are all
  on-package delegate straight to the NoC (the fast path); any
  off-package endpoint additionally pays its placement's hop crossing,
  with contention on the shared link.

The default :class:`MachineParams` carries no placement config at all,
so the fabric is never instantiated and the simulator is byte-identical
to the placement-unaware model; an explicit all-``on_package`` config
is inactive for the same reason (unless ``force_fabric`` requests the
pass-through layer for overhead benchmarking).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..sim import Environment, Resource, TimeWeightedValue
from .noc import CPU_ENDPOINT, MEMORY_ENDPOINT, Endpoint, Network
from .params import AcceleratorKind

__all__ = [
    "Placement",
    "PLACEMENTS",
    "HopModel",
    "DEFAULT_HOP_MODELS",
    "PlacementConfig",
    "PlacementFabric",
]


class Placement(enum.Enum):
    """Where an accelerator sits relative to the cores."""

    #: The paper's baseline: on the server package, reached over the
    #: chiplet NoC alone.
    ON_PACKAGE = "on_package"
    #: Arcalis-style: attached beside the LLC on the die edge; a short
    #: coherent hop on top of the NoC.
    NEAR_CACHE = "near_cache"
    #: RPCAcc-style: a discrete card behind a PCIe link (doorbell +
    #: descriptor fetch + TLP serialization).
    PCIE = "pcie"
    #: Dagger-style: on the SmartNIC, reached over the NIC's memory
    #: interconnect and sharing the NIC's host link.
    NIC = "nic"
    #: Fine-grained offload to a remote accelerator service across the
    #: datacenter network.
    REMOTE = "remote"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


PLACEMENTS = tuple(Placement)


@dataclass(frozen=True)
class HopModel:
    """Cost model of one package <-> site crossing.

    ``setup_ns`` is paid once per crossing (doorbell write, descriptor
    fetch, driver/firmware turn); payload bytes then serialize at
    ``gbps`` in whole ``quantum_bytes`` units (a 1-byte message still
    ships a full TLP/frame). ``lanes`` bounds concurrent crossings —
    the queued link resource that makes contention real.
    """

    setup_ns: float
    gbps: float
    quantum_bytes: int = 64
    lanes: int = 4

    def serialization_ns(self, nbytes: int) -> float:
        """Wire time of ``nbytes``, rounded up to whole quanta."""
        quanta = max(1, -(-nbytes // self.quantum_bytes))
        return quanta * self.quantum_bytes / self.gbps

    def crossing_ns(self, nbytes: int) -> float:
        """Uncontended cost of one package <-> site crossing."""
        return self.setup_ns + self.serialization_ns(nbytes)

    def validate(self) -> None:
        if self.setup_ns < 0:
            raise ValueError(f"setup_ns must be >= 0, got {self.setup_ns}")
        if self.gbps <= 0:
            raise ValueError(f"gbps must be positive, got {self.gbps}")
        if self.quantum_bytes <= 0:
            raise ValueError(
                f"quantum_bytes must be positive, got {self.quantum_bytes}"
            )
        if self.lanes <= 0:
            raise ValueError(f"lanes must be positive, got {self.lanes}")


#: Literature-flavoured hop costs (see docs/placement.md for sources).
#: ``on_package`` has no hop — transfers ride the NoC alone.
DEFAULT_HOP_MODELS: Dict[Placement, HopModel] = {
    # Near-LLC: a coherent on-die hop; cache-line quanta, wide and fast.
    Placement.NEAR_CACHE: HopModel(
        setup_ns=40.0, gbps=200.0, quantum_bytes=64, lanes=8
    ),
    # PCIe Gen4 x16 card: ~0.9 us doorbell-to-data turn, 512 B TLPs.
    Placement.PCIE: HopModel(
        setup_ns=900.0, gbps=32.0, quantum_bytes=512, lanes=4
    ),
    # SmartNIC complex over the NIC host link: DMA rings + MTU frames.
    Placement.NIC: HopModel(
        setup_ns=1300.0, gbps=25.0, quantum_bytes=1500, lanes=4
    ),
    # Remote accelerator service: half an RTT of network each way.
    Placement.REMOTE: HopModel(
        setup_ns=10000.0, gbps=12.5, quantum_bytes=1500, lanes=8
    ),
}

PlacementLike = Union[Placement, str]


def _as_kind(value) -> AcceleratorKind:
    if isinstance(value, AcceleratorKind):
        return value
    try:
        return AcceleratorKind(value)
    except ValueError:
        pass
    try:
        return AcceleratorKind[str(value).upper()]
    except KeyError:
        raise ValueError(
            f"unknown accelerator kind {value!r}; "
            f"known: {[k.value for k in AcceleratorKind]}"
        ) from None


def _as_placement(value: PlacementLike) -> Placement:
    if isinstance(value, Placement):
        return value
    try:
        return Placement(value)
    except ValueError:
        raise ValueError(
            f"unknown placement {value!r}; "
            f"known: {[p.value for p in PLACEMENTS]}"
        ) from None


@dataclass(frozen=True)
class PlacementConfig:
    """The placement axis of one machine.

    ``default`` places every accelerator kind; ``overrides`` pin
    individual kinds elsewhere (e.g. compression on-package while the
    RPC stack lives on the NIC). The CPU/memory endpoints are always
    on-package. ``force_fabric`` installs the fabric even when every
    kind is on-package — a benchmarking knob that measures the
    pass-through cost of the layer itself.
    """

    default: Placement = Placement.ON_PACKAGE
    overrides: Dict[AcceleratorKind, Placement] = field(default_factory=dict)
    hop_models: Dict[Placement, HopModel] = field(
        default_factory=lambda: dict(DEFAULT_HOP_MODELS)
    )
    force_fabric: bool = False

    @classmethod
    def build(
        cls,
        default: PlacementLike = Placement.ON_PACKAGE,
        overrides: Optional[Dict[object, PlacementLike]] = None,
        hop_models: Optional[Dict[Placement, HopModel]] = None,
        force_fabric: bool = False,
    ) -> "PlacementConfig":
        """Lenient constructor: accepts placement names and accelerator
        kind values (strings) as well as the enum members."""
        resolved: Dict[AcceleratorKind, Placement] = {}
        for kind, placement in (overrides or {}).items():
            resolved[_as_kind(kind)] = _as_placement(placement)
        models = dict(DEFAULT_HOP_MODELS)
        if hop_models:
            models.update(hop_models)
        return cls(
            default=_as_placement(default),
            overrides=resolved,
            hop_models=models,
            force_fabric=force_fabric,
        )

    def placement_of(self, kind: AcceleratorKind) -> Placement:
        return self.overrides.get(kind, self.default)

    @property
    def active(self) -> bool:
        """True when any accelerator actually leaves the package."""
        if self.force_fabric:
            return True
        if self.default is not Placement.ON_PACKAGE:
            return True
        return any(
            p is not Placement.ON_PACKAGE for p in self.overrides.values()
        )

    def placements_in_use(self) -> Dict[Placement, int]:
        """Off-package placement -> number of accelerator kinds there."""
        counts: Dict[Placement, int] = {}
        for kind in AcceleratorKind:
            placement = self.placement_of(kind)
            if placement is not Placement.ON_PACKAGE:
                counts[placement] = counts.get(placement, 0) + 1
        return counts

    def validate(self) -> None:
        for placement, model in self.hop_models.items():
            if placement is Placement.ON_PACKAGE:
                raise ValueError("on_package needs no hop model")
            model.validate()
        for placement in self.placements_in_use():
            if placement not in self.hop_models:
                raise ValueError(f"no hop model for placement {placement}")


class PlacementFabric:
    """The transport between the A-DMA pool and the NoC.

    Presents the same ``transfer``/``estimate_ns``/``stats`` surface as
    :class:`~repro.hw.noc.Network`, so the DMA pool (and through it
    every orchestrator) is placement-oblivious. Off-package endpoints
    attach through the package edge on chiplet 0 (the root complex /
    memory controller), so the on-package share of a crossing rides the
    real NoC — with its own fabric and inter-chiplet contention — and
    the hop itself queues on the placement's bounded link lanes.

    Two accelerators at the *same* off-package site exchange data over
    that site's local interconnect, which we model with the same NoC
    cost (and shared contention resources) as the on-package mesh: no
    host-link lanes and no hop setup — the modelling reason colocating
    producer and consumer (e.g. the whole RPC stack on the NIC)
    recovers the on-package hand-off cost without ever beating it.
    """

    def __init__(
        self,
        env: Environment,
        config: PlacementConfig,
        network: Network,
        tracer=None,
    ):
        config.validate()
        self.env = env
        self.config = config
        self.network = network
        #: Optional :class:`repro.obs.SpanTracer`; every hop crossing
        #: records a "placement" track span when tracing is on.
        self.tracer = tracer
        self._links: Dict[Placement, Resource] = {
            placement: Resource(env, capacity=config.hop_models[placement].lanes)
            for placement in config.placements_in_use()
        }
        #: Endpoint -> placement, precomputed so the per-transfer hot
        #: path is a dict lookup, not config resolution.
        self._placements: Dict[Endpoint, Placement] = {
            kind: config.placement_of(kind) for kind in AcceleratorKind
        }
        self._placements[CPU_ENDPOINT] = Placement.ON_PACKAGE
        self._placements[MEMORY_ENDPOINT] = Placement.ON_PACKAGE
        self.hop_transfers: Dict[Placement, int] = {
            placement: 0 for placement in self._links
        }
        self.hop_bytes: Dict[Placement, int] = {
            placement: 0 for placement in self._links
        }
        self.local_site_transfers = 0
        self._in_flight: Dict[Placement, TimeWeightedValue] = {
            placement: TimeWeightedValue(0.0, env.now)
            for placement in self._links
        }

    # -- topology -----------------------------------------------------------
    def placement_of(self, endpoint: Endpoint) -> Placement:
        """The placement of one transfer endpoint (CPU/memory are
        always on-package)."""
        return self._placements.get(endpoint, Placement.ON_PACKAGE)

    def _edge(self, endpoint: Endpoint) -> Endpoint:
        """Where an endpoint's on-package NoC leg terminates: the
        endpoint itself when on-package, else the chiplet-0 package
        edge its hop attaches through."""
        if self.placement_of(endpoint) is Placement.ON_PACKAGE:
            return endpoint
        return MEMORY_ENDPOINT

    # -- timing -------------------------------------------------------------
    def estimate_ns(self, src: Endpoint, dst: Endpoint, nbytes: int) -> float:
        """Uncontended transfer time (admission heuristics)."""
        src_p = self.placement_of(src)
        dst_p = self.placement_of(dst)
        if src_p is dst_p:
            # On-package, or both endpoints at one off-package site:
            # the site-local interconnect is modelled with the same NoC
            # cost, so colocation never beats the package itself.
            return self.network.estimate_ns(src, dst, nbytes)
        time_ns = self.network.estimate_ns(
            self._edge(src), self._edge(dst), nbytes
        )
        if src_p is not Placement.ON_PACKAGE:
            time_ns += self.config.hop_models[src_p].crossing_ns(nbytes)
        if dst_p is not Placement.ON_PACKAGE:
            time_ns += self.config.hop_models[dst_p].crossing_ns(nbytes)
        return time_ns

    def _cross(self, placement: Placement, nbytes: int):
        """Process leg: one package <-> site crossing with contention."""
        env = self.env
        hop = self.config.hop_models[placement]
        start = env.now
        self._in_flight[placement].add(1.0, env.now)
        try:
            with self._links[placement].request() as lane:
                yield lane
                yield env.timeout(hop.crossing_ns(nbytes))
        finally:
            self._in_flight[placement].add(-1.0, env.now)
        self.hop_transfers[placement] += 1
        self.hop_bytes[placement] += nbytes
        if self.tracer is not None:
            self.tracer.complete(
                f"hop {placement.value}",
                "placement",
                start,
                env.now,
                cat="placement",
                args={"bytes": nbytes},
            )

    def transfer(self, src: Endpoint, dst: Endpoint, nbytes: int):
        """Process generator: move ``nbytes`` from ``src`` to ``dst``.

        A plain dispatcher, not itself a generator: on-package pairs
        (and same-site pairs, whose local interconnect shares the NoC
        cost model) get the NoC's own generator back with no delegation
        frame wrapped around it — that keeps the pass-through fabric's
        per-transfer cost to two dict lookups. Cross-site transfers
        return the routed generator that bolts hop crossings around the
        NoC share of the journey.
        """
        placements = self._placements
        src_p = placements.get(src, Placement.ON_PACKAGE)
        dst_p = placements.get(dst, Placement.ON_PACKAGE)
        if src_p is dst_p:
            if src_p is not Placement.ON_PACKAGE:
                # Both endpoints at one off-package site: stay on the
                # site-local interconnect.
                self.local_site_transfers += 1
            return self.network.transfer(src, dst, nbytes)
        return self._routed(src, src_p, dst, dst_p, nbytes)

    def _routed(self, src, src_p, dst, dst_p, nbytes: int):
        """Process: a transfer with at least one off-package endpoint."""
        if src_p is not Placement.ON_PACKAGE:
            yield from self._cross(src_p, nbytes)
        yield from self.network.transfer(self._edge(src), self._edge(dst), nbytes)
        if dst_p is not Placement.ON_PACKAGE:
            yield from self._cross(dst_p, nbytes)

    # -- statistics ---------------------------------------------------------
    def in_flight(self, placement: Placement) -> float:
        """Instantaneous crossings in flight (incl. lane waits)."""
        tracker = self._in_flight.get(placement)
        return tracker.value if tracker is not None else 0.0

    def average_in_flight(self, placement: Placement) -> float:
        tracker = self._in_flight.get(placement)
        if tracker is None:
            return 0.0
        return tracker.average(self.env.now)

    def stats(self) -> Dict[str, object]:
        stats = dict(self.network.stats())
        stats["local_site_transfers"] = float(self.local_site_transfers)
        stats["hops"] = {
            placement.value: {
                "transfers": float(self.hop_transfers[placement]),
                "bytes": float(self.hop_bytes[placement]),
                "average_in_flight": self.average_in_flight(placement),
            }
            for placement in sorted(self._links, key=lambda p: p.value)
        }
        return stats

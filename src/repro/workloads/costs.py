"""Cost model: per-operation CPU times calibrated from Figure 1.

The paper models an accelerator as running computation C in
``cpu_time / speedup`` (Section VI). This module derives, for each
service, the *software* (CPU) time of each tax operation: the service's
per-category time (total time x Figure 1 fraction) divided by the
number of operations of that category along its most-common path. A
sampled payload's size scales the op time around the service's median
wire size. Processor generations scale AppLogic and tax differently
(Section VII.C.4).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..core.registry import TraceRegistry
from ..core.trace import ResolvedPath
from ..hw.ops import AccelOp
from ..hw.params import AcceleratorKind, ProcessorGeneration
from .calibration import TaxCategory
from .payloads import SIZE_FACTORS
from .spec import CATEGORY_OF_KIND, CpuSegment, ServiceSpec, count_ops_by_category

__all__ = ["CostModel"]


class CostModel:
    """Per-service operation costs, generation-aware.

    Queries read per-service tables built on first use and keyed on the
    service name: the base time of one op of each kind (the tax scale
    folded in), each kind's op row, the base-time tuple of each
    resolved path, and the AppLogic time of each CPU-segment weight. A
    table entry is computed with the same float operations, in the same
    order, as the formula it stands for: an op's time is
    ``base * size_scale`` and a chain's is ``sum`` of those terms, left
    to right.
    """

    #: Size scaling of an op's time relative to the median payload is
    #: clamped to this range (fixed per-op overheads dominate small
    #: messages; very large ones stream efficiently).
    MIN_SIZE_SCALE = 0.3
    MAX_SIZE_SCALE = 3.0

    def __init__(
        self,
        registry: TraceRegistry,
        generation: Optional[ProcessorGeneration] = None,
    ):
        self.registry = registry
        self.generation = generation
        self._tax_scale = generation.tax_scale if generation else 1.0
        self._app_scale = generation.app_logic_scale if generation else 1.0
        self._op_base: Dict[str, Dict[AcceleratorKind, float]] = {}
        #: service -> kind -> (base time, median wire size, input and
        #: output size factors): everything :meth:`op_for` reads.
        self._op_rows: Dict[
            str, Dict[AcceleratorKind, Tuple[float, float, float, float]]
        ] = {}
        self._path_base: Dict[Tuple[str, ResolvedPath], Tuple[float, ...]] = {}
        self._segment_ns: Dict[Tuple[str, float], float] = {}

    # -- calibration ------------------------------------------------------
    def _op_base_times(self, spec: ServiceSpec) -> Dict[AcceleratorKind, float]:
        """Base CPU time of one op of each kind for one service, at the
        median payload, with the generation's tax scale folded in."""
        table = self._op_base.get(spec.name)
        if table is None:
            counts = count_ops_by_category(self.registry, spec)
            per_op: Dict[str, float] = {}
            for category in TaxCategory.TAX:
                count = counts[category]
                category_ns = spec.category_time_ns(category)
                per_op[category] = category_ns / count if count else 0.0
            table = self._op_base[spec.name] = {
                kind: per_op[category] * self._tax_scale
                for kind, category in CATEGORY_OF_KIND.items()
            }
        return table

    # -- queries ------------------------------------------------------------
    def base_op_time_ns(self, spec: ServiceSpec, kind: AcceleratorKind) -> float:
        """Software time of one op of ``kind`` at the median payload."""
        return self._op_base_times(spec)[kind]

    def size_scale(self, spec: ServiceSpec, wire_size: int) -> float:
        ratio = wire_size / spec.wire_median_bytes
        return min(self.MAX_SIZE_SCALE, max(self.MIN_SIZE_SCALE, ratio))

    def op_for(
        self, spec: ServiceSpec, kind: AcceleratorKind, wire_size: int
    ) -> AccelOp:
        """Build the :class:`AccelOp` of one trace step.

        The time is ``base * size_scale(spec, wire_size)`` and the sizes
        are ``PayloadModel.sizes_for(kind, wire_size)``, both computed
        inline from the (service, kind) row.
        """
        rows = self._op_rows.get(spec.name)
        if rows is None:
            base_times = self._op_base_times(spec)
            median = spec.wire_median_bytes
            rows = self._op_rows[spec.name] = {
                each: (base_times[each], median, *SIZE_FACTORS[each])
                for each in base_times
            }
        base, median, in_factor, out_factor = rows[kind]
        scale = wire_size / median
        if scale < self.MIN_SIZE_SCALE:
            scale = self.MIN_SIZE_SCALE
        elif scale > self.MAX_SIZE_SCALE:
            scale = self.MAX_SIZE_SCALE
        data_in = int(wire_size * in_factor)
        if data_in < 1:
            data_in = 1
        data_out = int(wire_size * out_factor)
        if data_out < 1:
            data_out = 1
        return AccelOp(kind, base * scale, data_in, data_out)

    def cpu_segment_ns(self, spec: ServiceSpec, segment: CpuSegment) -> float:
        """AppLogic time of one CPU segment (generation-scaled)."""
        key = (spec.name, segment.weight)
        ns = self._segment_ns.get(key)
        if ns is None:
            ns = self._segment_ns[key] = spec.cpu_segment_ns(segment) * self._app_scale
        return ns

    def software_chain_ns(
        self, spec: ServiceSpec, kinds: Iterable[AcceleratorKind], wire_size: int
    ) -> float:
        """Software time of running a whole op sequence on a core
        (the CPU-fallback path; Non-acc prices whole resolved paths
        with :meth:`software_path_ns`)."""
        bases = self._op_base_times(spec)
        scale = self.size_scale(spec, wire_size)
        return sum([bases[kind] * scale for kind in kinds])

    def software_path_ns(
        self, spec: ServiceSpec, path: ResolvedPath, wire_size: int
    ) -> float:
        """:meth:`software_chain_ns` of ``path.kinds()``, read from a
        table keyed on the (memoized, shared) path object."""
        key = (spec.name, path)
        bases = self._path_base.get(key)
        if bases is None:
            table = self._op_base_times(spec)
            bases = self._path_base[key] = tuple(table[step.kind] for step in path.steps)
        scale = self.size_scale(spec, wire_size)
        return sum([base * scale for base in bases])

    def validate(self, spec: ServiceSpec) -> None:
        """Check the spec's time budget is fully attributable.

        A tax category with a nonzero Figure-1 fraction but zero
        operations on the most-common path would silently lose that
        share of the service's execution time.
        """
        counts = count_ops_by_category(self.registry, spec)
        for category in TaxCategory.TAX:
            if spec.fractions.get(category, 0.0) > 0.0 and counts[category] == 0:
                raise ValueError(
                    f"service {spec.name}: {category} has a time fraction but "
                    "no operations on the most-common path"
                )

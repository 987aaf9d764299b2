"""Output-dispatcher glue-instruction cost model (Section VII.B.2).

The output dispatcher of an accelerator is a small FSM executing
RISC-like instructions (Figure 8). The paper reports:

* ~15 instructions for the common case (no branch / end / transform),
* +7 instructions to resolve a branch condition,
* 12-20 instructions at end of trace (ATM read vs. DMA + notify),
* 12 instructions for a 2 KB data-format transformation,
* ~50 instructions worst case; 18 average across the services.

Instructions retire at one per cycle at the accelerator clock. The DTE
additionally streams the payload at scratchpad bandwidth for
transformations.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..hw.params import GHZ, cycles_to_ns
from .trace import ResolvedStep

__all__ = ["GlueCostModel"]


class GlueCostModel:
    """Instruction counts and timing for output-dispatcher operations."""

    BASE_INSTRUCTIONS = 15
    BRANCH_INSTRUCTIONS = 7
    END_ATM_INSTRUCTIONS = 12
    END_NOTIFY_INSTRUCTIONS = 20
    TRANSFORM_INSTRUCTIONS = 12
    #: The transform instruction count is quoted for 2 KB payloads; the
    #: DTE streams larger payloads at this bandwidth (bytes/ns).
    DTE_BYTES_PER_NS = 100.0

    def __init__(self, ghz: float = GHZ):
        self.ghz = ghz
        self.operations = 0
        self.total_instructions = 0
        self.branches_resolved = 0
        self.transforms_performed = 0
        self.atm_reads = 0
        self.notifies = 0
        #: step -> (instructions, their time in ns). Steps from
        #: ``Trace.resolve`` are shared and read-only, so this holds one
        #: row per step of the traces a server runs.
        self._per_step: Dict[ResolvedStep, Tuple[int, float]] = {}

    def _memoize(self, step: ResolvedStep) -> Tuple[int, float]:
        instructions = self.instructions_for(step)
        row = (instructions, cycles_to_ns(float(instructions), self.ghz))
        self._per_step[step] = row
        return row

    def instructions_for(self, step: ResolvedStep) -> int:
        """Instruction count of one output-dispatcher operation."""
        instructions = self.BASE_INSTRUCTIONS
        instructions += self.BRANCH_INSTRUCTIONS * step.branches_after
        instructions += self.TRANSFORM_INSTRUCTIONS * step.transforms_after
        if step.atm_read_after:
            instructions += self.END_ATM_INSTRUCTIONS
        if step.notify_after:
            instructions += self.END_NOTIFY_INSTRUCTIONS
        return instructions

    def record(self, step: ResolvedStep) -> int:
        """Account one dispatcher operation; returns its instructions."""
        try:
            instructions = self._per_step[step][0]
        except KeyError:
            instructions = self._memoize(step)[0]
        self.operations += 1
        self.total_instructions += instructions
        self.branches_resolved += step.branches_after
        self.transforms_performed += step.transforms_after
        if step.atm_read_after:
            self.atm_reads += 1
        if step.notify_after:
            self.notifies += 1
        return instructions

    def record_dispatch(self, step: ResolvedStep, payload_bytes: int) -> float:
        """Account one dispatcher operation and return its wall time:
        :meth:`record` and :meth:`dispatch_time_ns` in one call, the
        output dispatcher's per-op path. The two stay as the reference
        it is tested against."""
        try:
            instructions, time_ns = self._per_step[step]
        except KeyError:
            instructions, time_ns = self._memoize(step)
        self.operations += 1
        self.total_instructions += instructions
        self.branches_resolved += step.branches_after
        transforms = step.transforms_after
        self.transforms_performed += transforms
        if step.atm_read_after:
            self.atm_reads += 1
        if step.notify_after:
            self.notifies += 1
        if transforms:
            time_ns += transforms * payload_bytes / self.DTE_BYTES_PER_NS
        return time_ns

    def dispatch_time_ns(self, step: ResolvedStep, payload_bytes: int = 0) -> float:
        """Wall time of one dispatcher operation (instructions + DTE)."""
        try:
            time_ns = self._per_step[step][1]
        except KeyError:
            time_ns = self._memoize(step)[1]
        if step.transforms_after:
            time_ns += (
                step.transforms_after * payload_bytes / self.DTE_BYTES_PER_NS
            )
        return time_ns

    def average_instructions(self) -> float:
        """Average instructions per dispatcher operation (paper: ~18)."""
        if self.operations == 0:
            return 0.0
        return self.total_instructions / self.operations

    def stats(self) -> Dict[str, float]:
        return {
            "operations": float(self.operations),
            "total_instructions": float(self.total_instructions),
            "average_instructions": self.average_instructions(),
            "branches_resolved": float(self.branches_resolved),
            "transforms_performed": float(self.transforms_performed),
            "atm_reads": float(self.atm_reads),
            "notifies": float(self.notifies),
        }

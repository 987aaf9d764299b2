"""The non-accelerated baseline: every tax operation runs in software.

All TCP/crypto/RPC/(de)serialization/(de)compression/load-balancing
work executes on CPU cores at full software cost; the only
"orchestration" is ordinary function calls, which are free. This is the
``Non-acc`` system of Figures 11-16.
"""

from __future__ import annotations

from typing import Dict

from ..core.trace import ResolvedPath
from ..workloads.request import Request
from .base import Orchestrator

__all__ = ["NonAcceleratedOrchestrator"]


class NonAcceleratedOrchestrator(Orchestrator):
    """Software-only execution on the core pool."""

    name = "non-acc"
    uses_accelerators = False

    def execute_path(
        self,
        request: Request,
        path: ResolvedPath,
        state: Dict[str, bool],
        initiated_by_core: bool = False,
    ):
        steps = path.steps
        if not steps:
            return
        duration = self.cost_model.software_path_ns(
            request.spec, path, request.wire_size
        )
        yield from self._run_on_core(request, duration)
        request.accelerator_ops += len(steps)
        yield from self._fan_out(request, steps[-1].fanout, state)

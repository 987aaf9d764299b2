"""The Trace: a program over the accelerator ensemble, plus resolution.

A :class:`Trace` owns a list of :class:`~repro.core.nodes.TraceNode`
objects. Because every branch condition is a function of payload fields
fixed when a request is generated, a trace can be *resolved* against a
request's field state into a :class:`ResolvedPath`: the exact sequence
of accelerator steps that will execute, with the branch/transform/ATM
work each output dispatcher performs attached to the step that performs
it. Orchestrators execute resolved paths; the resolution work itself is
charged at the accelerators (on-the-fly semantics preserved).

Resolution is memoized per trace: a trace has at most one path per
combination of the fields its conditions read, so every request with
the same values of those fields gets the same, shared
:class:`ResolvedPath` object. Resolved paths and their steps are
therefore read-only once :meth:`Trace.resolve` returns them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hw.params import AcceleratorKind
from .nodes import (
    AccelStep,
    AtmLinkNode,
    BranchCondition,
    BranchNode,
    NotifyNode,
    ParallelNode,
    TraceNode,
    TraceValidationError,
    TransformNode,
)

__all__ = ["Trace", "ResolvedStep", "ResolvedPath"]


class ResolvedStep:
    """One accelerator invocation of a resolved path.

    The ``*_after`` fields describe the work this accelerator's *output
    dispatcher* does once the PE finishes (Figure 8): resolving branch
    conditions, transforming data formats, reading the next trace from
    the ATM, or notifying the initiating CPU core.

    Steps reached through :meth:`Trace.resolve` are shared by every
    request that takes the same path: never assign to them.
    """

    __slots__ = (
        "kind",
        "branches_after",
        "transforms_after",
        "atm_read_after",
        "notify_after",
        "error_notify",
        "fanout",
    )

    def __init__(self, kind: AcceleratorKind):
        self.kind = kind
        self.branches_after = 0
        self.transforms_after = 0
        self.atm_read_after = False
        self.notify_after = False
        self.error_notify = False
        self.fanout: List["ResolvedPath"] = []

    def __repr__(self) -> str:
        extras = []
        if self.branches_after:
            extras.append(f"br={self.branches_after}")
        if self.transforms_after:
            extras.append(f"tr={self.transforms_after}")
        if self.atm_read_after:
            extras.append("atm")
        if self.notify_after:
            extras.append("notify")
        if self.fanout:
            extras.append(f"fanout={len(self.fanout)}")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return f"<{self.kind.value}{suffix}>"


class ResolvedPath:
    """The concrete accelerator sequence a request will follow.

    Paths returned by :meth:`Trace.resolve` are memoized and shared:
    never assign to one or mutate its ``steps`` or fanout lists. Cost
    tables may key on a path object (see :class:`repro.workloads.CostModel`).
    """

    __slots__ = ("steps", "next_trace", "notified", "error")

    def __init__(
        self,
        steps: List[ResolvedStep],
        next_trace: Optional[str],
        notified: bool,
        error: bool,
    ):
        self.steps = steps
        #: Name of the follow-on trace (AtmLink tail), or None.
        self.next_trace = next_trace
        #: True when this path ends by notifying the CPU.
        self.notified = notified
        #: True when the notification reports an error to the user.
        self.error = error

    def kinds(self) -> List[AcceleratorKind]:
        """The accelerator kinds along the main path (fanout excluded)."""
        return [step.kind for step in self.steps]

    def total_accelerators(self) -> int:
        """All accelerator invocations including fanout arms."""
        total = 0
        for step in self.steps:
            total += 1
            for arm in step.fanout:
                total += arm.total_accelerators()
        return total

    def fanout_paths(self) -> List["ResolvedPath"]:
        paths = []
        for step in self.steps:
            paths.extend(step.fanout)
        return paths

    def __repr__(self) -> str:
        chain = "-".join(step.kind.value for step in self.steps)
        tail = f" ->ATM:{self.next_trace}" if self.next_trace else ""
        return f"ResolvedPath({chain}{tail})"


class Trace:
    """A named trace: sequence of accelerators with optional control flow."""

    def __init__(self, name: str, nodes: Sequence[TraceNode]):
        if not nodes:
            raise TraceValidationError(f"trace {name!r} has no nodes")
        if not isinstance(nodes[0], AccelStep):
            raise TraceValidationError(
                f"trace {name!r} must start with an accelerator step; branches "
                "and transforms are resolved by the previous accelerator"
            )
        self.name = name
        self.nodes: List[TraceNode] = list(nodes)
        self._validate(self.nodes, top_level=True)
        #: The payload fields any branch condition reads; their truth
        #: values are the key of the resolution memo.
        self._fields: Tuple[str, ...] = tuple(sorted(
            {field for cond in self._branch_conditions() for field in cond.fields}
        ))
        self._resolved: Dict[Tuple[bool, ...], ResolvedPath] = {}

    # -- validation --------------------------------------------------------
    def _validate(self, nodes: Sequence[TraceNode], top_level: bool) -> None:
        for index, node in enumerate(nodes):
            if isinstance(node, BranchNode):
                self._validate(node.on_true, top_level=False)
                self._validate(node.on_false, top_level=False)
            elif isinstance(node, ParallelNode):
                if index != len(nodes) - 1:
                    raise TraceValidationError(
                        f"trace {self.name!r}: a parallel fork must be terminal"
                    )
                critical_arms = 0
                for arm in node.arms:
                    if not arm:
                        raise TraceValidationError(
                            f"trace {self.name!r}: empty parallel arm"
                        )
                    self._validate(arm, top_level=False)
                    if self._arm_notifies(arm):
                        critical_arms += 1
                if critical_arms > 1:
                    raise TraceValidationError(
                        f"trace {self.name!r}: more than one parallel arm "
                        "notifies the CPU"
                    )
            elif isinstance(node, (AtmLinkNode, NotifyNode)):
                if index != len(nodes) - 1:
                    raise TraceValidationError(
                        f"trace {self.name!r}: {type(node).__name__} must be "
                        "the last node of its sequence"
                    )

    @staticmethod
    def _arm_notifies(arm: Sequence[TraceNode]) -> bool:
        return bool(arm) and isinstance(arm[-1], NotifyNode)

    # -- resolution ----------------------------------------------------------
    def resolve(self, state: Optional[Dict[str, bool]] = None) -> ResolvedPath:
        """Resolve control flow against a request's payload fields.

        Memoized on the truth of the fields the conditions read (a
        missing field reads as False, as in
        :meth:`~repro.core.nodes.BranchCondition.evaluate`): equal
        states return the same shared, read-only path.
        """
        state = state or {}
        key = tuple(map(bool, map(state.get, self._fields)))
        path = self._resolved.get(key)
        if path is not None:
            return path
        steps: List[ResolvedStep] = []
        path = ResolvedPath(steps, next_trace=None, notified=False, error=False)
        ended = self._walk(self.nodes, state, steps, path, attach=None)
        if not ended:
            # Implicit end of trace with no ATM address: the output
            # dispatcher deposits results and notifies the CPU core.
            steps[-1].notify_after = True
            path.notified = True
        self._resolved[key] = path
        return path

    def _walk(
        self,
        nodes: Sequence[TraceNode],
        state: Dict[str, bool],
        steps: List[ResolvedStep],
        path: ResolvedPath,
        attach: Optional[ResolvedStep],
    ) -> bool:
        """Append resolved steps; returns True if the trace ended.

        ``attach`` is the step that pays for branch/transform/ATM work
        occurring before any local accelerator step (used for parallel
        arms, whose leading control flow is resolved by the forking
        accelerator's output dispatcher).
        """

        def current_step() -> ResolvedStep:
            if steps:
                return steps[-1]
            if attach is not None:
                return attach
            raise TraceValidationError(
                f"trace {self.name!r}: control-flow node with no preceding "
                "accelerator to resolve it"
            )

        for node in nodes:
            if isinstance(node, AccelStep):
                steps.append(ResolvedStep(node.kind))
            elif isinstance(node, BranchNode):
                current_step().branches_after += 1
                taken = node.condition.evaluate(state)
                if self._walk(node.arm(taken), state, steps, path, attach):
                    return True
            elif isinstance(node, TransformNode):
                current_step().transforms_after += 1
            elif isinstance(node, ParallelNode):
                fork_origin = current_step()
                for arm in node.arms:
                    arm_steps: List[ResolvedStep] = []
                    arm_path = ResolvedPath(
                        arm_steps, next_trace=None, notified=False, error=False
                    )
                    arm_ended = self._walk(
                        arm, state, arm_steps, arm_path, attach=fork_origin
                    )
                    if not arm_ended and arm_steps:
                        arm_steps[-1].notify_after = True
                        arm_path.notified = True
                    fork_origin.fanout.append(arm_path)
                    if arm_path.notified:
                        path.notified = True
                        path.error = path.error or arm_path.error
                return True
            elif isinstance(node, AtmLinkNode):
                current_step().atm_read_after = True
                path.next_trace = node.next_trace
                return True
            elif isinstance(node, NotifyNode):
                target = current_step()
                target.notify_after = True
                target.error_notify = node.error
                path.notified = True
                path.error = node.error
                return True
            else:  # pragma: no cover - defensive
                raise TraceValidationError(f"unknown node type {type(node).__name__}")
        return False

    # -- static analysis -------------------------------------------------------
    def conditions(self) -> Set[str]:
        """Names of all branch conditions anywhere in the trace."""
        return {condition.name for condition in self._branch_conditions()}

    def _branch_conditions(self) -> Set[BranchCondition]:
        found: Set[BranchCondition] = set()
        self._collect_conditions(self.nodes, found)
        return found

    def _collect_conditions(
        self, nodes: Sequence[TraceNode], found: Set[BranchCondition]
    ) -> None:
        for node in nodes:
            if isinstance(node, BranchNode):
                found.add(node.condition)
                self._collect_conditions(node.on_true, found)
                self._collect_conditions(node.on_false, found)
            elif isinstance(node, ParallelNode):
                for arm in node.arms:
                    self._collect_conditions(arm, found)

    @property
    def has_branches(self) -> bool:
        return bool(self.conditions())

    def all_paths(self) -> List[Tuple[Dict[str, bool], ResolvedPath]]:
        """Every (state, resolved path) over the trace's conditions."""
        names = sorted(self.conditions())
        results = []
        for combo in itertools.product((False, True), repeat=len(names)):
            state = dict(zip(names, combo))
            results.append((state, self.resolve(state)))
        return results

    def accelerator_pairs(self) -> Set[Tuple[AcceleratorKind, AcceleratorKind]]:
        """All (src, dst) accelerator hand-offs over all paths (Table I)."""
        pairs: Set[Tuple[AcceleratorKind, AcceleratorKind]] = set()
        for _, path in self.all_paths():
            self._collect_pairs(path, pairs)
        return pairs

    def _collect_pairs(
        self,
        path: ResolvedPath,
        pairs: Set[Tuple[AcceleratorKind, AcceleratorKind]],
    ) -> None:
        kinds = path.kinds()
        pairs.update(zip(kinds, kinds[1:]))
        for step in path.steps:
            for arm in step.fanout:
                arm_kinds = arm.kinds()
                if arm_kinds:
                    pairs.add((step.kind, arm_kinds[0]))
                self._collect_pairs(arm, pairs)

    @property
    def first_kind(self) -> AcceleratorKind:
        """The accelerator a core Enqueues this trace into."""
        first = self.nodes[0]
        assert isinstance(first, AccelStep)
        return first.kind

    def max_accelerators(self) -> int:
        return max(path.total_accelerators() for _, path in self.all_paths())

    def linked_traces(self) -> Set[str]:
        """Names of traces this one can chain to through the ATM."""
        names: Set[str] = set()
        for _, path in self.all_paths():
            if path.next_trace:
                names.add(path.next_trace)
            for arm in path.fanout_paths():
                if arm.next_trace:
                    names.add(arm.next_trace)
        return names

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self.nodes)} nodes)"

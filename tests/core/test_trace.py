"""Unit tests for trace construction and resolution."""

import itertools

import pytest

from repro.core import (
    Trace,
    TraceRegistry,
    TraceValidationError,
    atm_link,
    branch,
    notify,
    parallel,
    seq,
    trans,
)
from repro.core.nodes import BranchNode, ParallelNode
from repro.core.templates import standard_trace_set
from repro.hw import AcceleratorKind
from repro.orchestration import LADDER_VARIANTS
from repro.server import RunConfig, run_experiment
from repro.workloads import social_network_services

K = AcceleratorKind


class TestConstruction:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace("empty", [])

    def test_must_start_with_accelerator(self):
        with pytest.raises(TraceValidationError):
            seq(branch("compressed", ["Dcmp"]), "LdB", name="bad")

    def test_notify_must_be_last(self):
        with pytest.raises(TraceValidationError):
            seq("TCP", notify(), "LdB", name="bad")

    def test_atm_link_must_be_last(self):
        with pytest.raises(TraceValidationError):
            seq("TCP", atm_link("T5"), "LdB", name="bad")

    def test_parallel_must_be_terminal(self):
        with pytest.raises(TraceValidationError):
            seq("TCP", parallel(["LdB"], ["Ser"]), "Encr", name="bad")

    def test_parallel_single_critical_arm_enforced(self):
        with pytest.raises(TraceValidationError):
            seq(
                "TCP",
                parallel(["LdB", notify()], ["Ser", notify()]),
                name="bad",
            )

    def test_empty_parallel_arm_rejected(self):
        with pytest.raises(TraceValidationError):
            seq("TCP", parallel([], ["LdB"]), name="bad")

    def test_first_kind(self):
        trace = seq("Ser", "Encr", "TCP", name="t")
        assert trace.first_kind == K.SER


class TestLinearResolution:
    def test_simple_chain(self):
        trace = seq("Ser", "RPC", "Encr", "TCP", name="t2")
        path = trace.resolve({})
        assert path.kinds() == [K.SER, K.RPC, K.ENCR, K.TCP]
        assert path.notified
        assert path.next_trace is None

    def test_implicit_notify_on_last_step(self):
        trace = seq("Ser", "TCP", name="t")
        path = trace.resolve({})
        assert path.steps[-1].notify_after
        assert not path.steps[0].notify_after

    def test_atm_tail_suppresses_notify(self):
        trace = seq("Ser", "Encr", "TCP", atm_link("T5"), name="t4")
        path = trace.resolve({})
        assert not path.notified
        assert path.next_trace == "T5"
        assert path.steps[-1].atm_read_after

    def test_total_accelerators(self):
        trace = seq("Ser", "Encr", "TCP", name="t")
        assert trace.resolve({}).total_accelerators() == 3


class TestBranchResolution:
    def make_t1_like(self):
        return seq(
            "TCP",
            "Decr",
            "RPC",
            "Dser",
            branch(
                "compressed",
                on_true=[trans("json", "string"), "Dcmp"],
                on_false=[],
            ),
            "LdB",
            name="t1",
        )

    def test_branch_taken_includes_dcmp(self):
        path = self.make_t1_like().resolve({"compressed": True})
        assert path.kinds() == [K.TCP, K.DECR, K.RPC, K.DSER, K.DCMP, K.LDB]

    def test_branch_not_taken_skips_dcmp(self):
        path = self.make_t1_like().resolve({"compressed": False})
        assert path.kinds() == [K.TCP, K.DECR, K.RPC, K.DSER, K.LDB]

    def test_branch_charged_to_previous_accelerator(self):
        path = self.make_t1_like().resolve({"compressed": True})
        dser = path.steps[3]
        assert dser.kind == K.DSER
        assert dser.branches_after == 1
        assert dser.transforms_after == 1  # json -> string before Dcmp

    def test_transform_skipped_when_branch_not_taken(self):
        path = self.make_t1_like().resolve({"compressed": False})
        dser = path.steps[3]
        assert dser.transforms_after == 0

    def test_divergent_arms(self):
        trace = seq(
            "TCP",
            "Dser",
            branch(
                "hit",
                on_true=["LdB", notify()],
                on_false=["Ser", "Encr", "TCP", atm_link("next")],
            ),
            name="t5-like",
        )
        hit = trace.resolve({"hit": True})
        assert hit.kinds() == [K.TCP, K.DSER, K.LDB]
        assert hit.notified and hit.next_trace is None
        miss = trace.resolve({"hit": False})
        assert miss.kinds() == [K.TCP, K.DSER, K.SER, K.ENCR, K.TCP]
        assert not miss.notified and miss.next_trace == "next"

    def test_nested_conditions_both_counted(self):
        trace = seq(
            "TCP",
            "Dser",
            branch("compressed", on_true=["Dcmp"], on_false=[]),
            branch("hit", on_true=["LdB", notify()], on_false=["Ser"]),
            name="double",
        )
        path = trace.resolve({"compressed": True, "hit": True})
        dser = path.steps[1]
        assert dser.branches_after == 1  # compressed resolved at Dser
        dcmp = path.steps[2]
        assert dcmp.branches_after == 1  # hit resolved at Dcmp

    def test_branch_with_no_preceding_accel_in_arm_ok(self):
        # Arm-local leading transform attaches to the accel before the branch.
        trace = seq(
            "Dser",
            branch("compressed", on_true=[trans("json", "string"), "Dcmp"]),
            name="t",
        )
        path = trace.resolve({"compressed": True})
        assert path.steps[0].transforms_after == 1


class TestParallelResolution:
    def make_t6_like(self):
        return seq(
            "TCP",
            "Dser",
            parallel(
                ["LdB", notify()],
                [
                    branch("c_compressed", on_true=["Cmp"], on_false=[]),
                    "Ser",
                    "TCP",
                    atm_link("T7"),
                ],
            ),
            name="t6-like",
        )

    def test_fanout_recorded_on_fork_origin(self):
        path = self.make_t6_like().resolve({})
        dser = path.steps[-1]
        assert dser.kind == K.DSER
        assert len(dser.fanout) == 2

    def test_critical_arm_notifies(self):
        path = self.make_t6_like().resolve({})
        arms = path.steps[-1].fanout
        assert arms[0].notified
        assert arms[0].kinds() == [K.LDB]

    def test_background_arm_links_to_t7(self):
        path = self.make_t6_like().resolve({"c_compressed": True})
        background = path.steps[-1].fanout[1]
        assert background.kinds() == [K.CMP, K.SER, K.TCP]
        assert background.next_trace == "T7"
        assert not background.notified

    def test_leading_branch_in_arm_charged_to_fork_origin(self):
        path = self.make_t6_like().resolve({})
        dser = path.steps[-1]
        assert dser.branches_after == 1  # c_compressed, resolved at Dser

    def test_total_accelerators_includes_fanout(self):
        path = self.make_t6_like().resolve({"c_compressed": True})
        # Main: TCP, Dser. Arms: LdB + (Cmp, Ser, TCP).
        assert path.total_accelerators() == 6

    def test_path_notified_via_critical_arm(self):
        assert self.make_t6_like().resolve({}).notified


class TestStaticAnalysis:
    def test_conditions_collected_recursively(self):
        trace = seq(
            "TCP",
            "Dser",
            branch("found", on_true=[], on_false=[atm_link("err")]),
            branch("compressed", on_true=["Dcmp"], on_false=[]),
            parallel(
                ["LdB", notify()],
                [branch("c_compressed", on_true=["Cmp"], on_false=[]), "Ser"],
            ),
            name="t",
        )
        assert trace.conditions() == {"found", "compressed", "c_compressed"}

    def test_has_branches(self):
        assert not seq("Ser", "TCP", name="t").has_branches
        assert seq("Ser", branch("hit", ["LdB"]), name="t").has_branches

    def test_all_paths_enumerates_combinations(self):
        trace = seq(
            "TCP",
            branch("compressed", on_true=["Dcmp"], on_false=[]),
            branch("hit", on_true=["LdB"], on_false=["Ser"]),
            name="t",
        )
        paths = trace.all_paths()
        assert len(paths) == 4
        kind_seqs = {tuple(k.value for k in p.kinds()) for _, p in paths}
        assert ("TCP", "Dcmp", "LdB") in kind_seqs
        assert ("TCP", "Ser") in kind_seqs

    def test_accelerator_pairs(self):
        trace = seq(
            "TCP",
            branch("compressed", on_true=["Dcmp"], on_false=[]),
            "LdB",
            name="t",
        )
        pairs = trace.accelerator_pairs()
        assert (K.TCP, K.DCMP) in pairs
        assert (K.DCMP, K.LDB) in pairs
        assert (K.TCP, K.LDB) in pairs  # not-compressed path

    def test_linked_traces(self):
        trace = seq(
            "TCP",
            branch("hit", on_true=["LdB", notify()], on_false=["Ser", atm_link("T6")]),
            name="t",
        )
        assert trace.linked_traces() == {"T6"}

    def test_max_accelerators(self):
        trace = seq(
            "TCP",
            branch("compressed", on_true=["Dcmp"], on_false=[]),
            "LdB",
            name="t",
        )
        assert trace.max_accelerators() == 3


# ---------------------------------------------------------------------------
# Memoized resolution
# ---------------------------------------------------------------------------


def _condition_fields(nodes):
    """Payload fields read by any branch condition under ``nodes``."""
    fields = set()
    for node in nodes:
        if isinstance(node, BranchNode):
            fields.update(node.condition.fields)
            fields |= _condition_fields(node.on_true)
            fields |= _condition_fields(node.on_false)
        elif isinstance(node, ParallelNode):
            for arm in node.arms:
                fields |= _condition_fields(arm)
    return fields


def _describe(path):
    """Everything a resolved path says, fanout arms included."""
    steps = tuple(
        (
            step.kind,
            step.branches_after,
            step.transforms_after,
            step.atm_read_after,
            step.notify_after,
            step.error_notify,
            tuple(_describe(arm) for arm in step.fanout),
        )
        for step in path.steps
    )
    return steps, path.next_trace, path.notified, path.error


def _catalogue():
    """The standard traces plus the subtraces the registry splits off."""
    traces = dict(standard_trace_set())
    for trace in TraceRegistry.with_standard_templates().traces():
        traces.setdefault(trace.name, trace)
    return sorted(traces.values(), key=lambda t: t.name)


def _field_states(fields):
    """Every combination of ``fields``, each in three spellings that
    must resolve alike: exact, with unrelated extra fields, and with
    the False fields left out."""
    for combo in itertools.product((False, True), repeat=len(fields)):
        exact = dict(zip(fields, combo))
        yield [
            exact,
            {**exact, "unrelated": True, "also_unrelated": False},
            {field: True for field, value in exact.items() if value},
        ]


class TestMemoizedResolution:
    @pytest.mark.parametrize("trace", _catalogue(), ids=lambda t: t.name)
    def test_matches_an_uncached_walk(self, trace):
        fields = sorted(_condition_fields(trace.nodes))
        for spellings in _field_states(fields):
            shared = trace.resolve(spellings[0])
            for state in spellings:
                # A fresh Trace has an empty memo, so it walks the nodes.
                walked = Trace(trace.name, trace.nodes).resolve(state)
                assert _describe(trace.resolve(state)) == _describe(walked)
                assert trace.resolve(state) is shared

    @pytest.mark.parametrize("trace", _catalogue(), ids=lambda t: t.name)
    def test_no_state_reads_every_field_as_false(self, trace):
        falses = {field: False for field in _condition_fields(trace.nodes)}
        assert trace.resolve() is trace.resolve({}) is trace.resolve(falses)

    def test_distinct_field_values_resolve_apart(self):
        trace = TestBranchResolution().make_t1_like()
        taken = trace.resolve({"compressed": True})
        skipped = trace.resolve({"compressed": False})
        assert taken is not skipped
        assert trace.resolve({"compressed": 1}) is taken

    def test_shared_paths_unchanged_by_every_architecture(self):
        """Resolved paths are shared and read-only: snapshot every path
        of every trace, run each orchestrator over one registry, and
        find every snapshot untouched."""
        registry = TraceRegistry.with_standard_templates()
        snapshot = {
            (trace.name, tuple(sorted(state.items()))): (path, _describe(path))
            for trace in registry.traces()
            for state, path in trace.all_paths()
        }
        architectures = [
            "accelflow", *sorted(LADDER_VARIANTS), "cohort", "cpu-centric",
            "non-acc",
        ]
        for architecture in architectures:
            result = run_experiment(
                social_network_services(),
                RunConfig(
                    architecture,
                    requests_per_service=12,
                    arrival_mode="poisson",
                    rate_rps=4000.0,
                    colocated=True,
                    registry=registry,
                ),
            )
            assert result.total_completed() > 0
        for trace in registry.traces():
            for state, path in trace.all_paths():
                key = (trace.name, tuple(sorted(state.items())))
                before, description = snapshot[key]
                assert path is before
                assert _describe(path) == description

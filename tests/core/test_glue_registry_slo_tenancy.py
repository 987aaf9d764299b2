"""Tests for glue costs, the trace registry and tenancy."""

import pytest

from repro.core import (
    GlueCostModel,
    TenantManager,
    TraceError,
    TraceRegistry,
    atm_link,
    seq,
    standard_trace_set,
)
from repro.core.trace import ResolvedStep
from repro.hw import AcceleratorKind

K = AcceleratorKind


class TestGlueCostModel:
    def test_plain_step_is_15_instructions(self):
        model = GlueCostModel()
        step = ResolvedStep(K.SER)
        assert model.instructions_for(step) == 15

    def test_branch_adds_seven(self):
        model = GlueCostModel()
        step = ResolvedStep(K.DSER)
        step.branches_after = 2
        assert model.instructions_for(step) == 15 + 14

    def test_transform_adds_twelve(self):
        model = GlueCostModel()
        step = ResolvedStep(K.DSER)
        step.transforms_after = 1
        assert model.instructions_for(step) == 27

    def test_end_of_trace_costs(self):
        model = GlueCostModel()
        atm_step = ResolvedStep(K.TCP)
        atm_step.atm_read_after = True
        assert model.instructions_for(atm_step) == 15 + 12
        notify_step = ResolvedStep(K.LDB)
        notify_step.notify_after = True
        assert model.instructions_for(notify_step) == 15 + 20

    def test_worst_case_about_fifty(self):
        model = GlueCostModel()
        step = ResolvedStep(K.DSER)
        step.branches_after = 1
        step.transforms_after = 1
        step.notify_after = True
        assert model.instructions_for(step) == 54  # "about 50" in the paper

    def test_average_accumulates(self):
        model = GlueCostModel()
        plain = ResolvedStep(K.SER)
        branchy = ResolvedStep(K.DSER)
        branchy.branches_after = 1
        model.record(plain)
        model.record(branchy)
        assert model.average_instructions() == pytest.approx((15 + 22) / 2)
        assert model.operations == 2
        assert model.branches_resolved == 1

    def test_dispatch_time_includes_dte_streaming(self):
        model = GlueCostModel()
        step = ResolvedStep(K.DSER)
        step.transforms_after = 1
        fast = model.dispatch_time_ns(step, payload_bytes=0)
        slow = model.dispatch_time_ns(step, payload_bytes=2048)
        assert slow > fast

    def test_stats_keys(self):
        model = GlueCostModel()
        model.record(ResolvedStep(K.SER))
        stats = model.stats()
        assert stats["operations"] == 1
        assert "average_instructions" in stats


class TestTraceRegistry:
    def test_register_and_get(self):
        registry = TraceRegistry()
        trace = seq("Ser", "TCP", name="mine")
        registry.register(trace)
        assert registry.get("mine") is trace
        assert "mine" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = TraceRegistry()
        registry.register(seq("Ser", name="x"))
        with pytest.raises(TraceError):
            registry.register(seq("TCP", name="x"))

    def test_unknown_lookup_raises(self):
        with pytest.raises(TraceError):
            TraceRegistry().get("nope")

    def test_standard_templates_preloaded(self):
        registry = TraceRegistry.with_standard_templates()
        assert "T1" in registry
        assert len(registry) == len(standard_trace_set())

    def test_validate_closed_catches_dangling_link(self):
        registry = TraceRegistry()
        registry.register(seq("Ser", "TCP", atm_link("ghost"), name="a"))
        with pytest.raises(TraceError):
            registry.validate_closed()

    def test_long_trace_auto_split(self):
        from repro.core.nodes import AccelStep
        from repro.core.trace import Trace

        registry = TraceRegistry()
        long_trace = Trace("huge", [AccelStep(K.SER) for _ in range(30)])
        registry.register(long_trace)
        assert "huge" in registry
        assert "huge#1" in registry
        registry.validate_closed()

    def test_name_table_covers_all(self):
        registry = TraceRegistry.with_standard_templates()
        table = registry.name_table()
        assert len(table) == len(registry)


class TestTenantManager:
    def test_limit_positive(self):
        with pytest.raises(ValueError):
            TenantManager(0)

    def test_limit_enforced(self):
        manager = TenantManager(limit=2)
        assert manager.try_start(1)
        assert manager.try_start(1)
        assert not manager.try_start(1)
        assert manager.throttled == 1

    def test_end_releases_slot(self):
        manager = TenantManager(limit=1)
        assert manager.try_start(5)
        manager.end(5)
        assert manager.try_start(5)

    def test_tenants_independent(self):
        manager = TenantManager(limit=1)
        assert manager.try_start(1)
        assert manager.try_start(2)
        assert manager.active_tenants == 2

    def test_end_without_start_rejected(self):
        with pytest.raises(ValueError):
            TenantManager(1).end(9)

    def test_stats(self):
        manager = TenantManager(limit=3)
        manager.try_start(1)
        stats = manager.stats()
        assert stats["started"] == 1
        assert stats["limit"] == 3

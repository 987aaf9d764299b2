"""FaultConfig: the zero config is inert, bad knobs are rejected."""

import dataclasses

import pytest

from repro.faults import FaultConfig


def test_default_config_is_disabled():
    assert not FaultConfig().enabled


@pytest.mark.parametrize(
    "field, value",
    [
        ("pe_transient_rate", 0.1),
        ("pe_wedge_rate", 0.01),
        ("pe_stuck_mtbf_ns", 1e6),
        ("dma_stall_rate", 0.2),
        ("dma_corruption_rate", 0.01),
        ("noc_flap_interval_ns", 1e6),
        ("noc_degraded_factor", 1.5),
        ("manager_outage_interval_ns", 1e6),
        ("gray_limp_probability", 0.3),
        ("gray_slowdown_interval_ns", 1e6),
    ],
)
def test_any_fault_source_enables(field, value):
    assert dataclasses.replace(FaultConfig(), **{field: value}).enabled


@pytest.mark.parametrize(
    "field, value",
    [
        ("gray_limp_probability", 0.3),
        ("gray_slowdown_interval_ns", 1e6),
    ],
)
def test_gray_sources_set_gray_enabled(field, value):
    assert dataclasses.replace(FaultConfig(), **{field: value}).gray_enabled
    assert not FaultConfig().gray_enabled


def test_gray_factors_without_triggers_do_not_enable():
    config = FaultConfig(
        gray_limp_factor=9.0,
        gray_slowdown_factor=9.0,
        gray_slowdown_kind="TCP",
    )
    assert not config.gray_enabled
    assert not config.enabled


def test_recovery_knobs_alone_do_not_enable():
    config = FaultConfig(watchdog_timeout_ns=1e5, step_max_retries=7)
    assert not config.enabled


def test_retry_budget_knobs_alone_do_not_enable():
    config = FaultConfig(
        retry_budget_tokens=50.0, retry_budget_refill_per_s=1000.0
    )
    assert not config.enabled


@pytest.mark.parametrize(
    "field, value",
    [
        ("pe_transient_rate", -0.1),
        ("pe_transient_rate", 1.5),
        ("pe_wedge_rate", 2.0),
        ("dma_stall_rate", -1.0),
        ("dma_corruption_rate", 7.0),
        ("noc_degraded_factor", 0.5),
        ("step_max_retries", -1),
        ("watchdog_timeout_ns", 0.0),
        ("gray_limp_probability", -0.1),
        ("gray_limp_probability", 1.5),
        ("gray_limp_factor", 0.5),
        ("gray_slowdown_interval_ns", -1e6),
        ("gray_slowdown_ns", -1.0),
        ("gray_slowdown_factor", 0.9),
        ("backoff_base_ns", -10.0),
        ("breaker_window_ns", -1.0),
        ("retry_budget_tokens", -1.0),
        ("retry_budget_refill_per_s", -100.0),
    ],
)
def test_validate_rejects_bad_knobs(field, value):
    config = dataclasses.replace(FaultConfig(), **{field: value})
    with pytest.raises(ValueError):
        config.validate()


def test_rejection_messages_name_the_knob():
    """Actionable errors: the message carries the field and the value."""
    with pytest.raises(ValueError, match="gray_limp_probability"):
        FaultConfig(gray_limp_probability=-0.5).validate()
    with pytest.raises(ValueError, match="gray_slowdown_interval_ns"):
        FaultConfig(gray_slowdown_interval_ns=-2.0).validate()


def test_default_config_validates():
    FaultConfig().validate()

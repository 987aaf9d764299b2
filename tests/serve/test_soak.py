"""Soak runner: the wall-clock acceptance smoke.

The slow test sustains open-loop load on a 2-machine fleet for at least
two wall-clock seconds with the live dashboard attached — the ISSUE's
acceptance criterion for the serving façade.
"""

import asyncio
import io
import time

import pytest

from repro.serve.replay import build_serving_stack, pick_services
from repro.serve.soak import SoakConfig, run_soak


def test_soak_requires_a_paced_clock():
    services = pick_services("UniqId")
    facade = build_serving_stack(services, dilation=float("inf"))
    with pytest.raises(ValueError, match="finite dilation"):
        asyncio.run(run_soak(services, facade))


@pytest.mark.slow
def test_soak_smoke_sustains_two_wall_seconds():
    services = pick_services("UniqId,CPost")
    facade = build_serving_stack(
        services, machines=2, seed=0, dilation=5.0, admission="shed"
    )
    config = SoakConfig(
        wall_seconds=2.1,
        dilation=5.0,
        refresh_wall_s=0.5,
        rate_rps=300.0,
        drain_ns=50e6,
    )
    out = io.StringIO()
    start = time.monotonic()
    # Bounded: a soak that stops handing control back to the loop must
    # fail here, not hang the suite.
    scorecard = asyncio.run(
        asyncio.wait_for(run_soak(services, facade, config, out=out), 60.0)
    )
    wall = time.monotonic() - start

    # The fleet was driven for the full wall-clock window.
    assert wall >= 2.0
    assert scorecard["pacing"]["wall_elapsed_s"] >= 2.0
    assert scorecard["pacing"]["paced"] is True

    # Load actually flowed and resolved.
    assert scorecard["submitted"] > 0
    assert scorecard["ok"] > 0
    assert scorecard["submitted"] == len(facade.responses)
    assert not facade._waiters  # nothing left hanging after the drain

    # The live dashboard refreshed during the run and closed with a
    # final snapshot riding on the scorecard.
    assert "fleet telemetry" in out.getvalue()
    assert "fleet telemetry" in scorecard["dashboard"]
    assert "Soak scorecard" in scorecard["table"]
    assert "Achieved RPS" in scorecard["table"]

"""Where an ``Interrupt`` lands on the step path, and what it leaves behind.

Two interrupts reach a request's dispatch path:

* the dispatch **watchdog** interrupts the child process that runs one
  attempt; the attempt abandons its entry, whose PE still runs it to
  the end and whose output slot is freed when it does;
* a **machine failure** interrupts the request process while it waits
  on its ``run_chain`` child; the orphaned chain runs to completion.

Changing the process structure of the step path (for instance running
``run_chain`` inline) moves where the second interrupt lands, so that
change must update these assertions on purpose. ``CHAOS_SEED`` rotates
the seed in CI.
"""

import os

import pytest

from repro.faults import FaultConfig
from repro.server import SimulatedServer
from repro.sim import Interrupt, Process
from repro.workloads import social_network_services

SEED = int(os.environ.get("CHAOS_SEED", "0"))

UNIQ_ID = next(s for s in social_network_services() if s.name == "UniqId")


def assert_hardware_drained(server):
    for accel in server.hardware.all_accelerators():
        assert len(accel.output_queue.items) == 0, accel.kind
        assert len(accel._free_pes.items) == len(accel.pes), accel.kind


def test_watchdog_interrupt_abandons_the_attempt_not_the_request():
    server = SimulatedServer(
        "accelflow",
        faults=FaultConfig(
            pe_wedge_rate=1.0,
            pe_wedge_ns=1e6,
            watchdog_timeout_ns=1e5,
            backoff_base_ns=100.0,
        ),
        seed=SEED,
    )
    request = server.make_request(UNIQ_ID)
    proc = server.submit(request)
    server.env.run()
    assert proc.ok
    assert request.fell_back
    recovery = server.orchestrator.recovery
    assert recovery.watchdog_timeouts > 0
    # Every abandoned attempt's entry still ran on its wedged PE.
    ops = sum(a.ops_completed for a in server.hardware.all_accelerators())
    assert ops == recovery.watchdog_timeouts + request.accelerator_ops
    assert_hardware_drained(server)


def test_machine_failure_interrupt_orphans_the_running_chain():
    server = SimulatedServer("accelflow", seed=SEED)
    env = server.env
    request = server.make_request(UNIQ_ID)
    proc = server.submit(request)
    while not (isinstance(proc.target, Process) and proc.target.name == "run_chain"):
        env.step()
    chain = proc.target
    ops_at_failure = request.accelerator_ops
    proc.interrupt("machine-failure")
    with pytest.raises(Interrupt):
        env.run()
    assert not proc.ok
    assert isinstance(proc.value, Interrupt)
    env.run()
    # The interrupt never reached the chain: it ran to its end.
    assert chain.ok
    assert request.accelerator_ops > ops_at_failure
    assert_hardware_drained(server)

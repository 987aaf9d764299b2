"""AccelFlow reproduction: orchestrating an on-package ensemble of
fine-grained accelerators for microservices (HPCA 2026).

Public API layers:

* :mod:`repro.sim` — discrete-event simulation kernel.
* :mod:`repro.hw` — hardware models (accelerators, NoC, DMA, CPU, ...).
* :mod:`repro.core` — the trace abstraction (the paper's contribution).
* :mod:`repro.workloads` — service models, costs, arrival processes.
* :mod:`repro.orchestration` — the five architectures + ablations.
* :mod:`repro.server` — server assembly, driver, metrics.
* :mod:`repro.experiments` — per-figure/table reproduction harness.

Quick start::

    from repro.core import seq, branch, trans
    from repro.server import SimulatedServer
    from repro.workloads import social_network_services

    trace = seq("TCP", "Decr", "RPC", "Dser",
                branch("compressed", [trans("json", "string"), "Dcmp"]),
                "LdB", name="func_req")

    server = SimulatedServer("accelflow")
    spec = social_network_services()[0]
    request = server.make_request(spec)
    server.env.run(until=server.submit(request))
    print(request.latency_ns)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ARCHITECTURES",
    "AcceleratorKind",
    "MachineParams",
    "RunConfig",
    "ServiceSpec",
    "SimulatedServer",
    "Trace",
    "TraceRegistry",
    "branch",
    "make_orchestrator",
    "max_throughput_search",
    "notify",
    "parallel",
    "run_experiment",
    "run_unloaded",
    "seq",
    "social_network_services",
    "trans",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "Trace", "TraceRegistry", "branch", "notify", "parallel", "seq", "trans",
    ),
    ".hw": ("AcceleratorKind", "MachineParams"),
    ".orchestration": ("ARCHITECTURES", "make_orchestrator"),
    ".server": (
        "RunConfig",
        "SimulatedServer",
        "max_throughput_search",
        "run_experiment",
        "run_unloaded",
    ),
    ".workloads": ("ServiceSpec", "social_network_services"),
})

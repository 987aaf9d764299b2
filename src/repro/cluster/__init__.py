"""Fleet-scale simulation: many servers behind a load balancer.

The paper evaluates AccelFlow on one 36-core server; this package
models the datacenter context that motivates it — a fleet of such
servers sharing one event calendar, fronted by pluggable balancing
policies (including an accelerator-occupancy-aware one in the spirit of
the paper's LdB-backed dispatchers), SLO-aware admission control, a
health plane that ejects lame-duck machines, machine-failure injection
with rerouting, and an optional fluid tier that absorbs chosen
machines' load analytically. See ``docs/tutorial.md`` ("Cluster
simulation") and the ``fig_cluster`` experiment.
"""

from .._lazy import lazy_exports

__all__ = [
    "PROPORTIONAL",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BALANCER_POLICIES",
    "POLICY_ORDER",
    "AcceleratorAwareBalancer",
    "ClusterConfig",
    "ClusterMachine",
    "ClusterResult",
    "FLUID_TOLERANCES",
    "FluidConfig",
    "FluidTier",
    "HealthConfig",
    "HealthMonitor",
    "HealthState",
    "MachineHealth",
    "LeastOutstandingBalancer",
    "LoadBalancer",
    "MachineFailure",
    "MachineState",
    "PowerOfTwoBalancer",
    "RequestStatus",
    "RoundRobinBalancer",
    "SimulatedCluster",
    "fold_cluster_result",
    "make_balancer",
    "run_cluster",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".admission": (
        "PROPORTIONAL", "AdmissionConfig", "AdmissionController", "AdmissionDecision",
    ),
    ".balancer": (
        "BALANCER_POLICIES",
        "POLICY_ORDER",
        "AcceleratorAwareBalancer",
        "LeastOutstandingBalancer",
        "LoadBalancer",
        "PowerOfTwoBalancer",
        "RoundRobinBalancer",
        "make_balancer",
    ),
    ".cluster": ("MachineFailure", "RequestStatus", "SimulatedCluster"),
    ".driver": ("ClusterConfig", "ClusterResult", "fold_cluster_result", "run_cluster"),
    ".fluid": ("FLUID_TOLERANCES", "FluidConfig", "FluidTier"),
    ".health": ("HealthConfig", "HealthMonitor", "HealthState", "MachineHealth"),
    ".machine": ("ClusterMachine", "MachineState"),
})

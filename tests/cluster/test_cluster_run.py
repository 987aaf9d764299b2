"""End-to-end cluster runs: completeness, determinism, policy ordering."""

import pytest

from repro.cluster import ClusterConfig, POLICY_ORDER, run_cluster
from repro.experiments.fig_cluster import GENERATIONS, MACHINES, SERVICES
from repro.sim import derive_seed
from repro.workloads import social_network_services

ALL_SERVICES = {s.name: s for s in social_network_services()}


def services(*names):
    return [ALL_SERVICES[name] for name in names]


class TestSmoke:
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_every_policy_completes_every_request(self, policy):
        config = ClusterConfig(
            policy=policy,
            machines=3,
            requests_per_service=40,
            rate_rps=30000.0,
            seed=0,
        )
        result = run_cluster(services("UniqId", "StoreP"), config)
        assert result.arrivals == 80
        assert result.completed == 80
        assert result.lost == 0 and result.total_censored() == 0
        assert result.p99_ns() > 0

    def test_machines_share_one_environment(self):
        config = ClusterConfig(machines=3, requests_per_service=5,
                               rate_rps=10000.0, seed=0)
        result = run_cluster(services("UniqId"), config)
        cluster = result.cluster
        assert len({id(m.server.env) for m in cluster.machines}) == 1
        assert cluster.machines[0].server.env is cluster.env

    def test_profile_kernel_profiles_the_fleet(self):
        from repro.obs import ObsConfig

        config = ClusterConfig(machines=2, requests_per_service=5,
                               rate_rps=10000.0, seed=0,
                               obs=ObsConfig(profile_kernel=True))
        result = run_cluster(services("UniqId"), config)
        profile = result.cluster.env.profile
        assert profile is not None
        assert 0 < profile.events <= result.cluster.env.scheduled_events
        assert config.obs.sessions[-1].env is result.cluster.env

    def test_work_spreads_across_the_fleet(self):
        config = ClusterConfig(policy="round-robin", machines=3,
                               requests_per_service=30, rate_rps=30000.0,
                               seed=0)
        result = run_cluster(services("UniqId", "Login"), config)
        dispatched = [m["dispatched"] for m in result.machine_stats]
        assert all(d > 0 for d in dispatched)
        assert sum(dispatched) == result.completed

    def test_heterogeneous_fleet_cycles_generations(self):
        config = ClusterConfig(machines=3, generations=("haswell", "icelake"))
        assert config.machine_params_for(0).generation.name == "haswell"
        assert config.machine_params_for(1).generation.name == "icelake"
        assert config.machine_params_for(2).generation.name == "haswell"


class TestDeterminism:
    def _run(self):
        config = ClusterConfig(
            policy="power-of-two",
            machines=3,
            generations=GENERATIONS,
            requests_per_service=40,
            rate_rps=50000.0,
            arrival_mode="mmpp",
            seed=7,
        )
        return run_cluster(services(*SERVICES), config)

    def test_identical_config_identical_results(self):
        first, second = self._run(), self._run()
        assert first.p99_ns() == second.p99_ns()
        assert first.mean_ns() == second.mean_ns()
        assert first.elapsed_ns == second.elapsed_ns
        assert first.machine_stats == second.machine_stats

    def test_common_random_numbers_across_policies(self):
        """Same seed, different policy: identical request sequences.

        The front door samples request bodies from cluster-level
        streams, so runs that differ only in the balancing policy see
        the same arrivals — the comparison isolates routing.
        """
        from repro.cluster import SimulatedCluster

        def sample(policy):
            cluster = SimulatedCluster(
                ClusterConfig(policy=policy, machines=2, seed=5)
            )
            spec = ALL_SERVICES["StoreP"]
            return tuple(
                (cluster.make_request(spec).wire_size,
                 tuple(sorted(cluster.make_request(spec).state.items())))
                for _ in range(20)
            )

        samples = {sample(policy) for policy in POLICY_ORDER}
        assert len(samples) == 1


class TestPolicyOrdering:
    def test_occupancy_aware_policies_beat_round_robin_under_bursts(self):
        """The fig_cluster acceptance claim, at its deepest load point.

        On a heterogeneous fleet near saturation under MMPP bursts,
        accel-aware and power-of-two routing must both produce a lower
        fleet P99 than state-blind round-robin.
        """
        load = 80000.0
        p99 = {}
        for policy in ("round-robin", "power-of-two", "accel-aware"):
            config = ClusterConfig(
                policy=policy,
                machines=MACHINES,
                generations=GENERATIONS,
                requests_per_service=200,
                seed=derive_seed(0, "fig_cluster", load),
                arrival_mode="mmpp",
                rate_rps=load,
            )
            result = run_cluster(services(*SERVICES), config)
            assert result.completed == result.arrivals
            p99[policy] = result.p99_ns()
        assert p99["power-of-two"] < p99["round-robin"]
        assert p99["accel-aware"] < p99["round-robin"]

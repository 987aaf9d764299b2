"""Statistical sanity of the arrival generators.

The latency results are only as credible as the load that produces
them, so the generators' *empirical* rates are checked against their
nominal configuration over long seeded streams (deterministic: the
tolerances cannot flake).
"""

import statistics

from repro.sim import RandomStreams
from repro.workloads import make_arrivals
from repro.workloads.arrivals import MmppArrivals, PoissonArrivals

SECOND_NS = 1e9


def stream(name="arrivals", seed=1234):
    return RandomStreams(seed).stream(name)


def empirical_rate_rps(arrivals, count):
    total_ns = sum(arrivals.gaps(count))
    return count / (total_ns / SECOND_NS)


class TestPoissonRate:
    def test_empirical_rate_matches_nominal(self):
        for rate in (1000.0, 20000.0, 500000.0):
            arrivals = PoissonArrivals(rate, stream(seed=42))
            observed = empirical_rate_rps(arrivals, 20000)
            assert abs(observed - rate) / rate < 0.03

    def test_gap_cv_is_one(self):
        """Exponential gaps: the coefficient of variation is ~1."""
        arrivals = PoissonArrivals(50000.0, stream(seed=7))
        gaps = list(arrivals.gaps(20000))
        cv = statistics.stdev(gaps) / statistics.mean(gaps)
        assert 0.95 < cv < 1.05

    def test_seeded_stream_is_deterministic(self):
        first = list(PoissonArrivals(1000.0, stream(seed=9)).gaps(100))
        second = list(PoissonArrivals(1000.0, stream(seed=9)).gaps(100))
        assert first == second


class TestMmppRate:
    def test_state_weighted_rate_solves_to_nominal(self):
        """calm/burst rates satisfy the time-weighted average exactly."""
        for factor, share in ((4.0, 0.15), (10.0, 0.06), (2.0, 0.5)):
            mmpp = MmppArrivals(
                30000.0, stream(), burst_factor=factor, burst_share=share
            )
            weighted = mmpp.calm_rate * (1 - share) + mmpp.burst_rate * share
            assert abs(weighted - 30000.0) < 1e-6
            assert mmpp.burst_rate == mmpp.calm_rate * factor

    def test_empirical_average_rate_matches_nominal(self):
        # Long horizon: many regime dwells (mean dwell 20 ms, rate
        # 50K -> 100K arrivals span ~2 s, ~100 dwells).
        rate = 50000.0
        mmpp = MmppArrivals(rate, stream(seed=3), burst_factor=5.0,
                            burst_share=0.10)
        observed = empirical_rate_rps(mmpp, 100000)
        assert abs(observed - rate) / rate < 0.10

    def test_burst_state_is_actually_faster(self):
        mmpp = MmppArrivals(10000.0, stream(seed=11), burst_factor=8.0,
                            burst_share=0.2, mean_dwell_ns=5e6)
        calm_gaps, burst_gaps = [], []
        for _ in range(50000):
            in_burst = mmpp.in_burst
            gap = mmpp.next_gap_ns()
            (burst_gaps if in_burst else calm_gaps).append(gap)
        assert calm_gaps and burst_gaps
        # Regime-attributed mean gaps differ by roughly the factor.
        ratio = statistics.mean(calm_gaps) / statistics.mean(burst_gaps)
        assert ratio > 3.0

    def test_overdispersed_relative_to_poisson(self):
        """MMPP gap CV must exceed the exponential's CV of 1."""
        mmpp = MmppArrivals(50000.0, stream(seed=5), burst_factor=10.0,
                            burst_share=0.06)
        gaps = list(mmpp.gaps(50000))
        cv = statistics.stdev(gaps) / statistics.mean(gaps)
        assert cv > 1.05

    def test_seeded_stream_is_deterministic(self):
        def draw():
            return list(
                MmppArrivals(20000.0, stream(seed=21), burst_factor=6.0,
                             burst_share=0.15, mean_dwell_ns=2e6).gaps(500)
            )

        assert draw() == draw()


class TestFactory:
    def test_named_modes(self):
        poisson = make_arrivals("poisson", 1000.0, stream())
        assert isinstance(poisson, PoissonArrivals)
        alibaba = make_arrivals("alibaba", 1000.0, stream())
        assert isinstance(alibaba, MmppArrivals)
        assert alibaba.burst_factor == 5.0
        azure = make_arrivals("azure", 1000.0, stream())
        assert azure.burst_factor == 10.0

    def test_mmpp_mode_is_one_named_shape(self):
        mmpp = make_arrivals("mmpp", 1000.0, stream())
        assert isinstance(mmpp, MmppArrivals)
        assert mmpp.burst_factor == 6.0
        assert mmpp.burst_share == 0.15
        assert mmpp.mean_dwell_ns == 2e6

    def test_unknown_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown arrival mode"):
            make_arrivals("fractal", 1000.0, stream())

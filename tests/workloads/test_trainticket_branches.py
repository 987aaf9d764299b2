"""Tests for the Train Ticket suite and the branch-statistics analysis."""


from repro.core import TraceRegistry
from repro.experiments import char_branches
from repro.workloads import CostModel, total_accelerators, train_ticket_services

REGISTRY = TraceRegistry.with_standard_templates()


class TestTrainTicketSuite:
    def test_six_services(self):
        assert len(train_ticket_services()) == 6

    def test_specs_are_consistent(self):
        model = CostModel(REGISTRY)
        for spec in train_ticket_services():
            model.validate(spec)
            assert total_accelerators(REGISTRY, spec) > 0

    def test_services_run_end_to_end(self):
        from repro.server import run_unloaded

        spec = train_ticket_services()[0]
        result = run_unloaded("accelflow", spec, requests=5)
        assert result.completed == 5


class TestBranchStatistics:
    def test_covers_all_four_suites(self):
        result = char_branches.run()
        assert set(result["shares"]) == {
            "socialnetwork",
            "hotel",
            "media",
            "trainticket",
        }

    def test_majority_of_chains_conditional(self):
        """The paper's Q2 takeaway: most accelerator sequences carry at
        least one conditional, so interrupting a CPU per branch would be
        ruinous."""
        result = char_branches.run()
        for suite, share in result["shares"].items():
            assert 0.5 < share <= 1.0, suite

    def test_shares_near_paper_band(self):
        result = char_branches.run()
        for suite, share in result["shares"].items():
            paper = char_branches.PAPER_CONDITIONAL_SHARE[suite]
            assert abs(share - paper) < 0.25, (suite, share, paper)

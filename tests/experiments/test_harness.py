"""Tests for the experiment harness plumbing and the cheap experiments.

The heavy simulations are exercised by ``benchmarks/``; here we cover
the harness machinery (registry, CLI, formatting, scales) plus the
experiments that are static or near-instant.
"""

import pytest

from repro.experiments import EXPERIMENTS, SCALES
from repro.experiments import common, fig05_datasizes, table1_connectivity
from repro.experiments import table2_traces, table4_paths
from repro.experiments.runner import main


class TestRegistry:
    def test_every_figure_and_table_has_an_entry(self):
        for name in ("fig1", "fig3", "fig5", "fig11", "fig12", "fig13",
                     "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
                     "fig20", "table1", "table2", "table4",
                     "sens-interchiplet", "sens-speedups", "char-glue",
                     "char-utilization", "char-energy", "char-events",
                     "char-branches"):
            assert name in EXPERIMENTS

    def test_scales(self):
        assert set(SCALES) == {"smoke", "quick", "full"}
        assert SCALES["smoke"] < SCALES["quick"] < SCALES["full"]

    def test_requests_for_unknown_scale(self):
        with pytest.raises(ValueError):
            common.requests_for("enormous")


class TestFormatting:
    def test_format_table_alignment(self):
        table = common.format_table(
            ["a", "long-header"], [["x", 1.0], ["longer-cell", 12345.6]]
        )
        lines = table.splitlines()
        # Lines are rstripped (trailing padding breaks snapshot diffs) ...
        assert all(line == line.rstrip() for line in lines)
        # ... but interior columns still align: every second-column cell
        # starts at the same offset.
        cell_rows = [
            line for line in lines if line and not set(line) <= {"-", " "}
        ]
        starts = {line.index(line.split(None, 1)[1]) for line in cell_rows}
        assert len(starts) == 1

    def test_pct_reduction(self):
        assert common.pct_reduction(100.0, 25.0) == pytest.approx(75.0)
        assert common.pct_reduction(0.0, 10.0) == 0.0

    @pytest.mark.parametrize(
        "change, digits, text",
        [
            (-51.64, 1, "-51.6%"),
            (1.0, 1, "+1.0%"),
            (-(-1.0), 1, "+1.0%"),  # a negative reduction, not "--1.0%"
            (0.0, 1, "+0.0%"),
            (-0.0, 1, "+0.0%"),
            (-0.04, 1, "+0.0%"),
            (-0.04, 2, "-0.04%"),
            (-0.004, 2, "+0.00%"),
        ],
    )
    def test_signed_pct_prints_exactly_one_sign(self, change, digits, text):
        assert common.signed_pct(change, digits=digits) == text


class TestCheapExperiments:
    def test_table4_exact_reproduction(self):
        result = table4_paths.run()
        assert all(entry["match"] for entry in result["services"].values())

    def test_table2_catalogue_closed(self):
        result = table2_traces.run()
        assert all(e["fits_8_bytes"] for e in result["traces"].values())

    def test_table1_flexible_connectivity(self):
        result = table1_connectivity.run()
        dser = result["connectivity"]["Dser"]
        assert len(dser["destinations"]) >= 3  # Ser, Dcmp, LdB, ...

    def test_fig5_sizes_sane(self):
        result = fig05_datasizes.run()
        for entry in result["sizes"].values():
            assert entry["in"]["min"] <= entry["in"]["median"] <= entry["in"]["max"]


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "table4" in out

    def test_unknown_experiment(self, capsys):
        assert main(["warp-figure"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_single_experiment(self, capsys):
        assert main(["table4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "completed in" in out

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table4", "--scale", "galactic"])

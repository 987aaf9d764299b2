"""Tests for ASCII charts and the report generator."""

import pytest

from repro.analysis import bar_chart, generate_report, series_chart
from repro.analysis.report import main as report_main
from repro.experiments import EXPERIMENTS


class TestBarChart:
    def test_renders_all_labels(self):
        chart = bar_chart({"accelflow": 10.0, "relief": 30.0}, title="P99")
        assert "P99" in chart
        assert "accelflow" in chart and "relief" in chart

    def test_peak_gets_longest_bar(self):
        chart = bar_chart({"small": 1.0, "big": 10.0}, width=20)
        small_line = [l for l in chart.splitlines() if l.startswith("small")][0]
        big_line = [l for l in chart.splitlines() if l.startswith("big")][0]
        assert big_line.count("#") > small_line.count("#")

    def test_empty_values(self):
        assert bar_chart({}, title="nothing") == "nothing"

    def test_zero_peak_no_bars(self):
        chart = bar_chart({"a": 0.0})
        assert "#" not in chart


class TestSeriesChart:
    def test_renders_axis_and_legend(self):
        chart = series_chart(
            {"relief": [1.0, 2.0, 4.0], "accelflow": [1.0, 1.2, 1.5]},
            x_labels=["5K", "10K", "15K"],
        )
        assert "5K" in chart and "15K" in chart
        assert "o=relief" in chart
        assert "x=accelflow" in chart

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            series_chart({"a": [1.0]}, x_labels=["x", "y"])

    def test_empty(self):
        assert series_chart({}, x_labels=[], title="t") == "t"


class TestReport:
    def test_claims_cover_every_experiment(self):
        # Each experiment carries the paper claim its report section quotes.
        for name, experiment in EXPERIMENTS.items():
            assert experiment.claim.strip(), name

    def test_generate_report_subset(self):
        report = generate_report(scale="smoke", only=["table4", "table2"])
        assert "## table4" in report
        assert "## table2" in report
        assert "Paper:" in report
        assert "```text" in report

    def test_report_quotes_paper_claims(self):
        report = generate_report(scale="smoke", only=["table4"])
        assert EXPERIMENTS["table4"].claim in report


class TestReportCli:
    """The report CLI refuses what the runner refuses, before any run."""

    def test_unknown_scale_exits_2(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        with pytest.raises(SystemExit) as exit_info:
            report_main(["--scale", "enormous", "--only", "table2",
                         "-o", str(output)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'enormous'" in capsys.readouterr().err
        assert not output.exists()

    def test_unknown_only_id_exits_2_before_running(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        code = report_main(["--scale", "smoke", "--no-cache", "--jobs", "1",
                            "--only", "table2", "warp-figure",
                            "-o", str(output)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment(s): warp-figure;" in err
        assert "[report]" not in err  # table2 never ran
        assert not output.exists()


class TestSparkline:
    def test_empty_series_is_empty_string(self):
        from repro.analysis.ascii_chart import sparkline

        assert sparkline([]) == ""

    def test_all_equal_nonzero_renders_mid_ramp(self):
        from repro.analysis.ascii_chart import sparkline

        out = sparkline([5.0, 5.0, 5.0])
        assert len(out) == 3
        assert len(set(out)) == 1
        assert out[0] not in (" ",)  # visible, not blank

    def test_all_zero_renders_blank_not_crash(self):
        from repro.analysis.ascii_chart import sparkline

        assert sparkline([0.0, 0.0]) == "  "

    def test_nan_renders_blank_column(self):
        from repro.analysis.ascii_chart import sparkline

        out = sparkline([2.0, float("nan"), 1.0, 3.0])
        assert len(out) == 4
        assert out[1] == " "  # NaN column is blank
        # Normalization ignored the NaN: neighbours still span the ramp.
        assert out[0] not in (" ", "@")
        assert out[3] == "@"

    def test_inf_clamps_to_ramp_ends(self):
        from repro.analysis.ascii_chart import sparkline

        out = sparkline([1.0, float("inf"), float("-inf"), 2.0])
        assert out[1] == "@"  # top of the ramp
        assert out[2] == " "  # bottom of the ramp

    def test_all_non_finite_degrades(self):
        from repro.analysis.ascii_chart import sparkline

        out = sparkline([float("nan"), float("inf"), float("-inf")])
        assert out == " @ "

    def test_downsampling_skips_nan_within_buckets(self):
        from repro.analysis.ascii_chart import sparkline

        values = [1.0, float("nan")] * 60  # 120 points into 60 columns
        out = sparkline(values, width=60)
        assert len(out) == 60
        assert " " not in out  # every bucket still has a finite sample

    def test_invalid_width_rejected(self):
        from repro.analysis.ascii_chart import sparkline

        with pytest.raises(ValueError):
            sparkline([1.0], width=0)

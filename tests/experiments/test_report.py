"""Tests for the report aggregator module."""

from pathlib import Path

import pytest

from repro.experiments.report import SECTION_ORDER, build_report

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture()
def results(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    return directory


class TestBuildReport:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(tmp_path / "absent")

    def test_known_sections_get_headings(self, results):
        (results / "table4_throughput.txt").write_text("THROUGHPUT DATA")
        report = build_report(results)
        assert "## Table IV — HE throughput" in report
        assert "THROUGHPUT DATA" in report

    def test_ordering_follows_paper(self, results):
        (results / "table7_convergence_bias.txt").write_text("T7")
        (results / "fig1_fate_breakdown.txt").write_text("F1")
        report = build_report(results)
        assert report.index("F1") < report.index("T7")

    def test_unknown_files_appended(self, results):
        (results / "zz_custom.txt").write_text("CUSTOM")
        report = build_report(results)
        assert "## zz_custom" in report
        assert "CUSTOM" in report

    def test_chart_files_inline_without_heading(self, results):
        (results / "fig8_convergence.txt").write_text("TABLE8")
        (results / "fig8_convergence_chart.txt").write_text("CHART8")
        report = build_report(results)
        # The chart follows the table under the same heading.
        assert report.count("## Fig. 8 — convergence") == 1
        assert report.index("TABLE8") < report.index("CHART8")

    def test_output_file_written(self, results, tmp_path):
        (results / "fig1_fate_breakdown.txt").write_text("F1")
        output = tmp_path / "R.md"
        returned = build_report(results, output_path=output)
        assert output.read_text() == returned

    def test_empty_results_dir_still_builds(self, results):
        report = build_report(results)
        assert report.startswith("# Reproduction report")

    def test_section_order_covers_all_paper_artifacts(self):
        stems = [stem for stem, _ in SECTION_ORDER]
        for required in ("fig1_fate_breakdown", "table3_running_time",
                         "table4_throughput", "fig6_sm_utilization",
                         "table5_ablation", "fig7_compression_ratio",
                         "table6_component_time", "fig8_convergence",
                         "table7_convergence_bias",
                         "theory_acceleration"):
            assert required in stems


def test_committed_report_is_generated_from_committed_results():
    # Regenerate with `python -m repro report --output REPORT.md` after
    # any change under benchmarks/results/.
    assert (REPO / "REPORT.md").read_text() == \
        build_report(REPO / "benchmarks" / "results")

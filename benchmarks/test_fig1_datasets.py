"""Bench F1a/F1b: regenerate the Fig. 1 data-set size histograms."""

import pytest
from conftest import run_figure, show

pytestmark = pytest.mark.smoke  # fast enough for the CI benchmark smoke job

from repro.report import ComparisonTable


def test_fig1a_html_dataset(benchmark):
    fig, stats = run_figure(benchmark, "F1a")
    show(fig)
    table = ComparisonTable()
    table.add("F1a", "majority of files under 50 kB", ">50%",
              f"{stats['frac_under_50kb']:.0%}", stats["frac_under_50kb"] > 0.5)
    table.add("F1a", "largest file", "43 MB", f"{stats['max_mb']:.0f} MB",
              abs(stats["max_mb"] - 43.0) < 0.5)
    table.add("F1a", "long tail (mean >> median)", "long tail",
              f"mean/median = {stats['tail_ratio']:.2f}", stats["tail_ratio"] > 1.3)
    print(table.render())
    assert table.all_agree


def test_fig1b_text_dataset(benchmark):
    fig, stats = run_figure(benchmark, "F1b")
    show(fig)
    table = ComparisonTable()
    table.add("F1b", "files under 1 kB", ">40%",
              f"{stats['frac_under_1kb']:.0%}", stats["frac_under_1kb"] > 0.40)
    table.add("F1b", "majority under 5 kB", "majority",
              f"{stats['frac_under_5kb']:.0%}", stats["frac_under_5kb"] > 0.5)
    table.add("F1b", "largest file", "705 kB", f"{stats['max_kb']:.0f} kB",
              abs(stats["max_kb"] - 705.0) < 1.0)
    table.add("F1b", "total volume at full 400k scale", "~1 GB",
              f"{stats['total_gb_at_full_scale']:.2f} GB",
              0.7 < stats["total_gb_at_full_scale"] < 1.4)
    print(table.render())
    assert table.all_agree

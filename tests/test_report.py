"""Tests for the terminal renderings of the span products."""

from repro.obs.critpath import extract_critical_paths
from repro.util.report import critical_path_report
from tests.obs.test_spans import run_pingpong


def test_critical_path_report_renders_top_paths():
    paths = extract_critical_paths(run_pingpong().nexus.obs)
    text = critical_path_report(paths, top_n=1)
    assert "critical paths: top 1" in text
    assert "rsr" in text
    assert "phase attribution" in text
    assert "%" in text


def test_critical_path_report_on_empty_paths():
    assert "no critical paths" in critical_path_report([])

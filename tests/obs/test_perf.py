"""Tests for the sim-time profiler and its collapsed-stack export."""

import re

import pytest

from repro.obs import PHASES
from repro.obs.perf import PerfProfile, _union_length
from repro.util.report import hot_path_report

from .test_spans import run_pingpong

STACK_LINE = re.compile(r"^[^ ]+ \d+$")


def total_self_s(profile):
    return sum(path.self_s for path in profile.hot_paths())


@pytest.fixture(scope="module")
def profile():
    bed = run_pingpong()
    return PerfProfile.from_runs([(bed.nexus.obs, None)])


class TestUnionLength:
    def test_empty(self):
        assert _union_length([]) == 0.0

    def test_disjoint_and_overlapping(self):
        assert _union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
        assert _union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0

    def test_nested_and_degenerate(self):
        assert _union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
        assert _union_length([(1.0, 1.0), (2.0, 1.0)]) == 0.0


class TestAttribution:
    def test_keys_are_known_phases_and_handlers(self, profile):
        paths = profile.hot_paths()
        assert paths
        assert {p.phase for p in paths} <= set(PHASES)
        assert {p.handler for p in paths} == {"h"}
        assert {p.lane for p in paths} >= {"mpl", "tcp", "nexus"}

    def test_self_never_exceeds_cumulative(self, profile):
        for path in profile.hot_paths():
            assert 0.0 <= path.self_s <= path.cum_s + 1e-15

    def test_hottest_first(self, profile):
        selfs = [p.self_s for p in profile.hot_paths()]
        assert selfs == sorted(selfs, reverse=True)

    def test_total_self_does_not_double_count_nesting(self, profile):
        # Self time is duration minus child overlap, so the profile's
        # total self time can never exceed the sum of root durations.
        total_cum = sum(p.cum_s for p in profile.hot_paths())
        assert 0.0 < total_self_s(profile) <= total_cum

    def test_counts_spans(self, profile):
        assert profile.spans_profiled > 0
        assert sum(p.count for p in profile.hot_paths()) == (
            profile.spans_profiled)


class TestCollapsedStacks:
    def test_line_format(self, profile):
        lines = profile.collapsed_stacks()
        assert lines
        for line in lines:
            assert STACK_LINE.match(line), line
            stack, _value = line.rsplit(" ", 1)
            assert stack.startswith("rsr:h;")

    def test_deterministic_across_identical_runs(self):
        first = PerfProfile.from_runs([(run_pingpong().nexus.obs, None)])
        second = PerfProfile.from_runs([(run_pingpong().nexus.obs, None)])
        assert first.collapsed_stacks() == second.collapsed_stacks()

    def test_write_collapsed(self, profile, tmp_path):
        path = tmp_path / "profile.folded"
        profile.write_collapsed(str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.splitlines() == profile.collapsed_stacks()


class TestHotPathReport:
    def test_renders_paths_and_handler(self, profile):
        report = hot_path_report(profile, top_n=5)
        assert "hot paths" in report
        assert "[h]" in report
        assert "self ms" in report

    def test_empty_profile(self):
        assert hot_path_report(PerfProfile()) == (
            "(no traced spans to profile)")

    def test_top_n_limits_rows(self, profile):
        full = hot_path_report(profile, top_n=100)
        short = hot_path_report(profile, top_n=1)
        assert len(short.splitlines()) < len(full.splitlines())


class TestFromRuns:
    def test_merges_runs(self):
        obs_a = run_pingpong().nexus.obs
        obs_b = run_pingpong().nexus.obs
        merged = PerfProfile.from_runs([(obs_a, None), (obs_b, None)])
        single = PerfProfile.from_runs([(obs_a, None)])
        assert merged.spans_profiled == 2 * single.spans_profiled
        assert total_self_s(merged) == pytest.approx(
            2 * total_self_s(single))

    def test_disabled_runtime_profiles_nothing(self):
        obs = run_pingpong(observe=False).nexus.obs
        profile = PerfProfile.from_runs([(obs, None)])
        assert profile.hot_paths() == []
        assert profile.collapsed_stacks() == []

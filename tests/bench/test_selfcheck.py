"""``python -m repro.bench --selfcheck``: two interpreters, cmp, validate."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.selfcheck import _first_problem


def test_selfcheck_passes_on_a_deterministic_artefact(capsys):
    assert bench_main(["--selfcheck", "baselines"]) == 0
    out = capsys.readouterr().out
    assert "baselines: 2 files byte-identical and valid" in out
    assert "PYTHONHASHSEED 1 / 2" in out


def test_selfcheck_refuses_flags_it_sets_itself(capsys):
    with pytest.raises(SystemExit):
        bench_main(["--selfcheck", "--record", "r.json"])
    assert "picks its own" in capsys.readouterr().err


@pytest.fixture
def twins(tmp_path):
    """Two run directories holding the same valid record."""
    from repro.bench.record import BenchRecord

    record = BenchRecord("twin")
    record.add("a", "m", 1.0)
    for name in ("one", "two"):
        (tmp_path / name / "export").mkdir(parents=True)
        record.write(str(tmp_path / name / "record.json"))
        (tmp_path / name / "export" / "graph.dot").write_text("digraph {}")
    return tmp_path / "one", tmp_path / "two"


class TestFirstProblem:
    def test_identical_valid_twins_have_none(self, twins):
        assert _first_problem(*map(str, twins)) is None

    def test_names_the_first_differing_path(self, twins):
        (twins[1] / "export" / "graph.dot").write_text("digraph {a}")
        assert _first_problem(*map(str, twins)) \
            == "export/graph.dot differs between runs"

    def test_names_a_file_only_one_run_wrote(self, twins):
        (twins[1] / "record.json").unlink()
        assert _first_problem(*map(str, twins)) \
            == "record.json written by only one run"

    def test_identical_but_invalid_documents_fail(self, twins):
        for run in twins:
            (run / "record.json").write_text('{"schema": 1}')
        assert "record.json is invalid" in _first_problem(*map(str, twins))

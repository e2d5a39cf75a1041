"""`python -m repro.obs.validate` exercised as a CLI (exit codes)."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.obs.validate import main as validate_main


@pytest.fixture(scope="module")
def fresh_trace(tmp_path_factory):
    """A trace written by the real ``--trace`` code path."""
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    assert bench_main(["baselines", "--quick", "--trace", str(path)]) == 0
    return path


class TestValidateCli:
    def test_exit_zero_on_fresh_export(self, fresh_trace, capsys):
        assert validate_main([str(fresh_trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")

    def test_exit_nonzero_on_corrupted_document(self, fresh_trace, tmp_path,
                                                capsys):
        document = json.loads(fresh_trace.read_text())
        for event in document["traceEvents"]:
            event.get("args", {}).pop("rsr", None)  # break causal ids
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(document))
        assert validate_main([str(corrupted)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_exit_nonzero_on_truncated_json(self, fresh_trace, tmp_path,
                                            capsys):
        truncated = tmp_path / "truncated.json"
        truncated.write_text(fresh_trace.read_text()[:100])
        assert validate_main([str(truncated)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_exit_nonzero_on_missing_file(self, tmp_path, capsys):
        assert validate_main([str(tmp_path / "absent.json")]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert validate_main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_every_path_gets_its_own_line(self, fresh_trace, tmp_path,
                                          capsys):
        absent = str(tmp_path / "absent.json")
        assert validate_main([str(fresh_trace), absent,
                              str(fresh_trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("OK: Chrome trace:") == 2
        assert captured.err.count("INVALID:") == 1
        assert absent in captured.err


class TestSchemaDispatch:
    """Regression: a schema-tagged document the sniffer did not know
    used to fall through to the Chrome-trace validator."""

    def test_fleet_load_summary_validates(self, tmp_path, capsys):
        from repro.fleet.__main__ import main as fleet_main

        path = tmp_path / "merged.json"
        assert fleet_main(["--factors", "0.5,1", "--quick", "--jobs", "1",
                           "--out", str(path)]) == 0
        capsys.readouterr()
        assert validate_main([str(path)]) == 0
        assert "OK: fleet load summary: " in capsys.readouterr().out
        document = json.loads(path.read_text())
        document["totals"]["delivered"] += 1
        path.write_text(json.dumps(document))
        assert validate_main([str(path)]) == 1
        assert "totals.delivered" in capsys.readouterr().err

    def test_unknown_schema_id_is_named(self, tmp_path, capsys):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"schema": "repro.fleet.nonesuch",
                                    "schema_version": 1}))
        assert validate_main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown schema 'repro.fleet.nonesuch'" in err
        assert "repro.fleet.load_summary" in err  # the known ids
        assert "traceEvents" not in err

    def test_skewed_version_names_both_versions(self, tmp_path, capsys):
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({"schema": "repro.obs.graph",
                                    "schema_version": 7}))
        assert validate_main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "repro.obs.graph: schema_version is 7" in err
        assert "reads 1" in err

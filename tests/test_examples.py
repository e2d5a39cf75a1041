"""Every example script must run to completion (they are deliverables).

Executed in-process via runpy (same interpreter, fresh ``__main__``),
with stdout captured and spot-checked for each scenario's headline.
Each runs with ``tempfile``'s directory redirected into a fresh one,
which must be empty when the example returns: an example cleans up
what it writes there (the streaming example's spool directories).
"""

import os
import pathlib
import runpy
import tempfile

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: script name -> a fragment its output must contain
EXPECTED_OUTPUT = {
    "quickstart.py": "selected methods",
    "method_selection.py": "selected ['mpl']",
    "coupled_climate.py": "identical across all configurations",
    "instrument_stream.py": "failover at",
    "collaborative_multicast.py": "ratio 100%",
    "satellite_pipeline.py": "mean pipeline latency",
    "fortran_m_pipeline.py": "merged stream",
    "protocol_stacks.py": "lzw+tcp",
    "chaos_climate.py": "TCP recovered",
    "load_capacity.py": "reproduced as capacity",
    "telemetry_analysis.py": "in-window violations the aggregate missed",
    "streaming_telemetry.py": "byte-identical to the in-memory extraction",
    "fleet_sweep.py": "reproduced the serial probe sequence and capacity "
                      "exactly",
    "placement_search.py": "rediscovered the paper's forwarding placement",
}


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT), (
        "examples/ and EXPECTED_OUTPUT disagree — add the new example here")


def _run_example(script, monkeypatch):
    with tempfile.TemporaryDirectory(prefix="repro-example-") as scratch:
        with monkeypatch.context() as patch:
            patch.setattr(tempfile, "tempdir", scratch)
            runpy.run_path(str(EXAMPLES / script), run_name="__main__")
        left = sorted(os.listdir(scratch))
        assert not left, f"{script} left {left} in its temp dir"


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script, capsys, monkeypatch):
    _run_example(script, monkeypatch)
    output = capsys.readouterr().out
    assert EXPECTED_OUTPUT[script] in output, (
        f"{script} ran but its expected output fragment is missing")


def test_method_selection_manual_control(capsys, monkeypatch):
    """The example's manual control: a link rebound to a table with tcp
    promoted, then ``set_method``, then a required method."""
    _run_example("method_selection.py", monkeypatch)
    assert ("  after promoting tcp in the table: ['tcp']\n"
            "  after set_method('mpl'):          ['mpl']\n"
            "  with RequireMethod('tcp'):        ['tcp']\n"
            ) in capsys.readouterr().out


def test_examples_leave_nothing_in_the_temp_dir(monkeypatch):
    system_tmp = tempfile.gettempdir()
    before = set(os.listdir(system_tmp))
    _run_example("streaming_telemetry.py", monkeypatch)
    leaked = sorted(name for name in set(os.listdir(system_tmp)) - before
                    if name.startswith("repro-"))
    assert not leaked, f"an example run left {leaked} in {system_tmp}"

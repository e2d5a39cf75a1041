"""Identical runs must produce byte-identical trace exports.

Context ids are process-global, so this only holds because the exporters
renumber them densely by first appearance and every other id comes from
per-run counters.
"""

from repro.obs import export
from repro.util.document import dumps

from .test_spans import run_pingpong


def _artefacts():
    bed = run_pingpong()
    obs, nexus = bed.nexus.obs, bed.nexus
    return (
        dumps(export.merged_chrome_trace([(obs, nexus)])),
        str(obs.metrics.snapshot()),
    )


def test_repeated_runs_are_byte_identical():
    first = _artefacts()
    second = _artefacts()
    assert first == second


def test_merged_trace_is_deterministic():
    bed_a, bed_b = run_pingpong(), run_pingpong()
    runs = [(bed_a.nexus.obs, bed_a.nexus), (bed_b.nexus.obs, bed_b.nexus)]
    first = dumps(export.merged_chrome_trace(runs))

    bed_c, bed_d = run_pingpong(), run_pingpong()
    runs = [(bed_c.nexus.obs, bed_c.nexus), (bed_d.nexus.obs, bed_d.nexus)]
    second = dumps(export.merged_chrome_trace(runs))
    assert first == second


def test_collecting_scope_gathers_runtimes():
    import repro.obs as obs_mod

    with obs_mod.collecting() as runs:
        bed = run_pingpong(observe=None)
    assert len(runs) == 1
    assert runs[0][0] is bed.nexus.obs
    assert bed.nexus.obs.enabled
    # The default is restored on exit.
    assert not obs_mod.default_observe()

"""The Nexus core path loads neither numpy nor the obs products.

A Figure 4 or Figure 6 run draws no random number and builds no array,
so the stack under it (simnet → transports → core → the obs recording
spine → the figure drivers) must run in an interpreter where numpy
cannot be imported.  The obs products (timeline, stream, graph,
critpath, export, perf) are loaded on first access, never by recording.
The span products read spans one way, through the sink's RSR groups.
"""

import ast
import os
import subprocess
import sys

import pytest

PRODUCTS = ("timeline", "stream", "graph", "critpath", "export", "perf")

SCRIPT = """\
import sys
sys.modules["numpy"] = None
from repro.bench.figure4 import figure4
from repro.bench.figure6 import figure6
fig4 = figure4(roundtrips=3, small_sizes=(0, 1000), large_sizes=(65536,))
fig6 = figure6(skips=(1, 20), sizes=(0,), mpl_roundtrips=10)
assert list(fig4.metrics()) and list(fig6.metrics())
fig4.render(), fig6.render()
print(*(m for m in sys.modules if m.startswith("repro.")))
"""


def _loaded_by(script):
    """The ``repro.*`` modules a fresh interpreter holds after ``script``."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.abspath(root)})
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_figures_run_without_numpy_or_obs_products():
    loaded = _loaded_by(SCRIPT)
    assert "repro.obs.spans" in loaded
    assert not [m for m in loaded
                if m in {f"repro.obs.{name}" for name in PRODUCTS}]


def test_obs_products_resolve_on_first_access():
    import repro.obs as obs
    from repro.obs import stream, timeline

    assert obs.fold_stream is stream.fold_stream
    assert obs.Timeline is timeline.Timeline
    assert obs.export.__name__ == "repro.obs.export"
    assert "fold_stream" in vars(obs)
    with pytest.raises(AttributeError, match="no_such_product"):
        obs.no_such_product


#: Modules whose span products must read ``obs.rsr_groups()``, which
#: every sink serves, never the in-memory-only ``obs.spans``.
SINGLE_READER = ("obs/graph.py", "obs/critpath.py", "obs/perf.py",
                 "core/enquiry.py", "bench/analysis.py")


@pytest.mark.parametrize("module", SINGLE_READER)
def test_span_products_read_only_rsr_groups(module):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "repro", module)
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "spans"
             and isinstance(node.ctx, ast.Load)]
    assert not reads, (
        f"{module} reads .spans at line(s) {reads}: a streamed run "
        f"leaves it empty; fold obs.rsr_groups() instead")

"""Figure 4 — the kernel-bound workload.

Closed loop, one pair of contexts: a message goes out only after the
previous one came back.  Every size in both paper panels over raw MPL,
single-method Nexus and multimethod Nexus (36 simulations), so the
per-message cost of the event kernel dominates.  The program has no
random input; the seed changes nothing.
"""

from __future__ import annotations

from repro.bench.figure4 import check_figure4_shape, figure4

from . import Finished

ROUNDTRIPS = 48
SMALL_SIZES = (0, 125, 250, 500, 750, 1000)
LARGE_SIZES = (0, 4096, 16384, 65536, 131072, 262144)


def build(seed, scratch):
    return ROUNDTRIPS, SMALL_SIZES, LARGE_SIZES


def run(inputs, tracer):
    fig = tracer.call("bench.figure4", figure4, *inputs)

    def finish():
        check_figure4_shape(fig)
        return Finished({
            panel: {name: list(zip(series.xs, series.ys))
                    for name, series in sorted(curves.items())}
            for panel, curves in (("small", fig.small), ("large", fig.large))})

    return finish

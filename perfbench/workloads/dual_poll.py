"""Figure 6 — the unified poll and ``skip_poll`` on their fast path.

Closed loop, two pairs at once: one ping-pong over MPL and one over TCP
share the polling function, across the whole ``skip_poll`` sweep at 0 B
and 10 KiB (18 simulations).  No faults, so ``core.retries`` and
``core.failovers`` are 0 here.  The program has no random input; the
seed changes nothing.
"""

from __future__ import annotations

from repro.bench.figure6 import check_figure6_shape, figure6

from . import Finished

SKIPS = (1, 2, 5, 10, 20, 50, 100, 200, 500)
SIZES = (0, 10 * 1024)
MPL_ROUNDTRIPS = 200


def build(seed, scratch):
    return SKIPS, SIZES, MPL_ROUNDTRIPS


def run(inputs, tracer):
    fig = tracer.call("bench.figure6", figure6, *inputs)

    def finish():
        check_figure6_shape(fig)
        return Finished({
            str(size): {name: list(zip(series.xs, series.ys))
                        for name, series in sorted(pair.items())}
            for size, pair in sorted(fig.panels.items())})

    return finish

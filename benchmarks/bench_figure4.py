"""Regenerate Figure 4: ping-pong one-way time vs message size.

Series: raw MPL, Nexus single-method (MPL), Nexus multimethod (MPL+TCP).
Shape criteria: multimethod >= single >= raw everywhere; tens-to-hundreds
of microseconds of TCP-polling overhead at 0 bytes; single-method
converges to raw at large sizes while multimethod stays above.
"""

from repro.bench.figure4 import check_figure4_shape, figure4


def test_figure4(run_once, bench_record):
    fig = run_once(figure4, 80)
    print()
    print(fig.render())
    bench_record.extend("figure4", fig.metrics())
    check_figure4_shape(fig)

"""Regenerate Figure 6: dual ping-pong one-way times vs skip_poll.

Two panels (0 B and 10 kB).  Shape criteria: the MPL pair improves and
the TCP pair degrades as skip_poll grows; a moderate value (the paper's
~20 region) captures most of the MPL win before TCP degrades badly.
"""

from repro.bench.figure6 import check_figure6_shape, figure6


def test_figure6(run_once, bench_record):
    fig = run_once(figure6)
    print()
    print(fig.render())
    bench_record.extend("figure6", fig.metrics())
    check_figure6_shape(fig)

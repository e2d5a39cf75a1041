"""Figure 6: dual ping-pong one-way times vs ``skip_poll``.

"One-way communication time as a function of skip_poll for a
microbenchmark in which two ping-pong programs run concurrently over MPL
and TCP ...  The graph on the left is for zero-length messages, and the
graph on the right is for 10 kilobyte messages."
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..apps.dualpingpong import dual_pingpong
from ..util.records import Series, render_series_table
from . import Artefact, RunOptions
from .record import Metric, slug

#: skip_poll sweep (the paper sweeps a comparable range; ~20 is its
#: recommended operating point).
SKIP_VALUES = (1, 2, 5, 10, 20, 50, 100, 200, 500)

SIZE_SMALL = 0
SIZE_LARGE = 10 * 1024


@dataclasses.dataclass
class Figure6:
    """Both panels: per message size, an (MPL, TCP) series pair."""

    panels: dict[int, dict[str, Series]]   # size -> {"mpl": .., "tcp": ..}

    def metrics(self) -> _t.Iterator[Metric]:
        """Per-size, per-pair, per-skip one-way latencies."""
        for size in sorted(self.panels):
            for pair_name in sorted(self.panels[size]):
                series = self.panels[size][pair_name]
                for skip, one_way_us in zip(series.xs, series.ys):
                    yield Metric(
                        f"{int(size)}B.{slug(pair_name)}."
                        f"skip{int(skip)}.one_way_us", one_way_us,
                        unit="us")

    def render(self) -> str:
        blocks = []
        for size, pair in sorted(self.panels.items()):
            title = (f"Figure 6 ({'left' if size == 0 else 'right'}): "
                     f"one-way time [us] vs skip_poll, {size} B messages")
            blocks.append(render_series_table(
                [pair["mpl"], pair["tcp"]], title, precision=1))
        return "\n\n".join(blocks + [self.render_charts()])

    def render_charts(self, width: int = 64, height: int = 14) -> str:
        from ..util.ascii_chart import render_chart

        blocks = []
        for size, pair in sorted(self.panels.items()):
            blocks.append(render_chart(
                [pair["mpl"], pair["tcp"]],
                title=f"Figure 6: one-way us vs skip_poll ({size} B)",
                log_x=True, log_y=True, width=width, height=height))
        return "\n\n".join(blocks)


def figure6(skips: _t.Sequence[int] = SKIP_VALUES,
            sizes: _t.Sequence[int] = (SIZE_SMALL, SIZE_LARGE),
            mpl_roundtrips: int = 400) -> Figure6:
    """Regenerate both panels."""
    panels: dict[int, dict[str, Series]] = {}
    for size in sizes:
        mpl = Series("mpl pair", "skip_poll")
        tcp = Series("tcp pair", "skip_poll")
        for skip in skips:
            result = dual_pingpong(size, skip, mpl_roundtrips=mpl_roundtrips)
            mpl.add(skip, result.mpl_one_way * 1e6)
            tcp.add(skip, result.tcp_one_way * 1e6)
        panels[size] = {"mpl": mpl, "tcp": tcp}
    return Figure6(panels=panels)


def check_figure6_shape(fig: Figure6, *, tolerance: float = 0.15) -> None:
    """Assert the qualitative shape the paper reports.

    * MPL one-way time improves (monotone non-increasing within
      ``tolerance``) as skip_poll grows — expensive TCP polls leave the
      fast path;
    * TCP one-way time degrades (monotone non-decreasing within
      ``tolerance``) — its detection latency grows;
    * a moderate skip value captures most of the MPL improvement while
      TCP degradation is still far below its endpoint value — the
      paper's "values of around 20" observation.
    """
    for size, pair in fig.panels.items():
        mpl, tcp = pair["mpl"], pair["tcp"]
        assert mpl.is_monotone(increasing=False,
                               tolerance=tolerance * mpl.ys[0]), (
            f"MPL series not improving with skip_poll at {size} B: {mpl.ys}")
        assert tcp.is_monotone(increasing=True,
                               tolerance=tolerance * tcp.ys[0]), (
            f"TCP series not degrading with skip_poll at {size} B: {tcp.ys}")

        ordered = sorted(zip(mpl.xs, mpl.ys))
        first_y = ordered[0][1]
        last_y = ordered[-1][1]
        moderate = [y for x, y in ordered if 5 <= x <= 50]
        assert moderate, "sweep must include the paper's ~20 region"
        captured = (first_y - min(moderate)) / max(first_y - last_y, 1e-12)
        assert captured >= 0.7, (
            f"a moderate skip_poll should capture most of the MPL win "
            f"(got {captured:.2f} at {size} B)")

        tcp_sorted = sorted(zip(tcp.xs, tcp.ys))
        tcp_start = tcp_sorted[0][1]
        tcp_moderate = min(y for x, y in tcp_sorted if 5 <= x <= 50)
        tcp_end = tcp_sorted[-1][1]
        moderate_damage = max(tcp_moderate - tcp_start, 0.0)
        end_damage = max(tcp_end - tcp_start, 1e-12)
        assert moderate_damage < 0.5 * end_damage, (
            "moderate skip_poll should not yet have badly hurt TCP "
            f"(moderate +{moderate_damage:.0f} us vs end +{end_damage:.0f} us "
            f"at {size} B)")


def _run(options: RunOptions) -> Figure6:
    return figure6()


ARTEFACT = Artefact("figure6", _run, check_figure6_shape)

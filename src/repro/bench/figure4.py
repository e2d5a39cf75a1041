"""Figure 4: one-way communication time vs message size.

"One-way communication time as a function of message size, as measured
with both a low-level MPL program and the ping-pong microbenchmark,
using single-method and multimethod versions of Nexus.  On the left, we
show data for message sizes in the range 0-1000, and on the right a
wider range of sizes."

Three series per panel: ``raw mpl``, ``nexus mpl`` (single-method),
``nexus mpl+tcp`` (multimethod; the traffic is still MPL-only — the
difference is pure TCP polling overhead).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..apps.pingpong import nexus_pingpong, raw_transport_pingpong
from ..util.records import Series, render_series_table
from . import Artefact, RunOptions
from .record import Metric, slug

#: Paper panel ranges.
SMALL_SIZES = (0, 125, 250, 500, 750, 1000)
LARGE_SIZES = (0, 4096, 16384, 65536, 131072, 262144)


@dataclasses.dataclass
class Figure4:
    """Both panels of Figure 4."""

    small: dict[str, Series]   # series name -> (size, one-way seconds)
    large: dict[str, Series]

    def metrics(self) -> _t.Iterator[Metric]:
        """Per-series, per-size one-way latencies."""
        for panel_name, panel in (("small", self.small),
                                  ("large", self.large)):
            for series_name in sorted(panel):
                series = panel[series_name]
                for size, one_way_us in zip(series.xs, series.ys):
                    yield Metric(
                        f"{panel_name}.{slug(series_name)}."
                        f"{int(size)}B.one_way_us", one_way_us, unit="us")

    def render(self) -> str:
        out = [
            render_series_table(
                list(self.small.values()),
                "Figure 4 (left): one-way time [us] vs message size 0-1000 B",
                precision=1),
            "",
            render_series_table(
                list(self.large.values()),
                "Figure 4 (right): one-way time [us] vs message size (wide)",
                precision=1),
            "",
            self.render_charts(),
        ]
        return "\n".join(out)

    def render_charts(self, width: int = 64, height: int = 14) -> str:
        from ..util.ascii_chart import render_chart

        return "\n\n".join([
            render_chart(list(self.small.values()),
                         title="Figure 4 (left): one-way us vs bytes",
                         width=width, height=height),
            render_chart(list(self.large.values()),
                         title="Figure 4 (right): one-way us vs bytes",
                         width=width, height=height),
        ])


def _panel(sizes: _t.Sequence[int], roundtrips: int) -> dict[str, Series]:
    series = {
        "raw mpl": Series("raw mpl", "bytes", "one-way us"),
        "nexus mpl": Series("nexus mpl", "bytes", "one-way us"),
        "nexus mpl+tcp": Series("nexus mpl+tcp", "bytes", "one-way us"),
    }
    for size in sizes:
        raw = raw_transport_pingpong(size, roundtrips)
        single = nexus_pingpong(size, roundtrips, methods=("local", "mpl"))
        multi = nexus_pingpong(size, roundtrips,
                               methods=("local", "mpl", "tcp"))
        series["raw mpl"].add(size, raw.one_way * 1e6)
        series["nexus mpl"].add(size, single.one_way * 1e6)
        series["nexus mpl+tcp"].add(size, multi.one_way * 1e6)
    return series


def figure4(roundtrips: int = 100,
            small_sizes: _t.Sequence[int] = SMALL_SIZES,
            large_sizes: _t.Sequence[int] = LARGE_SIZES) -> Figure4:
    """Regenerate both panels."""
    return Figure4(small=_panel(small_sizes, roundtrips),
                   large=_panel(large_sizes, roundtrips))


def check_figure4_shape(fig: Figure4) -> None:
    """Assert the qualitative shape the paper reports.

    * at every size: multimethod >= single-method >= raw (layering and
      polling only ever add cost);
    * at 0 bytes: TCP polling adds tens-to-hundreds of microseconds over
      single-method Nexus (paper: 83 → 156 us);
    * at the largest size: single-method Nexus converges to raw MPL
      (within 10 %), while the multimethod version remains measurably
      slower (the select-vs-device-drain interference).
    """
    for panel in (fig.small, fig.large):
        raw, single, multi = (panel["raw mpl"], panel["nexus mpl"],
                              panel["nexus mpl+tcp"])
        for size in raw.xs:
            assert multi.y_at(size) >= single.y_at(size) * 0.999, (
                f"multimethod faster than single-method at {size} B")
            assert single.y_at(size) >= raw.y_at(size) * 0.999, (
                f"Nexus faster than raw transport at {size} B")

    zero_gap = (fig.small["nexus mpl+tcp"].y_at(0)
                - fig.small["nexus mpl"].y_at(0))
    assert 10.0 <= zero_gap <= 1000.0, (
        f"0-byte TCP-polling overhead {zero_gap:.1f} us outside the "
        "tens-to-hundreds range")

    big = max(fig.large["raw mpl"].xs)
    raw_big = fig.large["raw mpl"].y_at(big)
    single_big = fig.large["nexus mpl"].y_at(big)
    multi_big = fig.large["nexus mpl+tcp"].y_at(big)
    assert single_big <= raw_big * 1.10, (
        "single-method Nexus does not converge to raw MPL at large sizes")
    assert multi_big > single_big * 1.05, (
        "multimethod should remain measurably slower at large sizes")


def _run(options: RunOptions) -> Figure4:
    return figure4()


ARTEFACT = Artefact("figure4", _run, check_figure4_shape)

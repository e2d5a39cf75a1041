"""Result records and plain-text table/series rendering.

The benchmark harness reports results the way the paper does: numbered
table rows (Table 1) and (x, y) series per configuration (Figures 4 and 6).
:class:`ResultTable` and :class:`Series` are the common currency between
experiment drivers (:mod:`repro.bench`), ``python -m repro.bench`` and
EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(frozen=True)
class ResultRow:
    """One row of an experiment result table."""

    label: str
    values: tuple[float, ...]
    note: str = ""


class ResultTable:
    """An ordered collection of labelled result rows with column headers."""

    def __init__(self, title: str, columns: _t.Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[ResultRow] = []

    def add(self, label: str, *values: float, note: str = "") -> ResultRow:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        row = ResultRow(label, tuple(float(v) for v in values), note)
        self.rows.append(row)
        return row

    def render(self, precision: int = 3) -> str:
        """Render as a fixed-width plain-text table."""
        header = ["experiment", *self.columns, "note"]
        body = [
            [row.label, *(f"{v:.{precision}f}" for v in row.values), row.note]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body))
            if body else len(header[i])
            for i in range(len(header))
        ]
        def fmt(cells: _t.Sequence[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = [self.title, rule, fmt(header), rule]
        lines.extend(fmt(line) for line in body)
        lines.append(rule)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultTable {self.title!r} rows={len(self.rows)}>"


class Series:
    """A named (x, y) series — one line of a paper figure."""

    def __init__(self, name: str, x_label: str = "x"):
        self.name = name
        self.x_label = x_label
        self.points: list[tuple[float, float]] = []

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    @property
    def xs(self) -> list[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> list[float]:
        return [p[1] for p in self.points]

    def y_at(self, x: float) -> float:
        """The y value recorded for exactly this x."""
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"series {self.name!r} has no point at x={x!r}")

    def is_monotone(self, *, increasing: bool, tolerance: float = 0.0) -> bool:
        """Shape check: is y monotone (within ``tolerance``) along x?"""
        ordered = sorted(self.points)
        ys = [p[1] for p in ordered]
        if increasing:
            return all(b >= a - tolerance for a, b in zip(ys, ys[1:]))
        return all(b <= a + tolerance for a, b in zip(ys, ys[1:]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Series {self.name!r} points={len(self.points)}>"


def render_series_table(series_list: _t.Sequence[Series], title: str,
                        precision: int = 3) -> str:
    """Render several series sharing an x axis as one aligned table."""
    xs = sorted({x for s in series_list for x in s.xs})
    header = [series_list[0].x_label if series_list else "x",
              *(s.name for s in series_list)]
    body = []
    for x in xs:
        cells = [f"{x:g}"]
        for s in series_list:
            try:
                cells.append(f"{s.y_at(x):.{precision}f}")
            except KeyError:
                cells.append("-")
        body.append(cells)
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body
              else len(header[i]) for i in range(len(header))]
    def fmt(cells: _t.Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([title, rule, fmt(header), rule,
                      *(fmt(r) for r in body), rule])

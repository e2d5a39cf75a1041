"""EXPERIMENTS.md quotes the committed baseline, digit for digit.

The gate pins ``benchmarks/BENCH_baseline.json``; this pins the prose
to the gate, so a re-recorded baseline that moves a published number
fails here until the document says so too.
"""

import json
import pathlib
import re

from repro.bench.record import slug

ROOT = pathlib.Path(__file__).resolve().parents[2]


def table1_column():
    """``row label -> printed measured s/step`` from the Table 1 section."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Table 1", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 3 and re.match(r"\d", cells[2]):
            rows[cells[0]] = cells[2].split()[0]
    return rows


def test_table1_measured_column_is_the_baseline():
    baseline = json.loads(
        (ROOT / "benchmarks" / "BENCH_baseline.json").read_text())
    recorded = {
        name[: -len(".seconds_per_step")]: body["value"]
        for name, body in baseline["artefacts"]["table1"]["metrics"].items()
        if name.endswith(".seconds_per_step")}
    printed, measured = {}, {}
    for label, text in table1_column().items():
        # A row names its metric by its label, or by the label before
        # its parenthetical note.
        key = next(key for key in (slug(label), slug(label.split(" (")[0]))
                   if key in recorded)
        printed[key] = text
        measured[key] = f"{recorded[key]:.{len(text.partition('.')[2])}f}"
    assert set(printed) == set(recorded)
    assert printed == measured

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


def section_rows(heading):
    """The cells of every data row of the tables in one EXPERIMENTS.md
    section (header and separator rows dropped), bold marks and a
    leading ``≈`` stripped."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip().strip("*").removeprefix("≈").strip()
                 for cell in line.strip().strip("|").split("|")]
        if any(re.match(r"\d", cell) for cell in cells[1:]):
            rows.append(cells)
    return rows


def baseline_metrics(artefact):
    baseline = json.loads(
        (ROOT / "benchmarks" / "BENCH_baseline.json").read_text())
    return {name: body["value"] for name, body
            in baseline["artefacts"][artefact]["metrics"].items()}


def as_printed(value, printed):
    """``value`` at ``printed``'s precision, digit groups dropped."""
    digits = re.sub(r"\s", "", printed)
    return f"{value:.{len(digits.partition('.')[2])}f}", digits


def table1_column():
    """``row label -> printed measured s/step`` from the Table 1 section."""
    return {cells[0]: cells[2].split()[0]
            for cells in section_rows("Table 1") if len(cells) == 3}


def test_table1_measured_column_is_the_baseline():
    recorded = {
        name[: -len(".seconds_per_step")]: value
        for name, value in baseline_metrics("table1").items()
        if name.endswith(".seconds_per_step")}
    printed, measured = {}, {}
    for label, text in table1_column().items():
        # A row names its metric by its label, or by the label before
        # its parenthetical note.
        key = next(key for key in (slug(label), slug(label.split(" (")[0]))
                   if key in recorded)
        measured[key], printed[key] = as_printed(recorded[key], text)
    assert set(printed) == set(recorded)
    assert printed == measured


def test_figure4_table_is_the_baseline():
    """The 1 000 B row comes from the small-message sweep, the rest
    from the large one."""
    recorded = baseline_metrics("figure4")
    columns = ("raw_mpl", "nexus_mpl", "nexus_mpl+tcp")
    printed, measured = {}, {}
    for size, *cells in section_rows("Figure 4"):
        nbytes = re.sub(r"\s", "", size)
        sweep = "small" if nbytes == "1000" else "large"
        for column, text in zip(columns, cells, strict=True):
            name = f"{sweep}.{column}.{nbytes}B.one_way_us"
            measured[name], printed[name] = as_printed(recorded[name], text)
    assert len(printed) == 15
    assert printed == measured


def test_figure6_table_is_the_baseline():
    recorded = baseline_metrics("figure6")
    columns = ("0B.mpl", "0B.tcp", "10240B.mpl", "10240B.tcp")
    printed, measured = {}, {}
    for skip, *cells in section_rows("Figure 6"):
        for column, text in zip(columns, cells, strict=True):
            name = f"{column}.skip{skip}.one_way_us"
            measured[name], printed[name] = as_printed(recorded[name], text)
    assert len(printed) == 20
    assert printed == measured


#: Section 5 baselines table row -> its ``baselines`` metric.
BASELINE_ROWS = {
    "p4-style (hard-coded, full polling)": "p4_hard-coded",
    "PVM-style (task→pvmd→pvmd→task relay)": "pvm_daemon_relay",
    "Nexus, skip_poll = 1": "nexus_skip_poll=1",
    "Nexus, skip_poll = 20 (tuned)": "nexus_skip_poll=20",
}


def test_section5_baselines_table_is_the_baseline():
    recorded = baseline_metrics("baselines")
    printed, measured = {}, {}
    for label, text in section_rows("Baseline comparison"):
        name = f"{BASELINE_ROWS[label]}.ms_per_round"
        measured[name], printed[name] = as_printed(recorded[name], text)
    assert set(printed) == {name for name in recorded
                            if name.endswith(".ms_per_round")}
    assert printed == measured


#: Load & capacity table row -> its ``load`` capacity search.
CAPACITY_ROWS = {
    "untuned polling (`skip_poll=1`)": "untuned",
    "forwarding processor (§4.3, co-located rank)": "forwarding",
    "tuned `skip_poll=10`": "tuned-skip-poll",
}


def test_load_capacity_table_is_the_baseline():
    recorded = baseline_metrics("load")
    printed, measured = {}, {}
    for label, text in section_rows("Load & capacity"):
        name = f"capacity.{CAPACITY_ROWS[label]}.rate"
        measured[name], printed[name] = as_printed(recorded[name], text)
    assert set(printed) == {name for name in recorded
                            if re.fullmatch(r"capacity\.[^.]+\.rate", name)}
    assert printed == measured


def test_placement_table_is_the_baseline():
    """A row names its candidate by the label before its note."""
    recorded = baseline_metrics("place")
    printed, measured = {}, {}
    for label, *cells in section_rows("Placement planning"):
        candidate = slug(label.split(" (")[0])
        names = (f"candidate.{candidate}.static_rps",
                 f"capacity.{candidate}.rate")
        for name, text in zip(names, cells, strict=True):
            measured[name], printed[name] = as_printed(recorded[name], text)
    assert set(printed) == {
        name for name in recorded
        if re.fullmatch(r"candidate\.[^.]+\.static_rps"
                        r"|capacity\.[^.]+\.rate", name)}
    assert printed == measured

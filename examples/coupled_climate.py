#!/usr/bin/env python
"""The Section 4 case study in miniature: the coupled climate model.

Runs the really-computing atmosphere+ocean coupled model on the
two-partition SP2 under four multimethod configurations and prints a
small Table 1.  (The full-size table is regenerated by
``python -m repro.bench table1``; this example uses a reduced
configuration so it completes in a couple of seconds of wall time.)

Run:  python examples/coupled_climate.py
"""

import dataclasses

from repro.apps.climate import ClimateConfig, ClimateMode, run_coupled_model
from repro.util.records import ResultTable

#: A mid-size configuration: full 24-rank decomposition, reduced work.
CONFIG = dataclasses.replace(
    ClimateConfig(),
    steps=4,
    atmo_compute_s=5.0,
    ocean_compute_s=4.2,
    ops_per_step=8_000,
    bulk_bytes_per_phase=64 * 1024 * 1024,
    small_msgs_per_step=1_500,
)


def main() -> None:
    table = ResultTable(
        f"Coupled model ({CONFIG.atmo_ranks}+{CONFIG.ocean_ranks} ranks, "
        f"{CONFIG.steps} steps, coupling every {CONFIG.couple_every})",
        ["s/step", "coupling wait s", "tcp poll s"],
    )
    runs = [
        (ClimateMode.SELECTIVE, {}),
        (ClimateMode.FORWARDING, {}),
        (ClimateMode.SKIP_POLL, {"skip_poll": 1}),
        (ClimateMode.SKIP_POLL, {"skip_poll": 1000}),
        (ClimateMode.ALL_TCP, {}),
    ]
    checksums = set()
    for mode, kwargs in runs:
        result = run_coupled_model(CONFIG, mode, **kwargs)
        table.add(result.label, result.seconds_per_step,
                  result.coupling_wait, result.tcp_poll_time)
        checksums.add((round(result.atmo_checksum, 9),
                       round(result.ocean_checksum, 9)))
    print(table.render())
    assert len(checksums) == 1, "physics must not depend on comm config"
    print("\nmodel state identical across all configurations "
          f"(atmosphere checksum {checksums.pop()[0]:.4f}) — the "
          "communication method changes *when*, never *what*.")


if __name__ == "__main__":
    main()

"""perfbench — the repo's benchmark: six workloads, one command.

``python -m perfbench`` runs every workload in its own fresh subprocess
and prints every metric of ``BENCHMARK.json`` by name and unit;
``python -m perfbench --workload W --seed N --seconds S --trace 0|1`` is
the single-workload form the benchmark driver calls.  See README.md.
"""

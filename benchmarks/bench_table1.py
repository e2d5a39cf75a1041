"""Regenerate Table 1: coupled-model seconds per timestep, all rows.

Rows: Selective TCP, Forwarding, skip poll {1, 100, 10000, 12000,
13000}, plus skip poll 100000 (to exhibit the detection-latency rise)
and the all-TCP no-multimethod baseline the paper's text describes.
Shape criteria: selective best; select-overhead region decreasing;
detection region rising; tuned polling beats forwarding; all-TCP is
several times worse than any multimethod row.
"""

from repro.bench.table1 import check_table1_shape, table1


def test_table1(run_once, bench_record):
    table = run_once(table1)
    print()
    print(table.render())
    bench_record.extend("table1", table.metrics())
    check_table1_shape(table)

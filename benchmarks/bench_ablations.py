"""Ablation benchmarks for design choices discussed in the paper's text.

* blocking-handler TCP detection (Section 3.3's AIX 4.1 refinement);
* the MPI-on-Nexus layering overhead (Section 4's ~6 %);
* adaptive skip_poll (Section 6 future work, implemented);
* lightweight startpoints (Section 3.1's size optimisation).
"""

from repro.bench.ablations import (
    ablation_adaptive_skip,
    ablation_blocking_poll,
    ablation_lightweight_startpoints,
    ablation_mpi_layering,
    ablation_rendezvous,
)


def test_blocking_poll(run_once, bench_record):
    result = run_once(ablation_blocking_poll)
    print()
    print(result.render())
    bench_record.extend("ablations", result.metrics())
    result.check_shape()


def test_mpi_layering(run_once, bench_record):
    result = run_once(ablation_mpi_layering)
    print(f"\nMPI-on-Nexus layering overhead: {result.overhead * 100:.1f}% "
          f"(paper reports ~6% on the full climate model)")
    bench_record.extend("ablations", result.metrics())
    result.check_shape()


def test_adaptive_skip(run_once, bench_record):
    result = run_once(ablation_adaptive_skip)
    bench_record.extend("ablations", result.metrics())
    print(f"\nadaptive skip_poll: MPL one-way "
          f"{result.adaptive_mpl * 1e6:.1f} us vs best static "
          f"{result.best_static_mpl() * 1e6:.1f} us; final skip values "
          f"{result.final_skips}")
    result.check_shape()


def test_lightweight_startpoints(run_once, bench_record):
    sizes = run_once(ablation_lightweight_startpoints)
    bench_record.extend("ablations", sizes.metrics())
    print(f"\nstartpoint wire size: full={sizes.full_bytes} B, "
          f"lightweight={sizes.lightweight_bytes} B "
          f"({sizes.saving * 100:.0f}% saving)")
    sizes.check_shape()


def test_rendezvous_protocol(run_once, bench_record):
    result = run_once(ablation_rendezvous)
    bench_record.extend("ablations", result.metrics())
    print(f"\neager vs rendezvous (6 x 512 KB burst, late receiver):")
    print(f"  completion: eager {result.eager_time * 1e3:.1f} ms, "
          f"rendezvous {result.rendezvous_time * 1e3:.1f} ms")
    print(f"  peak unexpected bytes parked: eager "
          f"{result.eager_parked_bytes}, rendezvous "
          f"{result.rendezvous_parked_bytes} "
          f"({result.parked_reduction:.0%} reduction)")
    result.check_shape()

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
    # Paper: blocking detection leaves MPL essentially at single-method
    # speed while TCP detection does not suffer.
    assert result.mpl_blocking <= result.mpl_skip20 * 1.05
    assert result.mpl_blocking < 0.5 * result.mpl_unified
    assert result.tcp_blocking <= result.tcp_unified * 1.10


def test_mpi_layering(run_once, bench_record):
    result = run_once(ablation_mpi_layering)
    print(f"\nMPI-on-Nexus layering overhead: {result.overhead * 100:.1f}% "
          f"(paper reports ~6% on the full climate model)")
    bench_record.extend("ablations", result.metrics())
    assert 0.0 < result.overhead < 0.15


def test_adaptive_skip(run_once, bench_record):
    result = run_once(ablation_adaptive_skip)
    bench_record.extend("ablations", result.metrics())
    print(f"\nadaptive skip_poll: MPL one-way "
          f"{result.adaptive_mpl * 1e6:.1f} us vs best static "
          f"{result.best_static_mpl() * 1e6:.1f} us; final skip values "
          f"{result.final_skips}")
    # The controller should land within 25% of the tuned static optimum
    # and must not leave any context at the pathological skip=1 *unless*
    # that context is TCP-busy (where skip=1 is correct).
    assert result.adaptive_mpl <= result.best_static_mpl() * 1.25
    assert max(result.final_skips) > 1  # idle TCP pollers backed off


def test_lightweight_startpoints(run_once, bench_record):
    sizes = run_once(ablation_lightweight_startpoints)
    bench_record.extend("ablations", sizes.metrics())
    print(f"\nstartpoint wire size: full={sizes.full_bytes} B, "
          f"lightweight={sizes.lightweight_bytes} B "
          f"({sizes.saving * 100:.0f}% saving)")
    assert sizes.saving > 0.5
    # Paper: a descriptor table costs "a few tens of bytes".
    assert 20 <= sizes.full_bytes - sizes.lightweight_bytes <= 200


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
    # Rendezvous bounds receiver memory at the cost of extra round trips.
    assert result.parked_reduction > 0.95
    assert result.eager_parked_bytes >= 5 * 512 * 1024
    assert result.rendezvous_time >= result.eager_time * 0.9

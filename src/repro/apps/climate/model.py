"""The coupled-model driver: Table 1's experiment in executable form.

Builds the paper's platform (16-node + 8-node SP2 partitions), places a
really-computing atmosphere and ocean on them over mini-MPI, configures
one of the four multimethod modes, runs a fixed number of coupled steps,
and reports seconds per timestep plus diagnostic breakdowns.

Workload model per atmosphere step and rank (see
:class:`~repro.apps.climate.config.ClimateConfig` for the calibration):

* three real halo exchanges (h, u, v) through mini-MPI;
* one real physics update (numpy; verified by the test suite);
* ``ops_per_step`` Nexus operations + ``atmo_compute_s`` of computation,
  charged through the poll manager's ``busy_work`` so every operation
  runs the (possibly skip-decimated) polling function;
* ``bulk_phases`` real transpose-style exchanges of
  ``bulk_bytes_per_phase`` with the partner rank;
* a semi-analytic fine-grained message chain priced at the *currently
  selected* method's per-message cost.

Every ``couple_every`` steps the models exchange flux/SST over the
partition boundary (TCP).
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from ...core.context import Context
from ...core.enquiry import estimate_one_way
from ...core.forwarding import ForwardingService
from ...mpi.communicator import Communicator
from ...mpi.datatypes import Padded
from ...mpi.mpi import MPIWorld, MpiConfig, MpiProcess
from ...simnet.link import LinkProfile
from ...testbeds import SP2_SWITCH_TCP, make_sp2
from ...transports.costmodels import RuntimeCosts
from .atmosphere import Atmosphere
from .config import ClimateConfig, ClimateMode
from .coupling import atmo_children, atmo_exchange, ocean_exchange
from .grid import halo_exchange
from .ocean import Ocean
from .regrid import regrid

TAG_BULK = 301


def _ops_for(cfg: ClimateConfig, rank: int, step: int) -> int:
    """Per-rank, per-step Nexus operation count.

    A deterministic, centred jitter (±~15k ops around ``ops_per_step``)
    decorrelates the ranks' poll counters.  Real model ranks never
    execute identical op counts (physics is latitude-dependent); without
    this, every rank's ``skip_poll`` counter sits at the same phase and
    the coupling-detection delay becomes an arbitrary function of
    ``counter mod k`` instead of its expected value.
    """
    jitter = ((rank + 1) * 509 + (step + 1) * 1031) % 30011 - 15005
    return max(cfg.ops_per_step + jitter, 1)


@dataclasses.dataclass
class ClimateResult:
    """Outcome of one coupled-model run."""

    mode: ClimateMode
    skip_poll: int
    config: ClimateConfig
    total_time: float
    coupling_wait: float        # mean seconds per rank spent in the coupler
    tcp_poll_time: float        # total select time across all contexts
    atmo_checksum: float
    ocean_checksum: float
    events_processed: int

    @property
    def seconds_per_step(self) -> float:
        return self.total_time / self.config.steps

    @property
    def label(self) -> str:
        if self.mode is ClimateMode.SKIP_POLL:
            return f"skip poll {self.skip_poll}"
        return {
            ClimateMode.ALL_TCP: "all TCP (no multimethod)",
            ClimateMode.SELECTIVE: "Selective TCP",
            ClimateMode.FORWARDING: "Forwarding",
            ClimateMode.ADAPTIVE: "adaptive skip poll",
        }[self.mode]


def _internal_section(proc: MpiProcess, mode: ClimateMode):
    """The poll mask for the model-internal program section."""
    if mode is ClimateMode.SELECTIVE:
        return proc.context.poll_manager.only("local", "mpl")
    return contextlib.nullcontext()


def _bulk_partner(local_rank: int, size: int) -> int:
    """Disjoint transpose pairing: even↔odd neighbour."""
    partner = local_rank ^ 1
    return partner if partner < size else local_rank


def _bulk_exchanges(proc: MpiProcess, comm: Communicator, local_rank: int,
                    cfg: ClimateConfig):
    """Generator: the per-step transpose-style bulk exchanges."""
    partner = _bulk_partner(local_rank, comm.size)
    if partner == local_rank:
        return
    for phase in range(cfg.bulk_phases):
        yield from proc.sendrecv(
            Padded(None, cfg.bulk_bytes_per_phase), partner,
            TAG_BULK + phase, partner, TAG_BULK + phase, comm)


def _small_traffic(proc: MpiProcess, neighbour_world: int,
                   cfg: ClimateConfig):
    """Generator: semi-analytic fine-grained internal message chain.

    ``small_msgs_per_step`` request/response messages priced at the
    per-message cost of the method actually selected on the link to the
    neighbour.  (The matching poll activity for these operations is part
    of ``ops_per_step`` in ``busy_work``.)
    """
    context = proc.context
    sp = proc.startpoint_to(neighbour_world)
    if sp.links[0].comm is None:
        sp.ensure_connected(sp.links[0])
    per_message = estimate_one_way(context, sp, cfg.small_msg_bytes)
    assert per_message is not None
    yield from context.charge(cfg.small_msgs_per_step * per_message)


def run_coupled_model(cfg: ClimateConfig, mode: ClimateMode, *,
                      skip_poll: int = 1,
                      mpi_config: MpiConfig | None = None,
                      seed: int = 0,
                      transports: _t.Sequence[str] | None = None,
                      costs: _t.Mapping[str, object] | None = None,
                      runtime_costs: RuntimeCosts | None = None,
                      switch_tcp: LinkProfile = SP2_SWITCH_TCP,
                      methods: _t.Sequence[str] | None = None,
                      retry_policy: object | None = None,
                      health: object | None = None,
                      on_start: _t.Callable[..., None] | None = None,
                      on_finish: _t.Callable[..., None] | None = None,
                      ) -> ClimateResult:
    """Run the coupled model in one multimethod configuration.

    ``transports``/``costs``/``runtime_costs``/``retry_policy``/``health``
    flow through to the testbed's :class:`~repro.core.runtime.Nexus` and
    ``switch_tcp`` to its switch; ``methods`` overrides the per-context
    method set the mode would pick.  The two hooks frame the simulation
    itself: ``on_start(bed, contexts)`` fires after every context and MPI
    process exists but before the clock moves (install fault plans here);
    ``on_finish(bed, contexts)`` fires once all ranks finish, while the
    runtime is still inspectable.
    """
    bed = make_sp2(nodes_a=cfg.atmo_ranks, nodes_b=cfg.ocean_ranks,
                   seed=seed,
                   transports=transports or ("local", "mpl", "tcp"),
                   costs=costs,  # type: ignore[arg-type]
                   runtime_costs=runtime_costs, switch_tcp=switch_tcp,
                   retry_policy=retry_policy,  # type: ignore[arg-type]
                   health=health)  # type: ignore[arg-type]
    nexus = bed.nexus
    if methods is None:
        methods = (("local", "tcp") if mode is ClimateMode.ALL_TCP
                   else ("local", "mpl", "tcp"))
    atmo_ctxs = [nexus.context(h, f"atmo{i}", methods=methods)
                 for i, h in enumerate(bed.hosts_a)]
    ocean_ctxs = [nexus.context(h, f"ocean{i}", methods=methods)
                  for i, h in enumerate(bed.hosts_b)]
    contexts: list[Context] = atmo_ctxs + ocean_ctxs

    if mode is ClimateMode.SKIP_POLL:
        for ctx in contexts:
            ctx.poll_manager.set_skip("tcp", skip_poll)
    elif mode is ClimateMode.ADAPTIVE:
        from ...core.adaptive import AdaptiveConfig, AdaptiveSkipPoll

        # Bound the back-off so that worst-case detection latency
        # (skip x wait-loop cycle) stays within the budget: the select
        # tax is already negligible well before that bound.
        cycle = nexus.runtime_costs.wait_loop_cycle
        max_skip = max(int(cfg.adaptive_latency_budget / cycle), 8)
        for ctx in contexts:
            controller = AdaptiveSkipPoll(
                ctx, "tcp",
                AdaptiveConfig(max_skip=max_skip, raise_after_misses=4,
                               latency_budget=cfg.adaptive_latency_budget))
            controller.attach()
    elif mode is ClimateMode.FORWARDING:
        # One dedicated forwarder per partition: all external TCP traffic
        # lands there and is re-sent over MPL; other nodes stop polling
        # TCP altogether (Section 3.3).
        for forwarder, members in ((atmo_ctxs[0], atmo_ctxs),
                                   (ocean_ctxs[0], ocean_ctxs)):
            service = ForwardingService(nexus)
            service.install(forwarder, members)

    world = MPIWorld(nexus, contexts, config=mpi_config)
    atmo_comm = world.create_comm(range(cfg.atmo_ranks))
    ocean_comm = world.create_comm(
        range(cfg.atmo_ranks, cfg.total_ranks))

    atmos: dict[int, Atmosphere] = {}
    oceans: dict[int, Ocean] = {}
    coupling_wait = {"total": 0.0}

    def atmo_body(proc: MpiProcess):
        rank = proc.rank  # == atmosphere-local rank
        model = Atmosphere(rank, cfg.atmo_ranks, cfg.atmo_nx, cfg.atmo_ny,
                           seed=seed)
        atmos[rank] = model
        neighbour = rank + 1 if rank + 1 < cfg.atmo_ranks else rank - 1
        for step in range(cfg.steps):
            with _internal_section(proc, mode):
                for slab in model.slabs:
                    yield from halo_exchange(proc, atmo_comm, slab)
                model.step_interior()
                yield from proc.context.poll_manager.busy_work(
                    _ops_for(cfg, proc.rank, step), cfg.atmo_compute_s)
                yield from _bulk_exchanges(proc, atmo_comm, rank, cfg)
                yield from _small_traffic(proc, neighbour, cfg)
            if (step + 1) % cfg.couple_every == 0:
                started = nexus.now
                flux = model.surface_fluxes()
                sst = yield from atmo_exchange(
                    proc, flux, atmo_rank=rank, atmo_ranks=cfg.atmo_ranks,
                    ocean_ranks=cfg.ocean_ranks,
                    coupling_bytes=cfg.coupling_bytes)
                model.apply_sst(sst)
                coupling_wait["total"] += nexus.now - started

    def ocean_body(proc: MpiProcess):
        local = proc.rank - cfg.atmo_ranks
        model = Ocean(local, cfg.ocean_ranks, cfg.ocean_nx, cfg.ocean_ny,
                      seed=seed + 1)
        oceans[local] = model
        neighbour_local = local + 1 if local + 1 < cfg.ocean_ranks else local - 1
        neighbour_world = cfg.atmo_ranks + neighbour_local
        children = atmo_children(local, cfg.atmo_ranks, cfg.ocean_ranks)
        band_rows = model.sst.local_ny // len(children)
        atmo_band = (cfg.atmo_ny // cfg.atmo_ranks, cfg.atmo_nx)

        def sst_for(index: int):
            band = model.surface_temperature()[
                index * band_rows:(index + 1) * band_rows]
            # Regrid to the atmosphere child's band (identity when the
            # grids agree).
            return regrid(band, atmo_band)

        def apply_flux(index: int, flux):
            model.flux.interior[
                index * band_rows:(index + 1) * band_rows] = regrid(
                    flux, (band_rows, cfg.ocean_nx))

        for step in range(cfg.steps):
            with _internal_section(proc, mode):
                yield from halo_exchange(proc, ocean_comm, model.sst)
                model.step_interior()
                yield from proc.context.poll_manager.busy_work(
                    _ops_for(cfg, proc.rank, step), cfg.ocean_compute_s)
                yield from _bulk_exchanges(proc, ocean_comm, local, cfg)
                if cfg.ocean_ranks > 1:
                    yield from _small_traffic(proc, neighbour_world, cfg)
            if (step + 1) % cfg.couple_every == 0:
                started = nexus.now
                yield from ocean_exchange(
                    proc, sst_for, apply_flux, ocean_rank=local,
                    atmo_ranks=cfg.atmo_ranks, ocean_ranks=cfg.ocean_ranks,
                    coupling_bytes=cfg.coupling_bytes)
                coupling_wait["total"] += nexus.now - started

    handles = []
    handles += world.run_spmd(atmo_body, ranks=range(cfg.atmo_ranks))
    handles += world.run_spmd(ocean_body,
                              ranks=range(cfg.atmo_ranks, cfg.total_ranks))
    if on_start is not None:
        on_start(bed, contexts)
    nexus.run_until(*handles)
    if on_finish is not None:
        on_finish(bed, contexts)

    tcp_poll_time = sum(
        ctx.poll_manager.stats.poll_time.get("tcp", 0.0) for ctx in contexts)
    return ClimateResult(
        mode=mode,
        skip_poll=skip_poll if mode is ClimateMode.SKIP_POLL else 0,
        config=cfg,
        total_time=nexus.now,
        coupling_wait=coupling_wait["total"] / cfg.total_ranks,
        tcp_poll_time=tcp_poll_time,
        atmo_checksum=sum(m.checksum() for m in atmos.values()),
        ocean_checksum=sum(m.checksum() for m in oceans.values()),
        events_processed=nexus.sim.events_processed,
    )

"""repro — reproduction of *Multimethod Communication for
High-Performance Metacomputing Applications* (Foster, Geisler,
Kesselman, Tuecke; SC 1996).

The package implements the paper's Nexus multimethod communication
architecture from scratch on a deterministic discrete-event simulation
substrate, plus everything the evaluation depends on: eight
communication modules, a mini-MPI layered on the Nexus core, the coupled
climate model case study, and a benchmark harness regenerating every
figure and table.

Quick start::

    from repro import Buffer, make_sp2

    bed = make_sp2(nodes_a=1, nodes_b=1)
    with bed.nexus as nexus:
        a = nexus.context(bed.hosts_a[0], "a")
        b = nexus.context(bed.hosts_b[0], "b")

        b.register_handler("hello",
                           lambda ctx, ep, buf: print(buf.get_str()))
        sp = a.startpoint_to(b.new_endpoint())

        def main():
            yield from sp.rsr("hello", Buffer().put_str("hi over TCP"))
            yield from a.charge(0.01)

        nexus.run_until(main())

Layering (bottom to top): :mod:`repro.simnet` (event engine + machine
model) → :mod:`repro.transports` (communication modules) →
:mod:`repro.core` (Nexus) → :mod:`repro.mpi` (mini-MPI) →
:mod:`repro.apps` (workloads) → :mod:`repro.bench` (experiments).
"""

from .core import (
    AdaptiveConfig,
    AdaptiveSkipPoll,
    Buffer,
    CommDescriptorTable,
    Context,
    Endpoint,
    EnquiryReport,
    FirstApplicable,
    ForwardingService,
    HealthConfig,
    HealthReport,
    NO_RETRY,
    Nexus,
    NexusError,
    RequireMethod,
    RetryPolicy,
    SelectionError,
    Startpoint,
    enquiry,
)
from .simnet import (
    FaultPlan,
    Host,
    LinkProfile,
    Machine,
    Network,
    Partition,
    Simulator,
)
from .testbeds import IWayTestbed, SP2Testbed, make_iway, make_sp2
from .transports import DeliveryError, RuntimeCosts, TransportCosts

# Programming-model layers (imported lazily by most users, re-exported
# for convenience): repro.mpi, repro.rpc, repro.fm, repro.baselines.

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSkipPoll",
    "Buffer",
    "CommDescriptorTable",
    "Context",
    "DeliveryError",
    "Endpoint",
    "EnquiryReport",
    "FaultPlan",
    "FirstApplicable",
    "ForwardingService",
    "HealthConfig",
    "HealthReport",
    "Host",
    "IWayTestbed",
    "LinkProfile",
    "Machine",
    "NO_RETRY",
    "Network",
    "Nexus",
    "NexusError",
    "Partition",
    "RequireMethod",
    "RetryPolicy",
    "RuntimeCosts",
    "SP2Testbed",
    "SelectionError",
    "Simulator",
    "Startpoint",
    "TransportCosts",
    "__version__",
    "enquiry",
    "make_iway",
    "make_sp2",
]

"""repro.fm — Fortran M-style typed channels over communication links.

Fortran M (Foster & Chandy, reference [14]) was one of the parallel
languages implemented on Nexus: processes communicate through
single-reader *channels*, referenced by *inports* and *outports*, with
outports first-class values that can travel in messages.  The mapping
onto the paper's abstractions is exact and is why this layer is tiny:

* an inport is an endpoint plus a FIFO of arrived values;
* an outport is a startpoint — mobile, multimethod, re-selected
  wherever it lands;
* an FM *merger* (many writers, one reader) is precisely the paper's
  "if more than one startpoint is bound to an endpoint, incoming
  communications are merged".

Channels carry typed payloads (the MPI payload encoding) and ports
themselves; writers announce themselves (a port sent on a channel) and
retire (close), and
a read on a fully closed, drained channel raises
:class:`ChannelClosed` — FM's end-of-channel condition.
"""

from .channels import (
    ChannelClosed,
    FmError,
    InPort,
    OutPort,
    channel,
)

__all__ = [
    "ChannelClosed",
    "FmError",
    "InPort",
    "OutPort",
    "channel",
]

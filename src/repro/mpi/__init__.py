"""repro.mpi — a mini-MPI layered on the Nexus core.

Reproduces the structure of the MPICH-on-Nexus implementation the paper
used, as far as its applications call it: two-sided tag/source
matching, communicators with private contexts, blocking point-to-point,
``irecv`` requests, and linear gather/scatter — all over one-sided
RSRs, so every MPI call exercises the multimethod polling machinery.
"""

from .communicator import Communicator
from .datatypes import Padded, Payload, pack_payload, payload_nbytes, unpack_payload
from .errors import (
    MatchingError,
    MpiError,
    RankError,
    RequestError,
)
from .matching import MatchingQueues, MpiMessage, PostedRecv
from .mpi import MPI_ENVELOPE_BYTES, MPIWorld, MpiConfig, MpiProcess
from .request import Request
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MPIWorld",
    "MPI_ENVELOPE_BYTES",
    "MatchingError",
    "MatchingQueues",
    "MpiConfig",
    "MpiError",
    "MpiMessage",
    "MpiProcess",
    "Padded",
    "Payload",
    "PostedRecv",
    "RankError",
    "Request",
    "RequestError",
    "Status",
    "pack_payload",
    "payload_nbytes",
    "unpack_payload",
]

"""Exceptions for the mini-MPI layer."""

from __future__ import annotations


class MpiError(Exception):
    """Base class for mini-MPI errors."""


class RankError(MpiError):
    """Rank out of range / caller not a member of the communicator."""


class MatchingError(MpiError):
    """Illegal matching-queue operation."""


class RequestError(MpiError):
    """Illegal operation on a request (double wait, unstarted...)."""

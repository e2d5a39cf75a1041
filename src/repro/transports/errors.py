"""Exceptions for the transport layer."""

from __future__ import annotations


class TransportError(Exception):
    """Base class for communication-module errors."""


class DeliveryError(TransportError):
    """A message could not be delivered (routing failure, closed context)."""


class RegistryError(TransportError):
    """Unknown transport name, or a name registered twice."""

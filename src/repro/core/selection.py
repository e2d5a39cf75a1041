"""Communication-method selection policies (Section 3.2).

"Nexus currently uses a simple automatic selection rule: a received
descriptor table is scanned in order and the first 'applicable'
communication method is used."  :class:`FirstApplicable` is that rule;
because descriptor tables are built fastest-first, it realises the
fastest-first policy, and it is what a startpoint without a policy of
its own uses.  :class:`RequireMethod` is manual selection: the named
method or an error.  The paper's other manual levers need no policy:
the user "can also influence the choice of method by reordering entries
within the communication descriptor table or by adding or deleting
descriptors" (:class:`~repro.core.descriptor_table.CommDescriptorTable`'s
edits), and :meth:`~repro.core.startpoint.Startpoint.set_method`
switches a startpoint's links at run time.
"""

from __future__ import annotations

import abc
import typing as _t

from ..transports.base import Descriptor
from .descriptor_table import CommDescriptorTable
from .errors import SelectionError

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.node import Host
    from .context import Context


class SelectionPolicy(abc.ABC):
    """Chooses a communication method for one link of a startpoint."""

    @abc.abstractmethod
    def select(self, context: "Context", table: CommDescriptorTable,
               remote_host: "Host") -> Descriptor:
        """Return the chosen descriptor, or raise :class:`SelectionError`."""

    def _applicable(self, context: "Context", descriptor: Descriptor,
                    remote_host: "Host") -> bool:
        """Is this entry usable?  (method enabled locally + module check)."""
        registry = context.nexus.transports
        if descriptor.method not in registry:
            return False
        transport = registry.get(descriptor.method)
        return transport.applicable(context, descriptor, remote_host)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FirstApplicable(SelectionPolicy):
    """The paper's automatic rule: first applicable entry in table order."""

    def select(self, context: "Context", table: CommDescriptorTable,
               remote_host: "Host") -> Descriptor:
        for descriptor in table:
            if self._applicable(context, descriptor, remote_host):
                return descriptor
        raise SelectionError(
            f"no applicable method in table {table.methods} from context "
            f"{context.id} to host {remote_host.name!r}"
        )


class RequireMethod(SelectionPolicy):
    """Strict manual selection: the named method or an error."""

    def __init__(self, method: str):
        self.method = method

    def select(self, context: "Context", table: CommDescriptorTable,
               remote_host: "Host") -> Descriptor:
        if self.method not in table:
            raise SelectionError(
                f"required method {self.method!r} not in table {table.methods}"
            )
        descriptor = table.entry(self.method)
        if not self._applicable(context, descriptor, remote_host):
            raise SelectionError(
                f"required method {self.method!r} is not applicable from "
                f"context {context.id} to host {remote_host.name!r}"
            )
        return descriptor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RequireMethod({self.method!r})"

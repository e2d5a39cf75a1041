"""Deterministic named random streams.

Every stochastic element of the simulation (UDP loss, jitter models,
workload generators) draws from a *named* substream derived from a single
root seed, so adding a new consumer never perturbs the draws seen by
existing ones.  This is the standard reproducibility discipline for
simulation studies.
"""

from __future__ import annotations

import typing as _t
import zlib

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def derive(seed: int, *names: str) -> np.random.SeedSequence:
    """Derive a child seed from a root ``seed`` and a path of ``names``.

    Returns a :class:`numpy.random.SeedSequence` whose spawn key is the
    crc32 of each path component, so the mapping is stable across
    processes and Python versions and never collides with a differently
    named consumer.  This is the one sanctioned way to mint a per-rule /
    per-client / per-stream seed: ``derive(seed, "flaky", "a<->b")``
    instead of hand-rolled ``seed + index`` arithmetic.

    ``derive(seed, name)`` with a single name is byte-compatible with
    the substream mapping :class:`RandomStreams` has always used.
    """
    import numpy as np

    return np.random.SeedSequence(
        entropy=int(seed),
        spawn_key=tuple(zlib.crc32(name.encode("utf-8")) for name in names),
    )


def derived_generator(seed: int, *names: str) -> np.random.Generator:
    """A fresh PCG64 generator seeded with :func:`derive`."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(derive(seed, *names)))


class RandomStreams:
    """A factory of independent, named :class:`numpy.random.Generator` streams.

    numpy is imported by the first :meth:`stream` call, not by this
    module, so a run that never draws never loads it.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The substream seed is :func:`derive`'d from ``(root seed, name)``.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = derived_generator(self.seed, name)
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"

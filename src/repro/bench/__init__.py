"""repro.bench — experiment drivers regenerating the paper's evaluation.

One module per artefact, one protocol for all of them.  Each module
ends with ``ARTEFACT = Artefact(name, run, check, ...)``:
``run(options)`` takes a :class:`RunOptions` and returns a result
object with ``render() -> str`` (everything the CLI prints) and
``metrics() -> Iterable[Metric]`` (everything ``--record`` stores);
``check(result)`` asserts the qualitative shape criteria from
DESIGN.md.  :data:`ARTEFACTS` is the one ordered table, ``name ->
module path``, resolved by :func:`artefact` on use; the serial CLI
loop, the ``--jobs`` fleet runner and ``--selfcheck`` all walk it and
call :meth:`Artefact.execute`.
Adding an artefact is one module plus one table line; the
``benchmarks/`` pytest files are thin wrappers over the same drivers.

:mod:`repro.bench.record` gives the numbers a machine-readable form: a
schema-versioned, byte-deterministic ``BENCH_<label>.json`` document
per run plus the baseline regression gate behind
``python -m repro.bench --baseline BASE.json --check``.
"""

from __future__ import annotations

import dataclasses
import importlib
import typing as _t


@dataclasses.dataclass(frozen=True)
class RunOptions:
    """Everything the CLI flags tell an artefact's ``run`` (picklable)."""

    quick: bool = False
    #: ``--export-dir``: where exporting artefacts write their documents.
    export_dir: str | None = None
    #: ``--stream-dir`` / ``--sample`` / ``--sample-seed``: span spooling.
    stream_dir: str | None = None
    sample: str | None = None
    sample_seed: int = 0


@dataclasses.dataclass(frozen=True)
class Artefact:
    """One table entry: how to run, check and select an artefact."""

    name: str
    #: Returns a result with ``render()`` and ``metrics()``.
    run: _t.Callable[[RunOptions], _t.Any]
    #: Asserts the result's shape criteria.
    check: _t.Callable[[_t.Any], None]
    #: The shape check also holds at ``--quick`` workload sizes.
    check_quick: bool = False
    #: Part of the default "run everything" selection.
    default: bool = True

    def execute(self, options: RunOptions) -> tuple[_t.Any, str]:
        """Run, render, check: the work every dispatcher does.
        Returns the result and its printed form."""
        result = self.run(options)
        text = result.render()
        if self.check_quick or not options.quick:
            self.check(result)
            text += "\nshape: OK"
        return result, text


#: Every artefact, in run order: name -> module holding its ``ARTEFACT``.
ARTEFACTS: dict[str, str] = {
    name: f"{__name__}.{name}"
    for name in ("figure4", "figure6", "table1", "ablations", "baselines",
                 "chaos", "load", "analysis", "place", "fleet")
}


def artefact(name: str) -> Artefact:
    """Resolve one table entry (imports its module on first use)."""
    if name not in ARTEFACTS:
        raise LookupError(f"unknown bench artefact {name!r}; choose from "
                          f"{', '.join(ARTEFACTS)}")
    return importlib.import_module(ARTEFACTS[name]).ARTEFACT

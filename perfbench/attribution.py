"""cProfile self time and call counts, bucketed by the repo's layers.

A function belongs to the layer whose package holds its file
(``.../repro/<layer>/...``); numpy code and numpy builtins are
``ext_numpy``; everything else is ``ext_python``.  Counts are exact and
repeat run to run; times carry cProfile's per-call overhead, so read
them as shares, not as seconds saved.
"""

from __future__ import annotations

import os
import typing as _t

from .catalogue import BUCKETS, LAYERS

_REPRO = os.sep + "repro" + os.sep


def bucket_of(code: object) -> str:
    """The bucket of one profiler entry's ``code`` (code object or, for
    a builtin, its description string)."""
    if isinstance(code, str):
        return "ext_numpy" if "numpy" in code else "ext_python"
    filename = code.co_filename
    _head, sep, tail = filename.rpartition(_REPRO)
    if sep:
        layer = tail.partition(os.sep)[0]
        if layer in LAYERS:
            return layer
    elif os.sep + "numpy" + os.sep in filename:
        return "ext_numpy"
    return "ext_python"


def attribute(stats: _t.Iterable[_t.Any]) -> dict[str, float]:
    """``<bucket>.self_s/.self_frac/.calls/.entry_calls`` and
    ``py_calls`` from ``cProfile.Profile.getstats()``."""
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    entry_calls = dict.fromkeys(BUCKETS, 0)
    for entry in stats:
        bucket = bucket_of(entry.code)
        self_s[bucket] += entry.inlinetime
        calls[bucket] += entry.callcount
        for sub in entry.calls or ():
            callee = bucket_of(sub.code)
            if callee != bucket:
                entry_calls[callee] += sub.callcount
    total = sum(self_s.values())
    out: dict[str, float] = {"py_calls": sum(calls.values())}
    for bucket in BUCKETS:
        out[f"{bucket}.self_s"] = self_s[bucket]
        out[f"{bucket}.self_frac"] = self_s[bucket] / total if total else 0.0
        out[f"{bucket}.calls"] = calls[bucket]
        out[f"{bucket}.entry_calls"] = entry_calls[bucket]
    return out

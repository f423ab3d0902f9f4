"""In-memory spans and per-package profile shares for the traced run.

The benchmark measures each layer from outside: :class:`Tracer` swaps
a timing wrapper in for a public function or method for the length of
the traced run and puts the original back afterwards.  Nothing in the
``repro`` package is edited.

Per-packet and per-tick loops (``Simulator.run``, ``FluidModel.run``,
shard analysis) call across layers far too often for a wrapper per
call, so :func:`profile_groups` aggregates a standard-library
``cProfile`` run by the ``repro.<package>`` each function lives in.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import os
import pstats
import time


class Tracer:
    """Records spans (name, start, end, parent, run id) in memory.

    Each span may carry a small ``data`` dict -- the counts measured
    at the same boundary (events executed, ticks, bytes written).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the body as one span; yields its ``data`` dict."""
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id, "data": {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record["data"]
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, before=None,
             after=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`restore`.

        ``after(data, args, result, state)`` may add counts to the
        span, where ``state`` is ``before(args)`` taken just ahead of
        the call (a counter's value, say, to take a difference).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            state = before(args) if before else None
            with self.span(name) as data:
                result = original(*args, **kwargs)
                if after:
                    after(data, args, result, state)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def total_s(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def data_sum(self, name: str, key: str) -> int:
        return sum(s["data"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def dump(self, path: str) -> None:
        """Write the spans out (called once, when the run ends)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _group_of(filename: str, funcname: str, repro_root: str) -> str:
    """The package a profiled function is attributed to.

    ``repro.fluid`` splits by module (flows, queue, probe, model),
    because those are the layers of the fluid engine; ``repro.ndt``
    splits the same way.  NumPy counts both its Python code and its
    C methods (which cProfile files under ``~``).
    """
    if filename.startswith(repro_root):
        parts = filename[len(repro_root):].split(os.sep)
        if len(parts) >= 2 and parts[0] in ("fluid", "ndt"):
            return f"{parts[0]}.{os.path.splitext(parts[1])[0]}"
        return parts[0] if len(parts) >= 2 else "repro"
    if f"{os.sep}numpy{os.sep}" in filename or (
            filename == "~" and "numpy" in funcname):
        return "numpy"
    return "other"


def profile_groups(profile: cProfile.Profile, repro_root: str) -> dict:
    """Self time and call counts summed per package group.

    Returns ``{group: {"self_s": float, "calls": int}}`` plus the
    total self time under ``"_total_s"``.
    """
    stats = pstats.Stats(profile).stats
    groups: dict[str, dict] = {}
    total = 0.0
    for (filename, _line, funcname), (_cc, nc, tt, _ct, _callers) \
            in stats.items():
        group = groups.setdefault(_group_of(filename, funcname, repro_root),
                                  {"self_s": 0.0, "calls": 0})
        group["self_s"] += tt
        group["calls"] += nc
        total += tt
    groups["_total_s"] = total
    return groups


def self_frac(groups: dict, name: str) -> float:
    """Share of profiled self time spent in group ``name`` (prefix
    match, so ``"fluid"`` would cover every fluid module)."""
    total = groups["_total_s"]
    if not total:
        return 0.0
    return sum(g["self_s"] for key, g in groups.items()
               if key != "_total_s" and (key == name
                                         or key.startswith(name + "."))
               ) / total


def calls(groups: dict, name: str) -> int:
    return sum(g["calls"] for key, g in groups.items()
               if key != "_total_s" and (key == name
                                         or key.startswith(name + ".")))

"""Spans recorded from outside the program, by wrapping its public functions.

:class:`Tracer` replaces each named function or method *where its caller
looks it up* (a module attribute such as
``repro.serve.request.decide_paths``, or a class attribute such as
``ShardRuntime.step``) with a wrapper that records one span per call:
name, start, end, parent span and run id.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory as flat integer arrays (a few hundred thousand per
repetition) and are written once, at the end, as Chrome ``trace_event``
JSON.  A span's *self time* is its duration minus the part covered by its
direct child spans; calls run on one thread, so children nest strictly
and that part is the sum of the children's durations.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

#: Spans written to the Chrome trace file (the aggregates use them all).
MAX_FILE_SPANS = 50_000


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._run = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Tag of the spans recorded next (the benchmark's phase id).
        self.run_id = 0

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, span: str, observe=None) -> None:
        """Record a ``span`` around every call of ``owner.attr``.

        ``observe(args, result)``, if given, runs after each call.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            index = enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(index)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped name, last patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter(self, name_id: int) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def _leave(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self._name)

    def reset(self) -> None:
        """Drop every recorded span (the patches stay)."""
        for column in (self._name, self._parent, self._run, self._start, self._end):
            del column[:]
        self._stack.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        run = np.frombuffer(self._run, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        return name, parent, run, start, end

    def self_ns(self) -> np.ndarray:
        """Per-span duration minus direct-child coverage, in ns."""
        _, parent, _, start, end = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - covered.astype(np.int64)

    def totals(self, run_id: int) -> dict[str, dict[str, float]]:
        """``{span: {"calls", "self_s"}}`` for one run id."""
        if not len(self):
            return {}
        name, _, run, _, _ = self._arrays()
        own = self.self_ns()
        mask = run == run_id
        out = {}
        for name_id, span in enumerate(self.names):
            sel = mask & (name == name_id)
            out[span] = {"calls": int(sel.sum()), "self_s": float(own[sel].sum()) * 1e-9}
        return out

    def durations_s(self, run_id: int, span: str) -> np.ndarray:
        """Inclusive durations of every ``span`` call in one run."""
        if span not in self._name_ids or not len(self):
            return np.zeros(0)
        name, _, run, start, end = self._arrays()
        sel = (run == run_id) & (name == self._name_ids[span])
        return (end[sel] - start[sel]) * 1e-9

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_chrome(self, path: Path, run_id: int) -> int:
        """Write the first :data:`MAX_FILE_SPANS` spans tagged ``run_id``
        as Chrome ``trace_event`` JSON; returns the number written."""
        name, parent, run, start, end = self._arrays()
        picked = np.flatnonzero(run == run_id)[:MAX_FILE_SPANS]
        origin = int(start[picked[0]]) if picked.size else 0
        events = [
            {
                "name": self.names[name[i]],
                "cat": self.names[name[i]].split(".")[0],
                "ph": "X",
                "ts": (int(start[i]) - origin) / 1e3,
                "dur": (int(end[i]) - int(start[i])) / 1e3,
                "pid": 1,
                "tid": run_id,
                "args": {"span": int(i), "parent": int(parent[i])},
            }
            for i in picked
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "run_id": run_id,
                "spans_in_run": int((run == run_id).sum()),
                "spans_written": len(events),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
        return len(events)

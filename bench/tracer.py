"""Span tracing installed from outside the program.

The traced rounds of a benchmark run rebind the names each layer looks up
(``optimizer.solve_primal``, ``optimizer.solve_lp``, the ``Posynomial``
evaluation methods, ...) to timing wrappers, and restore the originals
afterwards. No file of the program changes.

Every wrapped call records a span ``[id, parent, name, t0, t1, info]`` in
memory; ``parent`` is the id of the span that was open when the call began
(-1 at the top). ``info`` holds counters read from the call's return value.
Posynomial evaluations run hundreds of thousands of times per solve, so they
are aggregated instead of recorded one by one: their count and time go to a
per-name total, and their time is charged to the open span as child time.
A span's self time is its duration minus its children's durations minus
that aggregated child time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with install/uninstall of name wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaf: dict[str, list] = {}     # name -> [calls, seconds]
        self._leaf_child: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, note=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; note(result, args) fills its info."""
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, name, _clock(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = _clock()
            self._stack.pop()
        if note is not None:
            rec[5] = note(result, args)
        return result

    # -- installing wrappers ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None) -> bool:
        """Rebind owner.attr to a wrapper that records one span per call.

        Returns False, and wraps nothing, when the program has no such name.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False

        def traced(*args, **kwargs):
            return self.call(name, original, *args, note=note, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)
        return True

    def wrap_leaf(self, owner, attr: str, name: str) -> bool:
        """Rebind owner.attr to an aggregating wrapper (no span per call)."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        total = self.leaf.setdefault(name, [0, 0.0])
        stack, charged = self._stack, self._leaf_child

        def traced(*args, **kwargs):
            t0 = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = _clock() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    charged[stack[-1]] += dt

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)
        return True

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - child[sid] - self._leaf_child.get(sid, 0.0)
                for sid, _, _, t0, t1, _ in self.spans]

    def write(self, path) -> None:
        """Write spans as JSON lines, then one line of aggregated leaf totals."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (sid, parent, name, t0, t1, info), self_s in zip(self.spans, selfs):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1, "self_s": self_s,
                                     "info": info}) + "\n")
            fh.write(json.dumps({"aggregated": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in sorted(self.leaf.items())}}) + "\n")

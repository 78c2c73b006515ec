"""In-memory spans around the benchmark's calls into the package layers.

A span records its name, the item it belongs to, its parent span and its
start and end on the perf_counter clock. Spans nest only through the
benchmark's own calls: each item is a root span named ``bench.item`` and
every call into a package layer is a child of it, so a layer's self time
is its span's duration and the item span keeps the benchmark's own glue
(contract checks and health figures).
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def _record(self, name, item, tag):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = {"id": sid, "parent": parent, "name": name, "item": item,
                "tag": tag, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def span(self, name, item=None, tag=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, item, tag)

    def self_times(self):
        """Per span id: duration minus the time its direct children cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def totals_by(self, key, reps):
        """Self seconds and call counts summed per key(span), per pass.

        ``reps`` maps an item id to how many times it ran while tracing; a
        span's contribution is divided by its item's count, so the totals
        describe one pass whatever the number of repetitions.
        """
        self_s = self.self_times()
        seconds = defaultdict(float)
        calls = defaultdict(float)
        for s in self.spans:
            k = key(s)
            if k is None:
                continue
            weight = 1.0 / reps[s["item"]]
            seconds[k] += self_s[s["id"]] * weight
            calls[k] += weight
        return seconds, calls

    def write_jsonl(self, path, meta):
        """Write one meta record, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")

"""Span recording around lieposet's public functions, installed from outside.

A `Tracer` wraps a function so that every call records one span: the
wrapped name, the span that was open when the call started (its parent),
start and end on the monotonic clock, and an optional per-call number
from a probe (matrix cells for linear algebra, the verdict for the
contact classifier). Spans stay in memory; `summary` folds them into
calls, self time and total time per name, and `dump` writes them out.

`install` replaces every binding of the original function in every
loaded `lieposet` module, because modules import functions by name
(`sweep` binds `index`, `kernel`, `glue` and `block`) as well as call
through the module (`forms` calls `linalg.rank`).
"""

from __future__ import annotations

import bisect
import functools
import gzip
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name_id, parent_index, start_ns, end_ns, probe_value)
        self._open = []

    def wrap(self, name, fn, probe=None):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                open_spans.pop()
                value = probe(args, result) if probe is not None else 0
                spans[idx] = (name_id, parent, start, end, value)

        return wrapper

    def durations(self, pauses):
        """Each span's duration less the `pauses` that start inside it.

        `pauses` are sorted, disjoint (start_ns, end_ns) intervals of
        work that is not the program's, such as speed samples taken from
        a timer signal.
        """
        starts = [p[0] for p in pauses]
        cum = [0]
        for start, end in pauses:
            cum.append(cum[-1] + end - start)
        out = []
        for _, _, start, end, _ in self.spans:
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_left(starts, end)
            out.append(end - start - (cum[hi] - cum[lo]))
        return out

    def summary(self, pauses=()):
        """Per name: calls, self_s, total_s, probe sum; plus per-edge call counts.

        Self time is a span's duration minus the time its direct child
        spans cover. Total time counts only the outermost span of a name,
        so a name nested inside itself is not counted twice. Durations
        leave out `pauses` (see `durations`).
        """
        spans = self.spans
        dur = self.durations(pauses)
        child_ns = [0] * len(spans)
        for idx, (name_id, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += dur[idx]
        per_name = {
            name: {"calls": 0, "self_ns": 0, "total_ns": 0, "probe": 0} for name in self.names
        }
        edges = {}
        for idx, (name_id, parent, start, end, value) in enumerate(spans):
            name = self.names[name_id]
            rec = per_name[name]
            rec["calls"] += 1
            rec["self_ns"] += dur[idx] - child_ns[idx]
            rec["probe"] += value
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if spans[ancestor][0] == name_id:
                    nested = True
                    break
                ancestor = spans[ancestor][1]
            if not nested:
                rec["total_ns"] += dur[idx]
            parent_name = self.names[spans[parent][0]] if parent >= 0 else None
            edges[(parent_name, name)] = edges.get((parent_name, name), 0) + 1
        return per_name, edges

    def top_level_ns(self, pauses=()):
        dur = self.durations(pauses)
        return sum(d for d, span in zip(dur, self.spans) if span[1] < 0)

    def dump(self, path):
        """Write every span, column by column, as gzipped JSON."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        data = {
            "names": self.names,
            "name_id": list(cols[0]),
            "parent": list(cols[1]),
            "start_ns": list(cols[2]),
            "end_ns": list(cols[3]),
            "probe": list(cols[4]),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def install(tracer, targets):
    """Wrap each target and rebind it wherever the package binds it.

    ``targets`` holds (span name, module name, attribute path, probe);
    an attribute path "Poset.__init__" wraps a method on its class.
    Returns the number of bindings replaced per span name.
    """
    modules = [m for k, m in sys.modules.items() if k == "lieposet" or k.startswith("lieposet.")]
    replaced = {}
    for name, module_name, attr, probe in targets:
        owner = sys.modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(name, original, probe)
        if path:
            setattr(owner, leaf, wrapper)
            replaced[name] = 1
            continue
        replaced[name] = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced[name] += 1
    return replaced

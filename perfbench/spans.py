"""In-memory span recorder for the traced benchmark run.

A span is ``(id, parent, item, name, start, end)``: ``name`` is
``<module>.<function>`` for a library call and ``item`` for the benchmark
item that caused it, ``parent`` is the id of the enclosing span (None for
an item span), ``item`` numbers the benchmark item, and the times are
``time.perf_counter`` seconds.  Spans stay in memory and are written as JSON
lines at exit (``write_jsonl``), one object per span with exactly those six
keys, so an in-library recorder can later emit the same records unchanged.

``install`` wraps every listed library function on every binding a caller
can resolve: the defining module, each qso3 module that imported the
function by name (``tensor.decompose`` is ``structure.decompose``), and the
builders held by ``registry.REGISTRY``.  The returned callable restores the
original bindings, so untraced passes run the library untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from time import perf_counter

# The functions that get a span, by pipeline stage.
STAGES = {
    "construct": ("registry.build_family", "uqsl2.t_omega_l", "uqsl2.delta_tensor",
                  "uqsl2.is_extendable", "psihom.compose", "tensor.tensor_so3",
                  "repcore.truncate_n"),
    "verify": ("repcore.verify_so3", "repcore.verify_sl2", "psihom.verify_psi"),
    "dump": ("repcore.rep_to_json",),
    "commutant": ("structure.commutant", "structure.intertwiners"),
    "irreducibility": ("structure.burnside_dim", "structure.orbit_span"),
    "split": ("structure.decompose",),
    "match": ("structure.fingerprint", "structure.are_equivalent",
              "tensor.cg_decompose"),
}
SPANNED = tuple(name for names in STAGES.values() for name in names)
ITEM = "item"


def _rep_dim(rep) -> int:
    if isinstance(rep, (list, tuple)):       # a bare generator list
        return rep[0].shape[0]
    return rep.dim


# Counts taken at span boundaries: name -> (counter, value(args, result)).
COUNTERS = {
    "structure.commutant": ("structure.commutant.unknowns",
                            lambda args, out: _rep_dim(args[0]) ** 2),
    "structure.burnside_dim": ("structure.burnside_dim.span_total",
                               lambda args, out: out[0]),
    "structure.decompose": ("structure.decompose.components",
                            lambda args, out: len(out.components)),
    "structure.are_equivalent": ("structure.are_equivalent.hits",
                                 lambda args, out: int(bool(out))),
}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []      # (item, counter, value)
        self.current: int | None = None
        self.item: int | None = None
        self._next = 0

    def _open(self) -> tuple[int | None, int]:
        parent, sid = self.current, self._next
        self._next += 1
        self.current = sid
        return parent, sid

    def run_item(self, item: int, fn, *args):
        """Call ``fn(*args)`` inside an item span numbered ``item``."""
        self.item = item
        parent, sid = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((sid, parent, item, ITEM, start, perf_counter()))
            self.current = parent

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, sid = self._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans.append((sid, parent, self.item, name, start, perf_counter()))
                self.current = parent
            if counter is not None:
                self.counts.append((self.item, counter[0], counter[1](args, out)))
            return out

        return traced

    def write_jsonl(self, path):
        keys = ("id", "parent", "item", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(rec: Recorder):
    """Wrap every binding of the SPANNED functions; returns the undo."""
    from qso3 import registry

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qso3" or n.startswith("qso3."))]
    undo = []
    for name in SPANNED:
        mod, attr = name.split(".")
        orig = getattr(sys.modules[f"qso3.{mod}"], attr)
        traced = rec.wrap(name, orig)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, traced)
                    undo.append((setattr, module, key, orig))
        for key, info in list(registry.REGISTRY.items()):
            if info.build is orig:
                registry.REGISTRY[key] = dataclasses.replace(info, build=traced)
                undo.append((registry.REGISTRY.__setitem__, key, info))

    def restore():
        for fn, *args in reversed(undo):
            fn(*args)

    return restore


def summarize(spans, counts, count_items) -> dict:
    """Per-layer metrics from recorded spans.

    Times cover every span; ``.calls`` and the counters cover only the
    items in ``count_items``, so they repeat exactly for a given seed.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    item_time = sum(end - start for _, _, _, name, start, end in spans if name == ITEM)
    uncovered = sum(end - start - child_time.get(sid, 0.0)
                    for sid, _, _, name, start, end in spans if name == ITEM)

    def nested_in_same(span) -> bool:
        parent = span[1]
        while parent is not None:
            if by_id[parent][3] == span[3]:
                return True
            parent = by_id[parent][1]
        return False

    out = {}
    for name in SPANNED:
        mine = [s for s in spans if s[3] == name]
        busy = sum(s[5] - s[4] for s in mine if not nested_in_same(s))
        self_time = sum(s[5] - s[4] - child_time.get(s[0], 0.0) for s in mine)
        out[f"{name}.calls"] = (sum(1 for s in mine if s[2] in count_items), "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (self_time, "s")
        out[f"{name}.share"] = (self_time / item_time if item_time else 0.0, "1")
    for counter, _ in COUNTERS.values():
        out[counter] = (sum(v for item, c, v in counts
                            if c == counter and item in count_items), "count")
    calls = out["structure.are_equivalent.calls"][0]
    hits = out["structure.are_equivalent.hits"][0]
    out["match.useful_ratio"] = (hits / calls if calls else 0.0, "1")
    out["trace.unaccounted_share"] = (uncovered / item_time if item_time else 0.0, "1")
    return out

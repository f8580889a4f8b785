"""Spans around the public functions of every posetlex layer, from outside.

``Tracer.install`` replaces each public module-level function of the
layers, and the work-doing methods of ``Poset``, with a wrapper that opens
a span.  A function is replaced under every name it is bound to in the
package, so names imported with ``from`` (``cli.gpc_via_decomposition``,
``cli.run_decompose``, ``lexsum.verify_gpc_witness``,
``decompose.are_isomorphic``, and the package's own re-exports) are traced
too.  Modules are reached through ``sys.modules``: the package attribute
``posetlex.decompose`` is the function, not the module.

A span has a name (``layer.function``), a start, an end and a parent
span.  Its self time is its duration minus the part its child spans
cover.  Every span is added to a total per (name, parent name).  Spans of
the functions in ``HOT``, each called 10^5 times or more in some round,
are kept only in those totals; all others are also kept one by one, so
a kept span's parent may be a span that was only totalled.
A generator function's span covers every resumption of the generator and
counts as one call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from time import perf_counter

LAYERS = (
    "poset",
    "linext",
    "conjectures",
    "lexsum",
    "decompose",
    "generate",
    "survey",
    "files",
    "cli",
)

#: Poset methods left unwrapped: bit lookups called millions of times.
POSET_ACCESSORS = {"is_lt", "above_mask", "below_mask", "incomparable_mask"}

#: Functions whose spans are kept only as (name, parent) totals: each has
#: tens of thousands of calls (or generator resumptions) in a sweep round.
HOT = {
    "poset.canonical_key",
    "poset.is_chain",
    "generate.labeled_posets",
    "generate.all_labeled_posets",
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child_time, span_id]
        self.totals = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.spans = []  # closed spans not in HOT: (id, parent id, name, start, end)
        self.ids = itertools.count()
        self.keys = set()  # distinct canonical keys returned
        self.extensions = 0  # extensions returned by enumerate_extensions
        self.autonomous_hits = 0  # is_autonomous calls that returned True

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, perf_counter(), 0.0, next(self.ids)]
        self.stack.append(span)
        return span

    def _close(self, span, calls):
        end = perf_counter()
        self.stack.pop()
        name, start, child, span_id = span
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        total = self.totals.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
        total[0] += calls
        total[1] += duration
        total[2] += duration - child
        if name not in HOT:
            self.spans.append((span_id, parent[3] if parent else None, name, start, end))

    def _observe(self, name, result):
        if name == "poset.canonical_key":
            self.keys.add(result)
        elif name == "linext.enumerate_extensions":
            self.extensions += len(result)
        elif name == "decompose.is_autonomous" and result:
            self.autonomous_hits += 1

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls = 1
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span, calls)
                        calls = 0
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, 1)
            self._observe(name, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer, wherever it is bound."""
        modules = [importlib.import_module(f"posetlex.{layer}") for layer in LAYERS]
        replaced = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    replaced[value] = self.wrap(f"{layer}.{attr}", value)
        poset_cls = sys.modules["posetlex.poset"].Poset
        for attr, value in list(vars(poset_cls).items()):
            if attr.startswith("_") or attr in POSET_ACCESSORS:
                continue
            if isinstance(value, classmethod):
                wrapped = classmethod(self.wrap(f"poset.{attr}", value.__func__))
            elif inspect.isfunction(value):
                wrapped = self.wrap(f"poset.{attr}", value)
            else:
                continue
            setattr(poset_cls, attr, wrapped)
        for module in [sys.modules["posetlex"]] + modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    # -- reporting ---------------------------------------------------------

    def _sum(self, name, column, parent=...):
        return sum(
            row[column]
            for (span, up), row in self.totals.items()
            if span == name and (parent is ... or up == parent)
        )

    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        calls = lambda name: self._sum(name, 0)
        self_s = lambda name: self._sum(name, 2)
        out = {}
        for name in (
            "poset.canonical_key",
            "poset.with_relation",
            "linext.count_extensions",
            "conjectures.check_gpc",
            "lexsum.compose_at",
            "decompose.is_autonomous",
            "generate.ideals",
            "files.load",
            "cli.main",
            "linext.prob",
        ):
            out[f"{name}.calls"] = (calls(name), "count")
        out["linext.enumerate_extensions.items"] = (self.extensions, "count")
        out["cli.count_extensions.calls"] = (
            self._sum("linext.count_extensions", 0, parent="cli.main"),
            "count",
        )
        keys = calls("poset.canonical_key")
        out["poset.canonical_key.distinct_ratio"] = (
            len(self.keys) / keys if keys else 0.0,
            "ratio",
        )
        tested = calls("decompose.is_autonomous")
        out["decompose.autonomous_hit_ratio"] = (
            self.autonomous_hits / tested if tested else 0.0,
            "ratio",
        )
        for name in (
            "poset.canonical_key",
            "poset.with_relation",
            "linext.count_extensions",
            "linext.enumerate_extensions",
            "linext.pair_counts",
            "conjectures.check_gpc",
            "conjectures.verify_gpc_witness",
            "conjectures.sort_cost",
            "lexsum.locality_table",
            "lexsum.lift_witness",
            "lexsum.verify_divisibility",
            "decompose.decompose",
            "decompose.gpc_via_decomposition",
            "generate.ideals",
            "generate.filters",
            "survey.sweep",
            "files.load",
            "files.dump",
            "files.dumps",
            "cli.main",
        ):
            out[f"{name}.self_s"] = (self_s(name), "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(row[2] for (span, _), row in self.totals.items() if span.split(".")[0] == layer),
                "s",
            )
        return out

    def dump(self, path):
        """Write the totals and the individual spans as JSON."""
        doc = {
            "totals": [
                {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(
                    self.totals.items(), key=lambda item: (item[0][0], str(item[0][1]))
                )
            ],
            "spans": [
                {"id": i, "parent": p, "name": name, "start": start, "end": end}
                for i, p, name, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

"""Per-layer call tracing from outside the program.

The tracer wraps the public functions of each ``groupcodes`` layer module
(plus the few methods named below) and patches each wrapper into every
``groupcodes`` module namespace that holds the original, so calls between
modules and within one module both pass through it. Each call records a
span (name, start, end, parent span, request id) in memory; counters for
the ratios are kept at the same boundaries. ``remove`` restores every
original object.
"""

from __future__ import annotations

import functools
import gzip
from array import array
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "serialize", "groups", "codes", "isometry", "classify",
          "decompose", "isomorphy", "cyclic")

# Per-word helpers run millions of times inside scans; a span each would
# cost more than the work it measures, so they stay unwrapped.
PER_WORD = {"hamming_distance", "weight", "word_mul", "word_inv", "cyclic_shift",
            "apply_pull", "apply_push", "encode_mixed_radix", "decode_mixed_radix"}

# Class-level entry points wrapped besides the module functions:
# (module, class, attribute, span name)
METHODS = (("codes", "Code", "from_words", "codes.from_words"),
           ("codes", "GroupCode", "from_words", "codes.from_words"),
           ("isomorphy", "_IsoSearch", "run", "isomorphy._IsoSearch.run"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # one column per span field, as int64 arrays: a traced aut-search
        # run records about a million spans
        self.name_id, self.start, self.end = array("q"), array("q"), array("q")
        self.parent, self.req = array("q"), array("q")
        self.stack: list[int] = []
        self.request = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._scanned: set = set()   # word sets min_distance saw in this request
        self._undo: list = []

    # recording ---------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request
        self._scanned = set()

    def _wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, req = self.name_id, self.start, self.end, self.parent, self.req
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request)
            end.append(0)
            stack.append(idx)
            result = None
            start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = time.perf_counter_ns()
                stack.pop()
                if hook is not None:
                    hook(args, result)

        return wrapper

    def _hook_min_distance(self, args, result) -> None:
        code = args[0]
        key = (code.length, code.words)
        if key in self._scanned:
            self.counts["codes.min_distance.repeats"] += 1
        self._scanned.add(key)

    def _hook_is_decomposable(self, args, result) -> None:
        if result is not None:
            self.counts["decompose.is_decomposable.splits"] += 1

    def _hook_gc_isomorphic(self, args, result) -> None:
        if result is not None:
            self.counts["isomorphy.gc_isomorphic.found"] += 1

    def _hook_search(self, args, result) -> None:
        self.counts["isomorphy.search_nodes"] += args[0].nodes

    # patching ----------------------------------------------------------

    def install(self) -> None:
        hooks = {"codes.min_distance": self._hook_min_distance,
                 "decompose.is_decomposable": self._hook_is_decomposable,
                 "isomorphy.gc_isomorphic": self._hook_gc_isomorphic,
                 "isomorphy._IsoSearch.run": self._hook_search}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "groupcodes" or name.startswith("groupcodes.")]
        for layer in LAYERS:
            mod = sys.modules[f"groupcodes.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or attr in PER_WORD or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._undo.append((m, key, fn))
                            setattr(m, key, wrapper)
                        elif isinstance(value, dict):   # dispatch tables such as cli._COMMANDS
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._undo.append((value, k, fn))
                                    value[k] = wrapper
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"groupcodes.{layer}"], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original, hooks.get(name))
            self._undo.append((cls, attr, original))
            setattr(cls, attr, patched)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # results -----------------------------------------------------------

    def spans(self):
        """Every span as (name id, start ns, end ns, parent index, request)."""
        return zip(self.name_id, self.start, self.end, self.parent, self.req)

    def self_times(self) -> list[int]:
        """Self time of each span: its duration minus its children's."""
        child = [0] * len(self.start)
        for _, t0, t1, parent, _ in self.spans():
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - own for t0, t1, own in zip(self.start, self.end, child)]

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for nid, own in zip(self.name_id, self.self_times()):
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                calls[key] += 1
                self_ns[key] += own
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
        for name in ("groups.group_from_table", "codes.from_words", "serialize.code_from_json",
                     "serialize.dumps", "codes.min_distance", "classify.classify",
                     "codes.projection", "decompose.is_decomposable", "cyclic.cyclic_report",
                     "isomorphy.aut_group", "isometry.compose", "isomorphy.gc_isomorphic"):
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        for name in ("codes.min_distance", "decompose.applicable_certificates",
                     "codes.projection", "decompose.is_decomposable",
                     "cyclic.cyclic_structure", "isometry.compose", "isomorphy.gc_isomorphic"):
            out[f"{name}.calls"] = (calls[name], "count")

        def share(part: str, whole: str) -> float:
            return self.counts[part] / calls[whole] if calls[whole] else 0.0

        out["codes.min_distance.repeat_frac"] = (
            share("codes.min_distance.repeats", "codes.min_distance"), "ratio")
        out["decompose.is_decomposable.split_frac"] = (
            share("decompose.is_decomposable.splits", "decompose.is_decomposable"), "ratio")
        out["isomorphy.gc_isomorphic.found_frac"] = (
            share("isomorphy.gc_isomorphic.found", "isomorphy.gc_isomorphic"), "ratio")
        out["isomorphy.search_nodes"] = (self.counts["isomorphy.search_nodes"], "count")
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON lines, names first."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "request"]}) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

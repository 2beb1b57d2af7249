"""Span tracing of twistlab from the outside.

Tracer.install() replaces every public function and method of each
twistlab module (plus the arithmetic operators of its value types and
the constructors of its other classes) by a wrapper that records one
span: name, start, end, parent span and job id.  Nothing under src/
changes; uninstall() puts the originals back.  Spans are kept in
compact arrays in memory and written out by dump() when the run ends.
"""
from __future__ import annotations

import dataclasses
import json
import os
import time
import types
from array import array

MODULES = ("scalar", "linalg", "lattice", "cocycle", "fdist", "fock",
           "classify", "oracle", "cli")

# operators of the value types; the other dunders (hash, eq, repr) are
# left alone
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
             "__neg__"}
# value types built in the millions whose constructors do no layer work
# of their own
VALUE_TYPES = {"CycScalar", "FockVector", "FockOp", "GenSeries",
               "LieElement", "KernelPoly"}
# identity checks whose verdicts tell a decided check from one that
# could not reach a verdict
CHECKS = {"product_check", "pair_expansion_check", "reconstruct_e",
          "e_group_checks", "heisenberg_commutation_check",
          "virasoro_element_checks"}


def _verdicts(result):
    """The status strings in an identity check's return value."""
    if isinstance(result, dict):
        return list(result.values())
    out = []
    for row in result:
        out.extend(x for x in row[1:] if isinstance(x, str))
    return out


def covered_times(start, end, parent):
    """Per span, the part of its interval covered by its child spans.
    Spans must be listed in order of start (as recorded); a child is
    clipped to its parent's interval and overlapping children are
    counted once."""
    covered = array("d", [0.0]) * len(start)
    cover_end = array("d", start)
    for i, p in enumerate(parent):
        if p < 0:
            continue
        s = max(start[i], cover_end[p])
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
            cover_end[p] = e
    return covered


def self_times(start, end, parent):
    """Self time of every span: its duration minus covered_times."""
    covered = covered_times(start, end, parent)
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    def __init__(self, tl):
        self.tl = tl
        self.names = []
        self.layer_of = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.rational_ops = 0
        self.memo_hits = 0
        self.poisoned = 0
        self.untestable_s = 0.0
        self._patches = []

    # -- wrapping -----------------------------------------------------

    def _span(self, label, layer, fn, post=None):
        nid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer)
        start, end, parent = self.start, self.end, self.parent
        name, job, stack = self.name, self.job, self.stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            if post is not None:
                post(args, result, end[i] - start[i])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def _post_for(self, owner, attr):
        if owner == "CycScalar" and attr in ("__add__", "__radd__",
                                             "__mul__", "__rmul__"):
            def post(args, _result, _dt):
                a, b = args
                if a.n == 1 and getattr(b, "n", 1) == 1:
                    self.rational_ops += 1
            return post
        if owner == "FockOp" and attr == "apply":
            def post(_args, result, _dt):
                if result.poisoned:
                    self.poisoned += 1
            return post
        if owner is None and attr in CHECKS:
            def post(_args, result, dt):
                v = _verdicts(result)
                if v and all(s == "untestable" for s in v):
                    self.untestable_s += dt
            return post
        return None

    def _wrap_memo_coeff(self, label, fn):
        inner = self._span(label, "fdist", fn)

        def coeff(series, n):
            if n in series._memo:
                self.memo_hits += 1
            return inner(series, n)

        return coeff

    def _patch(self, target, attr, new):
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, new)

    def install(self):
        tl = self.tl
        mods = [getattr(tl, m) for m in MODULES]
        everywhere = mods + [tl.pkg]
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for key, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj) and not key.startswith("_"):
                    wrapped = self._span(f"{layer}:{key}", layer, obj,
                                         self._post_for(None, key))
                    for other in everywhere:
                        for k2, v2 in list(vars(other).items()):
                            if v2 is obj:
                                self._patch(other, k2, wrapped)

    def _install_class(self, layer, cls):
        if issubclass(cls, BaseException) or dataclasses.is_dataclass(cls):
            return
        owner = cls.__name__
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_")
            if not (public or attr in OPERATORS
                    or (attr == "__init__" and owner not in VALUE_TYPES)):
                continue
            label = f"{layer}:{owner}.{attr}"
            if isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._span(label, layer, val.__func__)))
            elif isinstance(val, classmethod):
                self._patch(cls, attr, classmethod(
                    self._span(label, layer, val.__func__)))
            elif isinstance(val, types.FunctionType):
                if owner == "GenSeries" and attr == "coeff":
                    new = self._wrap_memo_coeff(label, val)
                else:
                    new = self._span(label, layer, val,
                                     self._post_for(owner, attr))
                self._patch(cls, attr, new)

    def uninstall(self):
        while self._patches:
            target, attr, old = self._patches.pop()
            setattr(target, attr, old)

    # -- results ------------------------------------------------------

    def counts(self):
        """Calls per span name."""
        out = [0] * len(self.names)
        for nid in self.name:
            out[nid] += 1
        return {self.names[i]: c for i, c in enumerate(out) if c}

    def layer_self(self):
        """Self seconds per layer (raw wall time)."""
        covered = covered_times(self.start, self.end, self.parent)
        start, end = self.start, self.end
        per_name = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            per_name[nid] += end[i] - start[i] - covered[i]
        out = {}
        for nid, own in enumerate(per_name):
            layer = self.layer_of[nid]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, directory, seed):
        """Write the spans: names.json plus one raw array per field."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"seed": seed, "names": self.names,
                       "layers": self.layer_of,
                       "spans": len(self.start),
                       "fields": {"start": "f64", "end": "f64",
                                  "parent": "i64", "name": "i32",
                                  "job": "i32"}}, fh)
        for field in ("start", "end", "parent", "name", "job"):
            with open(os.path.join(directory, field + ".bin"), "wb") as fh:
                getattr(self, field).tofile(fh)

"""Spans and counters recorded around blockdec's public functions, from outside.

The tracer replaces a function in the namespace of every blockdec module that
holds it, so a call is seen wherever it is made: ``blockdec.decompose.plan_key``
and ``blockdec.oracle.plan_key`` are separate call sites of one function.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every original
back.

Three kinds of wrapper:

* ``SPAN`` records a span (name, start, end, parent, item id, self time) in
  memory and pushes a frame, so the calls it makes are its children.
* ``LEAF`` is for hot, small functions. It keeps a call count and a time total
  and charges its time to the enclosing frame, but stores no span.
* ``GEN`` wraps a generator function. Each resume is a frame, so the generator's
  own time can be told apart from the time of the calls it makes and from the
  consumer's time between resumes.

Self time is a frame's duration minus the time of its traced children. Only
calls on the thread that created the tracer are traced; a call on another
thread goes straight through, because its time would overlap its caller's.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

SPAN, LEAF, GEN = "span", "leaf", "gen"


@dataclass(frozen=True)
class Target:
    module: str  # defining module, short name: "gluing"
    name: str  # function, or "Class.method"
    kind: str
    sites: tuple[str, ...] | None = None  # calling modules to patch; None = all
    label: Callable | None = None  # (args, kwargs) -> span label
    emit: Callable | None = None  # result -> count added to the site's output


class Tracer:
    def __init__(self):
        self.active = False
        self.item = None  # id of the input being processed, set by the caller
        self._thread = threading.get_ident()
        self._ids = itertools.count()
        self._stack: list[list] = []  # frames: [site, start, child_s, id, parent id]
        self._stats: dict[str, list] = {}  # site -> [calls, total_s, self_s, emitted]
        self._spans: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []
        self.site_function: dict[str, str] = {}  # site -> "module.name"

    def _on(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    # -- installation ---------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        modules = {
            name.split(".", 1)[1] if "." in name else name: mod
            for name, mod in sys.modules.items()
            if name == "blockdec" or name.startswith("blockdec.")
        }
        for target in targets:
            home = modules[target.module]
            if "." in target.name:
                cls_name, meth = target.name.split(".")
                owner = getattr(home, cls_name)
                site = f"{target.module}.{meth}"
                self._patch(owner, meth, self._wrap(site, getattr(owner, meth), target))
                self.site_function[site] = site
                continue
            fn = getattr(home, target.name)
            for short, mod in modules.items():
                if mod.__dict__.get(target.name) is not fn:
                    continue
                if target.sites is not None and short not in target.sites:
                    continue
                site = f"{short}.{target.name}"
                self._patch(mod, target.name, self._wrap(site, fn, target))
                self.site_function[site] = f"{target.module}.{target.name}"

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, site: str, fn, target: Target):
        if target.kind == LEAF:
            return self._leaf(site, fn)
        if target.kind == GEN:
            return self._gen(site, fn)
        return self._span(site, fn, target.label, target.emit)

    # -- bookkeeping ----------------------------------------------------------

    def _stat(self, site: str) -> list:
        entry = self._stats.get(site)
        if entry is None:
            entry = self._stats[site] = [0, 0.0, 0.0, 0]
        return entry

    def _enter(self, site: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [site, 0.0, 0.0, next(self._ids), parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list, label=None, record=True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        site, start, child, fid, parent = frame
        dur = end - start
        own = dur - child
        st = self._stat(site)
        st[0] += 1
        st[1] += dur
        st[2] += own
        if self._stack:
            self._stack[-1][2] += dur
        if record:
            self._spans.append((fid, site, start, end, parent, self.item, own, label))

    # -- wrappers -------------------------------------------------------------

    def _span(self, site: str, fn, label, emit):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._on():
                return fn(*args, **kwargs)
            tag = label(args, kwargs) if label else None
            frame = tracer._enter(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, tag)
            if emit is not None:
                tracer._stat(site)[3] += emit(result)
            return result

        return wrapper

    def _leaf(self, site: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._on():
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            dur = time.perf_counter() - start
            st = tracer._stat(site)
            st[0] += 1
            st[1] += dur
            st[2] += dur
            if tracer._stack:
                tracer._stack[-1][2] += dur
            return result

        return wrapper

    def _gen(self, site: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return tracer._drive(site, gen) if tracer._on() else gen

        return wrapper

    def _drive(self, site: str, gen):
        while True:
            frame = self._enter(site)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame, record=False)
            self._stat(site)[3] += 1
            yield value

    # -- results --------------------------------------------------------------

    def stats(self) -> dict[str, list]:
        """Per call site: [calls, total_s, self_s, emitted]."""
        return {site: list(values) for site, values in self._stats.items()}

    def function_stats(self) -> dict[str, list]:
        """Like :meth:`stats`, summed over the call sites of each function."""
        merged: dict[str, list] = {}
        for site, values in self._stats.items():
            entry = merged.setdefault(self.site_function[site], [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                entry[i] += v
        return merged

    def spans(self) -> list[tuple]:
        """(id, name, start, end, parent id, item, self_s, label), by start."""
        return sorted(self._spans, key=lambda s: s[2])

    def dump(self, path) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        keys = ("id", "name", "start", "end", "parent", "item", "self_s", "label")
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(spans)

"""Timing wrappers for the layer pass, installed from outside ``src/``.

A :class:`SpanRecorder` wraps public functions and methods of the
program and keeps one span per call in memory: ``{id, name, layer,
start, end, parent, root}``.  A span's *self time* is its duration minus
the durations of its direct children, so the self times of every span
under one root add up to the root's duration.  Wrappers return the
wrapped value unchanged, and :meth:`SpanRecorder.restore` puts every
patched attribute back.

A wrapper must replace the attribute the caller actually looks up:
``from x import f`` binds ``f`` again in the importing module, so
:meth:`SpanRecorder.patch_function` rebinds every module attribute under
``repro`` that holds the function, not just its defining module.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """In-memory span tree of wrapped calls (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[Dict[str, object]] = []
        self._undo: List[Callable[[], None]] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": None if parent is None else parent["id"],
            "root": name if parent is None else parent["root"],
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return wrapper

    def patch_function(self, fn: Callable, name: str, layer: str) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module."""
        wrapper = self.wrap(fn, name, layer)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        functools.partial(setattr, module, attr, fn)
                    )
                    patched += 1
        if not patched:
            raise LookupError(f"{name}: no module binds {fn!r}")

    def patch_method(self, cls: type, attr: str, name: str,
                     layer: str) -> None:
        """Wrap ``cls.attr``; instances look methods up on the class."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, layer))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ----------------------------------------------------------- results

    def with_self_times(self) -> List[Dict[str, object]]:
        """Every closed span plus ``duration`` and ``self`` seconds."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] = child_time.get(
                    span["parent"], 0.0
                ) + (span["end"] - span["start"])
        out = []
        for span in self.spans:
            if span["end"] is None:
                continue
            duration = span["end"] - span["start"]
            out.append({
                **span,
                "duration": duration,
                "self": duration - child_time.get(span["id"], 0.0),
            })
        return out

    def totals(self,
               root: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s", "layer"}}`` over the
        spans under roots called ``root`` (all spans when ``None``)."""
        totals: Dict[str, Dict[str, object]] = {}
        for span in self.with_self_times():
            if root is not None and span["root"] != root:
                continue
            entry = totals.setdefault(
                span["name"],
                {"layer": span["layer"], "calls": 0, "self_s": 0.0,
                 "total_s": 0.0},
            )
            entry["calls"] += 1
            entry["self_s"] += span["self"]
            entry["total_s"] += span["duration"]
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.with_self_times(), handle)
            handle.write("\n")

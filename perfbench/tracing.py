"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent) plus the measured op it belongs to and
optional counts. Spans come from wrappers that replace a module attribute,
so the wrapper sits on the name the caller actually resolves: a function
imported with ``from .features import feature_matrix`` must be wrapped in the
importing module, not in ``provlens.features``. A target that no longer
exists is recorded as absent and skipped; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self.phase = "setup"
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "phase": self.phase, "op": self.op,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    # --- wrapping ---------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every (span name, module, attribute path, count hook) target.
        The attribute path may name a class attribute, e.g. ``GraphStore.build``."""
        for name, module_name, attr_path, hook in targets:
            label = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                if label not in self.absent:
                    self.absent.append(label)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._traced(raw.__func__, name, hook))
            else:
                patched = self._traced(raw, name, hook)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _traced(self, fn, name: str, hook):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if hook is not None:
                    tracer._count(record, hook, signature, args, kwargs,
                                  result)
            return result
        return wrapper

    def _count(self, record, hook, signature, args, kwargs, result) -> None:
        # A hook reads arguments by name; a later signature change must cost
        # the count, not the run.
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record["n"] = hook(bound.arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            message = f"{record['name']}: {type(exc).__name__}: {exc}"
            if message not in self.count_errors:
                self.count_errors.append(message)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover. Spans
    come from one thread and nest, so children never overlap."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans}

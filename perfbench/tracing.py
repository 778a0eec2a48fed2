"""Spans around the public functions of ``atlm``, recorded from outside.

Each traced function is replaced, by identity, wherever it appears in an
``atlm`` module namespace (or, for a method, on its class), so calls through
re-exports and ``from .x import f`` aliases are caught too.  A target that a
refactor has moved or deleted is reported as missing and its metrics read
zero; the benchmark itself keeps working.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1, and written out once
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


def _numeric_cells(args, kwargs, result):
    """Rows times active numeric columns of the dataset ``apply_transforms`` returns."""
    columns = sum(1 for c in result.schema if c.kind == "numeric" and c.role != "ignored")
    return len(result) * columns


#: (layer name, module, attribute path, counter name, counter function)
TARGETS = (
    ("transforms.calculate_transforms", "atlm.transforms", "calculate_transforms", None, None),
    ("transforms.apply_transforms", "atlm.transforms", "apply_transforms",
     "cells", _numeric_cells),
    ("transforms.invert_predictions", "atlm.transforms", "invert_predictions", None, None),
    ("dataset.fingerprint", "atlm.dataset", "Dataset.fingerprint", None, None),
    ("dataset.split", "atlm.dataset", "split", None, None),
    ("dataset.load_csv", "atlm.dataset", "load_csv", None, None),
    ("dataset.apply_recipe", "atlm.dataset", "apply_recipe", None, None),
    ("linear.build_design", "atlm.linear", "build_design", None, None),
    ("linear.fit_ols", "atlm.linear", "fit_ols",
     "aliased", lambda args, kwargs, result: len(result.aliased)),
    ("linear.predict", "atlm.linear", "predict", None, None),
    ("pipeline.atlm_fit", "atlm.pipeline", "atlm_fit", None, None),
    ("pipeline.atlm_predict", "atlm.pipeline", "atlm_predict", None, None),
    ("metrics.report", "atlm.metrics", "report", None, None),
    ("metrics.aggregate", "atlm.metrics", "aggregate", None, None),
    ("validation.generate_folds", "atlm.validation", "generate_folds", None, None),
    ("validation.run_validation", "atlm.validation", "run_validation",
     "failures", lambda args, kwargs, result: len(result.failures)),
    ("rng.Pcg32.shuffle", "atlm.rng", "Pcg32.shuffle", None, None),
    ("report.result_to_json_dict", "atlm.report", "result_to_json_dict", None, None),
    ("report.to_json_text", "atlm.report", "to_json_text",
     "bytes", lambda args, kwargs, result: len(result.encode("utf-8"))),
    ("report.transform_table_json", "atlm.report", "transform_table_json", None, None),
    ("cli.main", "atlm.cli", "main", None, None),
    ("bundled.load_builtin_raw", "atlm.bundled", "load_builtin_raw", None, None),
)

LAYER_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._paused = False

    def _wrap(self, name, fn, counter, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                try:
                    counts[f"{name}.{counter}"] += count(args, kwargs, result)
                except (AttributeError, TypeError):
                    pass  # the result no longer has the counted shape
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "atlm" or n.startswith("atlm."))]
        for name, module_name, path, counter, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter, count)
            if owner_path:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Record no spans or counts for the calls made inside the block."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def totals_by_name(spans) -> tuple[dict, dict]:
    """Summed self time (seconds) and call count per span name."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), own in zip(spans, self_times(spans)):
        self_s[name] += own
        calls[name] += 1
    return self_s, calls

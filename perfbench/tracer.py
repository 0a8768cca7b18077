"""Span tracing from outside the program.

``Tracer.install`` rebinds each listed public function, in every
``lppgate`` module namespace that binds it, to a wrapper that records a
span (name, start, end, parent span, request id). Spans stay in memory and
are written once when the run ends. Only the traced run installs the
wrappers; timed runs call the program untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: The public functions the traced run wraps, as ``module.function``.
TRACED = (
    "trainer.grid_search",
    "trainer.cross_fit_calibrated",
    "trainer.fit_ridge_weighted",
    "trainer.fit_platt",
    "trainer.fit_isotonic",
    "trainer.stratified_kfold_indices",
    "dataset.tomek_links",
    "dataset.random_undersample",
    "dataset.stratified_split",
    "pipeline.build_examples",
    "pipeline.load_features",
    "pipeline.save_features",
    "manifest.sha256_file",
    "policy.sweep_threshold",
    "evaluation.run_baseline",
    "schema.read_traces_jsonl",
    "schema.trace_from_dict",
    "pipeline.extract_table",
    "features.assemble_feature_vector",
    "features.compute_sequence_features",
    "features.renormalize_topk",
    "trainer.predict_score",
    "policy.decisions_at",
    "gateway.run_inference",
    "gateway.dispatch",
    "gateway.segment_spans",
    "schema.parse_structured_response",
    "schema.locate_structured_fields",
    "synth.generate_corpus",
)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, request id].
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._hooks: dict = {}

    def on_call(self, name: str, hook) -> None:
        """Call ``hook(args, kwargs, result)`` after each call of ``name``."""
        self._hooks[name] = hook

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function; returns a callable that restores them."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lppgate" or n.startswith("lppgate.")]
        restore = []
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"lppgate.{module_name}"), attr)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        restore.append((module, binding, original))

        def uninstall():
            for module, binding, original in restore:
                setattr(module, binding, original)

        return uninstall

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (the span
        minus the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")

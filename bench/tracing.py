"""Span tracing of restate's layers, installed from outside the package.

The tracer replaces public callables (class attributes and module
functions) with thin wrappers that record a span per call: layer name,
start, end, parent span and the measured item it belongs to. Spans live
in compact arrays in memory and are written once, when the run ends.
Nothing under src/ is edited; a callable that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer, module, class or None, attribute). Module functions are
# patched in every loaded restate module that holds the same object, so
# callers that imported the name directly are traced too.
LAYERS = [
    ("datagen.build_corpus", "restate.datagen", None, "build_corpus"),
    ("treebank.extract_constraints", "restate.treebank", None,
     "extract_constraints"),
    ("flags.replay", "restate.model.training", None, "example_from_record"),
    ("model.encode", "restate.model.transformer", "Seq2SeqModel", "encode"),
    ("model.step", "restate.model.transformer", "Seq2SeqModel",
     "predict_next_from_states"),
    ("model.loss_and_grads", "restate.model.transformer", "Seq2SeqModel",
     "loss_and_grads"),
    ("model.adam", "restate.model.training", "Adam", "step"),
    ("flags.step", "restate.flags", "FlagTracker", "step"),
    ("flags.clone", "restate.flags", "FlagTracker", "clone"),
    ("similarity.score", "restate.similarity", "SpanSimilarity", "score"),
    ("similarity.embed", "restate.similarity", "HashedNgramEmbedder", "embed"),
    ("decode.search", "restate.decode", None, "run_decoder"),
]

# Layers that run while the benchmark sets up; the rest are measured
# over the traced loop and reported per measured item.
SETUP_LAYERS = ("datagen.build_corpus", "treebank.extract_constraints",
                "flags.replay")

SETUP_ITEM = -1

# Every per-layer metric with its unit, in report order.
PER_LAYER_METRICS = [
    ("model.encode.calls", "count"), ("model.encode.self_ms", "ms"),
    ("model.step.calls", "count"), ("model.step.rows", "count"),
    ("model.step.self_ms", "ms"),
    ("model.loss_and_grads.calls", "count"),
    ("model.loss_and_grads.self_ms", "ms"), ("model.adam.self_ms", "ms"),
    ("flags.step.calls", "count"), ("flags.step.self_ms", "ms"),
    ("flags.clone.calls", "count"),
    ("flags.replay.self_ms", "ms"), ("flags.replay.total_ms", "ms"),
    ("similarity.score.calls", "count"), ("similarity.score.self_ms", "ms"),
    ("similarity.embed.calls", "count"), ("similarity.embed.self_ms", "ms"),
    ("similarity.embed.distinct_ratio", "ratio"),
    ("decode.search.self_ms", "ms"),
    ("decode.tracker_steps_per_model_call", "ratio"),
    ("datagen.build_corpus.self_ms", "ms"),
    ("treebank.extract_constraints.calls", "count"),
    ("trace.items", "count"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%"),
]


class Tracer:
    """Records spans while enabled; wrappers cost one flag test when not."""

    def __init__(self):
        self.enabled = False
        self.item = SETUP_ITEM
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.items = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.rows = 0                # sum of len(prefix) + 1 over model.step
        self.embedded: set = set()   # distinct token tuples given to embed
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, layer, fn):
        nid = len(self.names)
        self.names.append(layer)
        tracer = self
        name_id, parent, items = self.name_id, self.parent, self.items
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def note(args):
            if tracer.item < 0:
                return
            if layer == "model.step":
                tracer.rows += len(args[2]) + 1
            elif layer == "similarity.embed":
                tracer.embedded.add(tuple(args[1]))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            end.append(0.0)
            stack.append(idx)
            note(args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Patch every layer callable that still exists."""
        for layer, modname, clsname, attr in LAYERS:
            try:
                mod = importlib.import_module(modname)
            except ModuleNotFoundError:
                self.absent.append(layer)
                continue
            owner = getattr(mod, clsname, None) if clsname else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, fn)
            if clsname:
                targets = [owner]
            else:
                targets = [m for name, m in list(sys.modules.items())
                           if name.startswith("restate")
                           and getattr(m, attr, None) is fn]
            for target in targets:
                self._patched.append((target, attr, fn))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()

    # -- reporting ----------------------------------------------------------
    def arrays(self):
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "item": np.frombuffer(self.items, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_items, untraced_s, traced_s):
        """Per-layer metrics: set-up layers as run totals, the others per
        measured item of the traced loop. Absent layers are left out."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        in_loop = a["item"] != SETUP_ITEM
        per = max(n_items, 1)

        stats = {}
        for nid, layer in enumerate(self.names):
            mask = a["name_id"] == nid
            mask &= ~in_loop if layer in SETUP_LAYERS else in_loop
            scale = 1.0 if layer in SETUP_LAYERS else 1.0 / per
            stats[layer] = (int(mask.sum()) * scale,
                            float(self_s[mask].sum()) * 1e3 * scale,
                            float(dur[mask].sum()) * 1e3 * scale)
        out = {}
        for layer, (calls, self_ms, total_ms) in stats.items():
            out[layer + ".calls"] = calls
            out[layer + ".self_ms"] = self_ms
            out[layer + ".total_ms"] = total_ms
        if "model.step" in stats:
            out["model.step.rows"] = self.rows / per
        if "similarity.embed" in stats:
            calls = stats["similarity.embed"][0] * per
            out["similarity.embed.distinct_ratio"] = (
                len(self.embedded) / calls if calls else 0.0)
        if "flags.step" in stats and "model.step" in stats:
            steps, calls = stats["flags.step"][0], stats["model.step"][0]
            out["decode.tracker_steps_per_model_call"] = (
                steps / calls if calls else 0.0)
        out["trace.items"] = n_items
        out["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
        out["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100
                                     if untraced_s > 0 else 0.0)
        return {name: {"value": out[name], "unit": unit}
                for name, unit in PER_LAYER_METRICS if name in out}

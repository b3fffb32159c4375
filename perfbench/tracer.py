"""Spans recorded from the benchmark's side of the public API.

A span is (name, start, end, parent). The tracer records spans around the
benchmark's own calls into ``seu_forge`` and, while installed, around the
module-level names through which the package's modules call each other
(``seu_forge.engine.conv2d_forward``, ``seu_forge.campaign.run_float``, ...).
Nothing in the package is edited: the names are rebound for the duration of
a ``with tracer.installed():`` block and restored afterwards.

Spans live in memory and are written out by :meth:`Tracer.dump` when the run
ends. Work done inside pool children is invisible here; a pool shows up only
as one ``campaign.pool`` span covering its lifetime.
"""

from __future__ import annotations

import json
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from seu_forge import INVALID_CLASS

TENSOR_FUNCTIONS = ("conv2d_forward", "conv2d_transpose_forward",
                    "batchnorm_forward", "relu", "maxpool2d",
                    "concat_channels", "argmax_channels")


@contextmanager
def patched(patches):
    """Set each ``(object, attribute, value)`` for the block, then restore it."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    for obj, attr, new in patches:
        setattr(obj, attr, new)
    try:
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(int)
        self.gmac = 0.0
        self.golden_s = 0.0
        self._fault_depth = 0
        self._golden_map = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        if rec[2] is None:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(rec, args, out)
            return out
        return traced

    def begin_round(self) -> None:
        """The next unfaulted forward is the campaign's golden pass."""
        self._golden_map = None

    # -- hooks ---------------------------------------------------------------

    def _after_conv(self, rec, args, out):
        kh, kw, cin, _ = args[1].shape
        self.gmac += out.data.size * kh * kw * cin / 1e9

    def _after_forward(self, rec, args, out):
        class_map = out.class_map
        if self._fault_depth:
            self.counts["faulted_forwards"] += 1
            poisoned = bool((class_map == INVALID_CLASS).any())
            self.counts["nan"] += poisoned
            self.counts["masked"] += (not poisoned and self._golden_map is not None
                                      and np.array_equal(class_map, self._golden_map))
        elif self._golden_map is None:
            self._golden_map = class_map
            self.golden_s += rec[2] - rec[1]

    def _after_apply(self, rec, args, out):
        self._fault_depth += 1

    def _after_revert(self, rec, args, out):
        self._fault_depth -= 1

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind the package's internal call sites to traced wrappers."""
        import seu_forge.campaign as campaign
        import seu_forge.engine as engine
        import seu_forge.faults as faults
        import seu_forge.model as model
        import seu_forge.protect as protect

        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.counts["pools"] += 1
                self._trace_span = tracer.open("campaign.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    tracer.close(self._trace_span)

        patches = []
        for fn in TENSOR_FUNCTIONS:
            after = self._after_conv if fn == "conv2d_forward" else None
            patches.append((engine, fn, self.wrap(f"tensor.{fn}", getattr(engine, fn), after)))
        for mod in (campaign, protect):
            patches.append((mod, "run_float",
                            self.wrap("engine.run_float", mod.run_float, self._after_forward)))
            patches.append((mod, "error_rate",
                            self.wrap("campaign.error_rate", mod.error_rate)))
        for mod in (campaign, faults, protect):
            patches.append((mod, "apply_fault",
                            self.wrap("faults.apply_fault", mod.apply_fault, self._after_apply)))
            patches.append((mod, "revert",
                            self.wrap("faults.revert", mod.revert, self._after_revert)))
        patches += [
            (campaign, "run_quantized",
             self.wrap("engine.run_quantized", campaign.run_quantized, self._after_forward)),
            (campaign, "inject_and_measure",
             self.wrap("faults.inject_and_measure", campaign.inject_and_measure)),
            (campaign, "generate_sweep_faults",
             self.wrap("campaign.plan", campaign.generate_sweep_faults)),
            (campaign, "plan_multi_bit_campaign",
             self.wrap("campaign.plan", campaign.plan_multi_bit_campaign)),
            (campaign, "ProcessPoolExecutor", TracedPool),
            (protect, "segmentation_metrics",
             self.wrap("campaign.segmentation_metrics", protect.segmentation_metrics)),
            (model.ModelGraph, "copy", self.wrap("model.copy", model.ModelGraph.copy)),
        ]
        with patched(patches):
            yield self

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds, call count, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []})
            s["s"] += end - start
            s["self_s"] += end - start - child[i]
            s["calls"] += 1
            s["durations"].append(end - start)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")

"""Spans around the public functions of ofdmce's layers, set from outside.

``Tracer.install`` rebinds every public function of the six modules below,
in every one of those modules that holds it (so ``harness.equalize`` and
``phy.dft`` are traced as well as ``estimators.equalize`` and
``spectral.dft``), plus the public classmethods of their classes. Each call
appends one span ``[name, start_ns, end_ns, parent, shape]`` to an in-memory
list; ``shape`` is the input shape of a transform and None elsewhere. The
bookkeeping of a call falls outside its own span and inside its parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("spectral", "phy", "channel", "estimators", "harness", "cli")
TRANSFORMS = ("spectral.dft", "spectral.idft")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ofdmce.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("ofdmce."):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._patch(module, attr, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for name, member in list(vars(obj).items()):
                        if isinstance(member, classmethod) and not name.startswith("_"):
                            self._patch(obj, name, classmethod(self._wrap(member.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"  # e.g. spectral.dft
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_transform = name in TRANSFORMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            if is_transform:
                span[4] = getattr(args[0], "shape", None)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


# The per-layer metrics a traced run puts in its result. A function's self
# time is listed only if the function runs on every workload, so that none
# of these reads 0 on every run; the printed table and spans.csv hold the
# rest, such as estimators.conventional_estimate.
SELF_TIMES = (
    "spectral.dft",
    "spectral.idft",
    "estimators.equalize",
    "estimators.ideal_estimate",
    "phy.qpsk_modulate",
    "phy.build_grid",
    "phy.ofdm_modulate",
    "phy.ofdm_demodulate",
    "phy.extract_pilot_ls",
    "phy.qpsk_demodulate",
    "channel.complex_normal",
    "channel.apply_channel",
    "channel.from_taps",
    "harness.sweep",
    "cli.main",
)
CALLS = (
    "spectral.dft",
    "spectral.idft",
    "estimators.equalize",
    "phy.ofdm_demodulate",
    "channel.complex_normal",
)
REPORTED = (
    tuple(f"{layer}.self_s" for layer in LAYERS)
    + tuple(f"{name}.self_s" for name in SELF_TIMES)
    + tuple(f"{name}.calls" for name in CALLS)
    + ("spectral.points", "spectral.gflops", "trace.self_sum_s", "trace.round_wall_s")
)


def round_metrics(spans: list[list], first: int, wall_s: float) -> dict[str, list]:
    """Per-layer metrics, ``{name: [value, unit]}``, of the spans from ``first`` on.

    Besides every name in REPORTED, it holds the self time and call count of
    every traced function. A span's self time is its duration less its
    direct children's, so the self times of all spans add up to the root
    spans' total duration.
    """
    self_ns: defaultdict[str, int] = defaultdict(int)
    calls: Counter[str] = Counter()
    points = 0
    flops = 0.0
    for name, start, end, parent, shape in spans[first:]:
        self_ns[name] += end - start
        calls[name] += 1
        if parent >= first:
            self_ns[spans[parent][0]] -= end - start
        if shape:
            points += math.prod(shape)
            flops += 5.0 * math.prod(shape) * math.log2(shape[-1])
    metrics = {}
    for layer in LAYERS:
        total = sum(ns for name, ns in self_ns.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = [total / 1e9, "s"]
    for name in sorted(set(SELF_TIMES) | set(self_ns)):
        metrics[f"{name}.self_s"] = [self_ns[name] / 1e9, "s"]
        metrics[f"{name}.calls"] = [calls[name], "count"]
    busy = sum(self_ns[name] for name in TRANSFORMS) / 1e9
    metrics["spectral.points"] = [points, "count"]
    metrics["spectral.gflops"] = [flops / busy / 1e9 if busy else 0.0, "GFLOP/s"]
    metrics["trace.self_sum_s"] = [sum(self_ns.values()) / 1e9, "s"]
    metrics["trace.round_wall_s"] = [wall_s, "s"]
    return metrics

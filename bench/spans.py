"""Span tracing for the benchmark's traced runs.

``Tracer`` rebinds every public carrychain function, in the namespace of each
module that refers to it (the package, ``combinat``, ``eulerian``,
``matrix``, ``oracle``, ``rng``, ``simulate`` and ``cli``), to a wrapper that
records a span: name, start, end and the index of the enclosing span.  A
call from ``cli`` into ``matrix.amazing_matrix`` goes through
``cli.amazing_matrix`` and is caught there; a call inside ``matrix`` goes
through ``matrix.amazing_matrix``.  Hot leaves (``binomial``, the
per-entry ``amazing_entry``, the SplitMix64 kernel ``mix64`` and the seed
check) and generator functions only get call counts, so their time stays in
the self time of the span that called them.  Spans stay in memory until
``write`` is called, and ``layer_metrics`` folds them into self times: a
span's duration minus the time its direct child spans cover.

The program itself is not modified; ``uninstall`` puts every original
function back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from collections import Counter

LAYERS = ("combinat", "eulerian", "matrix", "oracle", "rng", "simulate", "cli")
COUNT_ONLY = frozenset({"combinat.binomial", "matrix.amazing_entry", "rng.check_seed", "rng.mix64"})


def _entry_bits(value) -> int:
    return max((abs(e).bit_length() for row in value.entries for e in row), default=0)


def _count_hook(tracer: "Tracer", name: str, args, result) -> None:
    """Work counters recorded at the same boundaries as the spans."""
    c = tracer.counters
    if name == "oracle.group_product":
        c["oracle.group_product.pairs"] += len(args[0].terms) * len(args[1].terms)
    elif name == "oracle.enumerate_b_shuffles":
        c["oracle.enumerate_b_shuffles.words"] += result.b**result.n
    elif name == "rng.stream_block":
        c["rng.values"] += int(result.size)
    elif name in ("simulate.simulate_shuffle_chain", "simulate.simulate_carries"):
        c["simulate.samples"] += result.samples
    elif name == "matrix.amazing_matrix":
        c["matrix.entry_bits_max"] = max(c["matrix.entry_bits_max"], _entry_bits(result))
    elif name == "matrix.descent_polynomial":
        bits = max(abs(x).bit_length() for x in result.coeffs)
        c["matrix.entry_bits_max"] = max(c["matrix.entry_bits_max"], bits)


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
                calls[name] += 1
            _count_hook(self, name, args, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        package = importlib.import_module("carrychain")
        modules = [package] + [importlib.import_module(f"carrychain.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("carrychain."):
                    continue
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    leaf = name in COUNT_ONLY or inspect.isgeneratorfunction(fn)
                    wrappers[id(fn)] = (self._count_wrapper if leaf else self._span_wrapper)(name, fn)
                self._rebind(module, attr, wrappers[id(fn)])
        matrix_cls = importlib.import_module("carrychain.simulate").EmpiricalMatrix
        tv_distances = self._span_wrapper("simulate.EmpiricalMatrix.tv_distances", vars(matrix_cls)["tv_distances"])
        self._rebind(matrix_cls, "tv_distances", tv_distances)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def layer_metrics(self, names) -> dict[str, float]:
        """Value of each named per-layer metric: ``<span>.self_s``,
        ``<span>.calls`` or a work counter; 0 where nothing was recorded."""
        self_s = self.self_times()
        out = {}
        for metric in names:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(base, 0)
            else:
                out[metric] = self.counters.get(metric, 0)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

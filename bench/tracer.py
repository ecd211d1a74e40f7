"""Module-level spans around the public runshift API, installed from outside.

The benchmark never edits the library.  Instead ``Tracer.installed`` replaces
every public function of each layer module with a timing wrapper at every
place a runshift module binds it (``runshift.cli.correlation`` and
``runshift.oracle.correlation`` are the same function bound twice), and
wraps the public methods of the library's classes, so a call from one
module into another nests as a child span.  Leaving the block puts the
originals back.

Spans stay in memory until the traced run ends.  A layer's self time is
the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("sequences", "potential", "renorm", "cantor", "decay", "oracle", "cli")

# Spans whose inclusive time is reported on its own, by metric name.
INCLUSIVE = {
    "oracle.correlation_s": ("oracle.correlation",),
    "oracle.mc_s": ("oracle.sample_paths",),
    "decay.renewal_s": ("decay.renewal_series",),
    "decay.dsweep_s": ("decay.correlation_asymptotic",),
    "cantor.quadrature_s": ("cantor.quadrature", "cantor.quadrature_values"),
    "cantor.mc_s": ("cantor.monte_carlo_integral",),
}


def _max_lag(qs) -> int:
    return max((int(q) for q in (qs if hasattr(qs, "__len__") else [qs])), default=0)


def _count_correlation(a, counts):
    counts["oracle.state_steps"] += a["chain"].M * _max_lag(a["qs"])


def _count_sample_paths(a, counts):
    counts["oracle.mc_path_steps"] += a["length"] * a["n_paths"]


def _count_renewal(a, counts):
    counts["decay.renewal_lags"] += a["qmax"]


def _count_dsweep(a, counts):
    counts["decay.dsweep_lags"] += len(a["q"]) if hasattr(a["q"], "__len__") else 1


def _count_quadrature(a, counts):
    counts["cantor.kernel_evals"] += a["cm"].ds.l ** a["depth"] if a["depth"] else 0


def _count_quadrature_values(a, counts):
    counts["cantor.kernel_evals"] += a["cm"].ds.l ** a["depth"] * len(a["ns"])


def _count_mc(a, counts):
    counts["cantor.mc_samples"] += a["samples"]


# Counters read from a call's arguments, keyed by span name.
COUNTERS = {
    "oracle.correlation": _count_correlation,
    "oracle.sample_paths": _count_sample_paths,
    "decay.renewal_series": _count_renewal,
    "decay.correlation_asymptotic": _count_dsweep,
    "cantor.quadrature": _count_quadrature,
    "cantor.quadrature_values": _count_quadrature_values,
    "cantor.monte_carlo_integral": _count_mc,
}


class Tracer:
    """Records (name, start, end, parent, task) spans while ``active``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self.task = None
        self._stack: list[int] = []
        self._patches: list | None = None  # (holder, attr, wrapper, original)
        self._prefix_tables: set = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, tracer.counts)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.task)
            if name == "cantor.CantorMeasure.prefix_points":
                tracer._note_prefix_table(args, result)
            return result

        return wrapper

    def _note_prefix_table(self, args, table):
        """Bytes of each distinct prefix table a task materializes
        (computed from the array size, not measured)."""
        key = (self.task, id(args[0]), args[1] if len(args) > 1 else None)
        if key not in self._prefix_tables:
            self._prefix_tables.add(key)
            self.counts["cantor.prefix_bytes"] += table.nbytes

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block."""
        if self._patches is None:
            self._patches = self._build_patches()
        for holder, attr, wrapper, _ in self._patches:
            setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, _, original in reversed(self._patches):
                setattr(holder, attr, original)

    def _build_patches(self) -> list:
        """Each layer's public functions wherever runshift binds them, and
        the public methods of the classes each layer defines."""
        package = importlib.import_module("runshift")
        modules = [package] + [importlib.import_module(f"runshift.{m}") for m in LAYERS]
        patches = []
        for layer, mod in zip(LAYERS, modules[1:]):
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    patches += self._method_patches(layer, obj)
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{layer}.{public}", obj)
                    patches += [(holder, attr, wrapper, obj) for holder in modules
                                for attr, value in vars(holder).items() if value is obj]
        return patches

    def _method_patches(self, layer: str, cls) -> list:
        patches = []
        for attr, raw in vars(cls).items():
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                patches.append((cls, attr, staticmethod(self._wrap(name, raw.__func__)), raw))
            elif inspect.isfunction(raw):
                patches.append((cls, attr, self._wrap(name, raw), raw))
            # properties and data stay untouched
        return patches

    def clear(self):
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()
        self._prefix_tables.clear()

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def inclusive(self, names) -> float:
        """Time under the outermost spans with one of ``names``."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def layer_metrics(self) -> dict:
        """Per-layer self time and call counts, plus the inclusive spans
        and argument counters the benchmark names."""
        selfs = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
            out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.split(".")[0] == layer)
        for metric, names in INCLUSIVE.items():
            out[metric] = self.inclusive(names)
        for key in ("oracle.state_steps", "oracle.mc_path_steps", "decay.renewal_lags",
                    "decay.dsweep_lags", "cantor.kernel_evals", "cantor.prefix_bytes",
                    "cantor.mc_samples"):
            out[key] = self.counts[key]
        return out


def write_trace(path: str, spans: list, meta: dict):
    """Write spans as gzip JSON: names are interned into a table and
    each span is [name index, start, end, parent index, task]."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "meta": meta,
        "fields": ["name", "start_s", "end_s", "parent", "task"],
        "names": names,
        "spans": [[index[n], s, e, p, t] for n, s, e, p, t in spans],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)

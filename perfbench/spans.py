"""Span recorder for the traced run: times calls into chromaspec from outside.

Each traced function is replaced, in every ``chromaspec.*`` module namespace
that binds the same function object, by a wrapper that records a span
(name, start, end, parent). ``from .coloring import chromatic_number`` copies
the binding into ``search``, ``bounds`` and ``verify``, so patching the
defining module alone would miss those calls. Spans stay in memory; the
workload writes them out when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name): the layer boundaries the per-layer metrics use.
TRACED = [
    ("cli", "main", "cli.main"),
    ("search", "search_sharp", "search.search_sharp"),
    ("search", "canonical_mask", "search.canonical_mask"),
    ("search", "graph_from_mask", "search.graph_from_mask"),
    ("_kernels", "connected_masks", "kernels.connected_masks"),
    ("coloring", "chromatic_number", "coloring.chromatic_number"),
    ("coloring", "dsatur", "coloring.dsatur"),
    ("coloring", "greedy_clique", "coloring.greedy_clique"),
    ("coloring", "enumerate_chi_colorings", "coloring.enumerate_chi_colorings"),
    ("coloring", "is_equitable_DinvA", "coloring.is_equitable_DinvA"),
    ("spectral", "spectrum", "spectral.spectrum"),
    ("bounds", "hoffman_bound", "bounds.hoffman_bound"),
    ("bounds", "full_report", "bounds.full_report"),
    ("verify", "run_suites", "verify.run_suites"),
]
# Every public function of these modules is traced; their self times are
# reported per module.
WHOLE_MODULES = ["families", "compose"]


def _kernel_work(rec: "SpanRecorder", args: tuple, result) -> None:
    # Computed, not measured: connected_masks(n) scans all 2^(n choose 2)
    # labelled masks. The numpy path holds the mask array, an n-column uint64
    # row array and the reach array (8 * M * (n + 2) bytes); the numba path
    # allocates only its uint64 output buffer (8 * M bytes).
    from chromaspec._kernels import using_numba

    n = args[0]
    masks = 1 << (n * (n - 1) // 2)
    rec.counts["kernels.masks_scanned"] += masks
    rec.counts["kernels.computed_bytes"] += 8 * masks * (1 if using_numba() else n + 2)


# What the per-layer counts and ratios need from arguments and return values.
OBSERVERS = {
    "search.canonical_mask": lambda rec, a, r: rec.classes.add((rec.passes, a[0], r)),
    "kernels.connected_masks": _kernel_work,
    "coloring.enumerate_chi_colorings": lambda rec, a, r: rec.counts.update(colorings=len(r)),
    "coloring.is_equitable_DinvA": lambda rec, a, r: rec.counts.update(equitable=int(r)),
    "bounds.full_report": lambda rec, a, r: rec.counts.update(sharp=int(r.sharp)),
}


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.classes: set = set()  # (pass, n, canonical mask) seen
        self.passes = 0
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _targets(self):
        for module, func, name in TRACED:
            yield getattr(sys.modules[f"chromaspec.{module}"], func), name
        for module in WHOLE_MODULES:
            mod = sys.modules[f"chromaspec.{module}"]
            for func, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not func.startswith("_"):
                    yield fn, f"{module}.{func}"

    def install(self) -> None:
        """Swap every chromaspec binding of a traced function for its wrapper."""
        if not self._wrappers:
            self._wrappers = [(fn, self._wrap(name, fn)) for fn, name in self._targets()]
        modules = [m for k, m in sys.modules.items() if k == "chromaspec" or k.startswith("chromaspec.")]
        for fn, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    @contextmanager
    def traced_pass(self):
        """Trace the calls made inside the block as one pass."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.passes += 1

    def per_layer(self, traced_walls: list[float], untraced_walls: list[float]) -> dict:
        """Per-layer metrics, each a per-pass average over the traced passes.

        ``traced_walls[i]`` and ``untraced_walls[i]`` time the same commands.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: Counter = Counter()
        for (name_id, start, end, parent), inner in zip(self.spans, child):
            name = self.names[name_id]
            calls[name] += 1
            busy[name] += end - start
            selfs[name] += end - start - inner
        c = self.counts
        passes = max(self.passes, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        def per_pass(x):
            return x / passes

        def module_self(module):
            return per_pass(sum(v for k, v in selfs.items() if k.startswith(module + ".")))

        canon = calls["search.canonical_mask"]
        out = {
            "search.search_sharp.self_s": (per_pass(selfs["search.search_sharp"]), "s"),
            "search.canonical_mask.calls": (per_pass(canon), "count"),
            "search.canonical_mask.self_s": (per_pass(selfs["search.canonical_mask"]), "s"),
            "search.graph_from_mask.calls": (per_pass(calls["search.graph_from_mask"]), "count"),
            "search.graph_from_mask.self_s": (per_pass(selfs["search.graph_from_mask"]), "s"),
            "search.dedup_yield": (ratio(len(self.classes), canon), "ratio"),
            "kernels.connected_masks.self_s": (per_pass(selfs["kernels.connected_masks"]), "s"),
            "kernels.masks_scanned": (per_pass(c["kernels.masks_scanned"]), "count"),
            "kernels.computed_bytes": (per_pass(c["kernels.computed_bytes"]), "bytes"),
        }
        for name in ("enumerate_chi_colorings", "is_equitable_DinvA", "dsatur"):
            out[f"coloring.{name}.calls"] = (per_pass(calls[f"coloring.{name}"]), "count")
            out[f"coloring.{name}.self_s"] = (per_pass(selfs[f"coloring.{name}"]), "s")
        reports = calls["bounds.full_report"]
        out.update({
            "coloring.colorings": (per_pass(c["colorings"]), "count"),
            "coloring.equitable_yield": (
                ratio(c["equitable"], calls["coloring.is_equitable_DinvA"]), "ratio"),
            "coloring.chromatic_number.calls": (per_pass(calls["coloring.chromatic_number"]), "count"),
            "coloring.chromatic_number.busy_s": (per_pass(busy["coloring.chromatic_number"]), "s"),
            "coloring.greedy_clique.calls": (per_pass(calls["coloring.greedy_clique"]), "count"),
            "coloring.dsatur_per_report": (ratio(calls["coloring.dsatur"], reports), "ratio"),
            "spectral.spectrum.calls": (per_pass(calls["spectral.spectrum"]), "count"),
            "spectral.spectrum.self_s": (per_pass(selfs["spectral.spectrum"]), "s"),
            "bounds.hoffman_bound.self_s": (per_pass(selfs["bounds.hoffman_bound"]), "s"),
            "bounds.full_report.calls": (per_pass(reports), "count"),
            "bounds.full_report.self_s": (per_pass(selfs["bounds.full_report"]), "s"),
            "bounds.sharp_yield": (ratio(c["sharp"], reports), "ratio"),
            "families.self_s": (module_self("families"), "s"),
            "compose.self_s": (module_self("compose"), "s"),
            "verify.run_suites.self_s": (per_pass(selfs["verify.run_suites"]), "s"),
            "cli.main.self_s": (per_pass(selfs["cli.main"]), "s"),
            "trace.spans": (per_pass(len(self.spans)), "count"),
            "trace.overhead_s": (statistics.median(t - u for t, u in zip(traced_walls, untraced_walls)), "s"),
            # Self times partition the traced commands' time, so this is the
            # share of the traced wall time that the recorded layers account for.
            "trace.accounted_share": (ratio(sum(selfs.values()), sum(traced_walls)), "ratio"),
        })
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))

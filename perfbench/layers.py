"""Per-layer tracing of treewalks, installed from outside the package.

A :class:`Tracer` replaces each layer's public functions, and the
``PowerSeries`` methods, with wrappers that record one span per call: name,
parent span, start and end.  Spans stay in memory; :func:`summarize` turns
them into per-layer metrics once a pass has ended.  A span's self time is its
duration minus the time its child spans cover.  The work a wrapper does to
count (bit lengths, cache statistics) is kept out of every span's self time
and reported as ``bookkeeping``.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator, Optional

LAYERS = ("rationals", "series", "genfunc", "recurrence", "oracles", "cli")

# reduce_word, weight_and_poids and WalkTable.count run once per word, path
# or table cell; a span each would swamp the layer that calls them.
FUNCTIONS = {
    "rationals": ("format_number", "parse_number"),
    "recurrence": ("build_table", "mass_check"),
    "genfunc": ("dyck_gf", "irreducible_gf", "poids_gf", "tree_gf"),
    "oracles": ("enumerate_dyck", "tree_walk_count", "free_group_count"),
    "cli": ("main",),
}

SERIES_METHODS = {
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "truediv",
    "__pow__": "pow",
    "inverse": "inverse",
    "sqrt": "sqrt",
    "shift_div": "shift_div",
    "shift_mul": "shift_mul",
    "truncate": "truncate",
}

PER_LAYER = (
    "recurrence.build_table.calls",
    "recurrence.build_table.self_s",
    "recurrence.reachable_cells",
    "recurrence.max_value_bits",
    "series.mul.calls",
    "series.mul.self_s",
    "series.mul.coeff_products",
    "series.inverse.self_s",
    "series.inverse.coeff_products",
    "series.sqrt.self_s",
    "series.sqrt.coeff_products",
    "series.pow.self_s",
    "series.shift_div.self_s",
    "series.max_coeff_bits",
    "genfunc.tree_gf.s",
    "genfunc.poids_gf.s",
    "genfunc.dyck_gf.s",
    "genfunc.self_s",
    "oracles.enumerate_dyck.self_s",
    "oracles.tree_walk_count.self_s",
    "oracles.free_group_count.self_s",
    "oracles.states",
    "oracles.cache_hit_ratio",
    "rationals.format_number.calls",
    "rationals.format_number.self_s",
    "rationals.parse_number.calls",
    "cli.main.self_s",
    "cli.verify.checks",
    *(f"{layer}.share" for layer in LAYERS),
    "recurrence.self_s",
    "series.self_s",
    "oracles.self_s",
    "rationals.self_s",
    "trace.wall_s",
    "trace.overhead_s",
)


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_ratio") or metric.endswith(".share"):
        return "ratio"
    return "count"


def oracle_caches(oracles: ModuleType) -> list:
    """The oracles' memo tables: every ``functools`` cache in the module."""
    return [f for f in vars(oracles).values() if callable(getattr(f, "cache_clear", None))]


def drain_caches(caches: list) -> tuple[int, int]:
    """Clear the caches so the next command starts as cold as a fresh
    process; return the hits and misses they had counted."""
    hits = misses = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
        cache.cache_clear()
    return hits, misses


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.spans: list[list] = []  # [name, parent index or -1, start, end, covered by children]
        self.counts: Counter[str] = Counter()
        self.bookkeeping = 0.0
        self._open: list[int] = []
        self._caches = oracle_caches(modules["oracles"])

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._open
        caches = self._caches if name.startswith("oracles.") else []

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = sum(c.cache_info().misses for c in caches)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += span[3] - span[2]
            if after is not None:
                after(args, kwargs, result, misses)
                done = perf_counter()
                self.bookkeeping += done - span[3]
                if stack:
                    spans[stack[-1]][4] += done - span[3]
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every traced name wherever treewalks imported it, then undo.

        ``cli`` imports its callees by name and ``poids_gf`` recurses
        through the ``genfunc`` globals, so each module that holds the
        original function gets the wrapper.
        """
        patches = []
        try:
            for layer, names in FUNCTIONS.items():
                for fname in names:
                    original = getattr(self.modules[layer], fname)
                    traced = self.wrap(f"{layer}.{fname}", original, self._counter(f"{layer}.{fname}"))
                    for module in self.modules.values():
                        if getattr(module, fname, None) is original:
                            patches.append((module, fname, original))
                            setattr(module, fname, traced)
            series_cls = self.modules["series"].PowerSeries
            for method, op in SERIES_METHODS.items():
                original = series_cls.__dict__[method]
                patches.append((series_cls, method, original))
                setattr(series_cls, method, self.wrap(f"series.{op}", original, self._counter(f"series.{op}")))
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def end_command(self, text: str) -> None:
        """Count what one command left behind: cache use and verify checks."""
        hits, misses = drain_caches(self._caches)
        self.counts["oracles.cache_hits"] += hits
        self.counts["oracles.cache_misses"] += misses
        self.counts["cli.verify.checks"] += sum(line.startswith(("PASS", "FAIL")) for line in text.splitlines())

    def _counter(self, name: str) -> Optional[Callable]:
        counts = self.counts
        caches = self._caches

        def missed(before: int) -> bool:
            return sum(c.cache_info().misses for c in caches) > before

        def build_table(args, kwargs, table, _):
            n_max = _arg(args, kwargs, 1, "n_max")
            counts["recurrence.reachable_cells"] += sum(n // 2 + 1 for n in range(n_max + 1))
            last = [table.count(i, n_max) for i in range(n_max + 1)]
            counts["recurrence.max_value_bits"] = max(counts["recurrence.max_value_bits"], _bits(last))

        def series(products: Callable) -> Callable:
            def count(args, kwargs, result, _):
                if hasattr(result, "coeffs"):
                    counts[f"{name}.coeff_products"] += products(args, result.order)
                    counts["series.max_coeff_bits"] = max(counts["series.max_coeff_bits"], _bits(result.coeffs))

            return count

        def enumerate_dyck(args, kwargs, result, before):
            if missed(before):
                counts["oracles.states"] += 2 ** _arg(args, kwargs, 2, "n")

        def tree_walk_count(args, kwargs, result, before):
            if missed(before):
                m, n = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 2, "n")
                counts["oracles.states"] += 1 + sum(m * (m - 1) ** (d - 1) for d in range(1, n + 1))

        def free_group_count(args, kwargs, result, _):
            counts["oracles.states"] += (2 * _arg(args, kwargs, 0, "g")) ** _arg(args, kwargs, 2, "n")

        return {
            "recurrence.build_table": build_table,
            "series.mul": series(
                lambda args, n: (n + 1) * (n + 2) // 2 if hasattr(args[1], "coeffs") else n + 1
            ),
            "series.inverse": series(lambda args, n: n * (n + 1) // 2),
            "series.sqrt": series(lambda args, n: n * (n - 1) // 2),
            "oracles.enumerate_dyck": enumerate_dyck,
            "oracles.tree_walk_count": tree_walk_count,
            "oracles.free_group_count": free_group_count,
        }.get(name)


def summarize(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    ``genfunc.<fn>.s`` is inclusive time, counted once per outermost call
    (``poids_gf`` recurses); every ``self_s`` excludes child spans.
    """
    spans = tracer.spans
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    for name, parent, start, end, covered in spans:
        self_s[name] += end - start - covered
        calls[name] += 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            inclusive[name] += end - start
    layer_self = {
        layer: sum(t for name, t in self_s.items() if name.startswith(layer + ".")) for layer in LAYERS
    }
    counts = tracer.counts
    lookups = counts["oracles.cache_hits"] + counts["oracles.cache_misses"]
    metrics: dict[str, float] = {
        "recurrence.build_table.calls": calls["recurrence.build_table"],
        "recurrence.build_table.self_s": self_s["recurrence.build_table"],
        "series.mul.calls": calls["series.mul"],
        "oracles.cache_hit_ratio": counts["oracles.cache_hits"] / lookups if lookups else 0.0,
        "rationals.format_number.calls": calls["rationals.format_number"],
        "rationals.parse_number.calls": calls["rationals.parse_number"],
        "cli.main.self_s": self_s["cli.main"],
        "genfunc.self_s": layer_self["genfunc"],
        "trace.wall_s": wall,
    }
    for key in ("recurrence.reachable_cells", "recurrence.max_value_bits", "series.max_coeff_bits",
                "oracles.states", "cli.verify.checks"):
        metrics[key] = counts[key]
    for op in ("mul", "inverse", "sqrt"):
        metrics[f"series.{op}.coeff_products"] = counts[f"series.{op}.coeff_products"]
    for name in ("series.mul", "series.inverse", "series.sqrt", "series.pow", "series.shift_div",
                 "oracles.enumerate_dyck", "oracles.tree_walk_count", "oracles.free_group_count",
                 "rationals.format_number"):
        metrics[f"{name}.self_s"] = self_s[name]
    for fn in ("tree_gf", "poids_gf", "dyck_gf"):
        metrics[f"genfunc.{fn}.s"] = inclusive[f"genfunc.{fn}"]
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / wall
    for layer in ("recurrence", "series", "oracles", "rationals"):
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics

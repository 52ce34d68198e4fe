"""Spans around the calls into hgx's layers, recorded from outside the program.

``Tracer.install`` replaces each listed public function with a wrapper in
every loaded ``hgx`` module that binds it (``from .core import shadow``
makes a second binding), and wraps ``Hypergraph.__init__`` for
constructions.  A wrapper records one span per call: name, start, end,
parent span and query id.  Calls made about a million times per round
are summed per function instead of kept.  Self time is a span's
duration minus the time its child spans cover.  ``uninstall`` restores
every binding, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Any, Callable, Optional

# (module, public name) of every traced function
TRACED = (
    ("core", "Hypergraph"),
    ("core", "shadow"),
    ("core", "min_shadow_degree"),
    ("covers", "tau"),
    ("covers", "sigma"),
    ("trees", "find_tree_ordering"),
    ("trees", "verify_certificate"),
    ("trees", "r_partition"),
    ("trees", "is_k_reducible"),
    ("embedding", "embed"),
    ("embedding", "contains_anchored"),
    ("embedding", "greedy_tree_embed"),
    ("extremal", "turan_oracle"),
    ("extremal", "certify_construction_free"),
    ("extremal", "missing_vs_nonm_check"),
    ("extremal", "tree_shadow_bound_check"),
    ("cli", "main"),
)
SUMMED = {"core.Hypergraph", "embedding.contains_anchored"}

# What a call's result adds to its function's counters.
PROBES: dict[str, Callable[[Any], dict[str, int]]] = {
    "extremal.turan_oracle": lambda res: {"nodes": res.nodes},
    "embedding.embed": lambda res: {"nodes": res.nodes},
    "embedding.contains_anchored": lambda res: {"hits": int(bool(res))},
    "trees.find_tree_ordering": lambda res: {"nones": int(res is None)},
}

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("extremal.turan_oracle.self_s", "s"),
    ("extremal.turan_oracle.nodes", "count"),
    ("embedding.contains_anchored.calls", "count"),
    ("embedding.contains_anchored.self_s", "s"),
    ("embedding.contains_anchored.hit_ratio", "ratio"),
    ("embedding.embed.calls", "count"),
    ("embedding.embed.self_s", "s"),
    ("embedding.embed.nodes", "count"),
    ("extremal.certify_construction_free.self_s", "s"),
    ("extremal.missing_vs_nonm_check.self_s", "s"),
    ("extremal.tree_shadow_bound_check.self_s", "s"),
    ("embedding.greedy_tree_embed.calls", "count"),
    ("embedding.greedy_tree_embed.self_s", "s"),
    ("core.min_shadow_degree.calls", "count"),
    ("core.min_shadow_degree.self_s", "s"),
    ("core.Hypergraph.calls", "count"),
    ("core.Hypergraph.self_s", "s"),
    ("core.shadow.self_s", "s"),
    ("trees.find_tree_ordering.calls", "count"),
    ("trees.find_tree_ordering.self_s", "s"),
    ("trees.find_tree_ordering.none_ratio", "ratio"),
    ("trees.verify_certificate.calls", "count"),
    ("trees.verify_certificate.self_s", "s"),
    ("trees.r_partition.self_s", "s"),
    ("trees.is_k_reducible.self_s", "s"),
    ("covers.tau.calls", "count"),
    ("covers.sigma.calls", "count"),
    ("covers.tau.self_s", "s"),
    ("covers.sigma.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.stats = {f"{mod}.{attr}": _Stat() for mod, attr in TRACED}
        self.spans: list[tuple] = []  # (id, name, start, end, parent, query)
        self.query: Optional[int] = None
        self._stack: list[list] = []  # [span id, child time] of open calls
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.get(name)
        keep = name not in SUMMED
        probe = PROBES.get(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids) if keep else None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if stat is not None:
                    stat.calls += 1
                    stat.total_s += duration
                    stat.self_s += duration - frame[1]
                if keep:
                    spans.append((frame[0], name, start - self.origin, end - self.origin, parent, self.query))
            if probe is not None:
                for key, value in probe(result).items():
                    stat.counters[key] = stat.counters.get(key, 0) + value
            return result

        return wrapper

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under a kept span of its own, such as one query."""
        return self._wrap(name, fn)()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "hgx" or key.startswith("hgx.")]
        for mod, attr in TRACED:
            name = f"{mod}.{attr}"
            original = getattr(sys.modules[f"hgx.{mod}"], attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patches.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(name, init))
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    def metrics(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per traced round, named as in PER_LAYER."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls / rounds
            out[f"{name}.self_s"] = stat.self_s / rounds
            for key, value in stat.counters.items():
                out[f"{name}.{key}"] = value / rounds
        ca = self.stats["embedding.contains_anchored"]
        out["embedding.contains_anchored.hit_ratio"] = ca.counters.get("hits", 0) / ca.calls if ca.calls else 0.0
        fto = self.stats["trees.find_tree_ordering"]
        out["trees.find_tree_ordering.none_ratio"] = fto.counters.get("nones", 0) / fto.calls if fto.calls else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: out.get(name, 0.0) for name, _ in PER_LAYER}

    def dump(self) -> dict:
        """Kept spans and per-function sums, for the trace file."""
        return {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "query"],
            "spans": self.spans,
            "functions": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counters}
                for name, s in self.stats.items()
            },
        }

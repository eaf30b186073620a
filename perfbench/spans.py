"""Span recorder for the traced run.

The program itself carries no tracing. For a traced pass the recorder
replaces decoygraph's public functions at every module-global name their
callers look them up by (so `placement_search.simulate_attack` and
`attacker.simulate_attack` both record), plus the three lazily built
adjacency properties of `AttackGraph`, and puts the originals back
afterwards. Names a later version of the program no longer has are skipped,
so the traced run keeps working and reports zero for them.

A span is [layer, start, end, parent index]; a layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

# layer -> public function names, looked up in every decoygraph module
FUNCTIONS = {
    "netmodel.generate": ("generate_network",),
    "aggraph.build": ("build_attack_graph", "apply_assignments", "remove_assignment"),
    "planner.plan": ("plan_with_stats",),
    "planner.derivable": ("derivable",),
    "attacker.simulate": ("simulate_attack",),
    "attacker.evaluate": ("evaluate_placement",),
    "search.singletons": ("compute_singleton_utilities",),
    "search.path_index": ("build_path_index",),
    "search.tree": ("dfbnb", "astar", "exhaustive_best"),
    "placement_random.draw": ("random_placement", "random_budget_placement"),
}
ADJACENCY = ("requirements", "grants", "supporters")
SEARCH_LAYERS = ("search.tree", "search.singletons", "search.path_index")
RATIOS = (
    "aggraph.build.per_eval",
    "attacker.rounds_per_sim",
    "search.expanded_over_subsets",
    "search.utility_cache.hit_ratio",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.searches: list[tuple] = []  # (network, budget) of each search, sized afterwards
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.spans, self.stack, self.counts, self.searches = [], [], Counter(), []

    @contextmanager
    def span(self, layer: str):
        index = len(self.spans)
        record = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, layer: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with tracer.span(layer):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            tracer._observe(layer, signature, args, kwargs, result)
            return result

        return traced

    def _observe(self, layer, signature, args, kwargs, result) -> None:
        if layer == "planner.plan":
            self.counts["planner.plan.expanded_states"] += getattr(result[1], "expanded_states", 0)
        elif layer == "attacker.simulate":
            self.counts["attacker.rounds"] += len(getattr(result, "iterations", ()))
        elif layer == "search.singletons":
            bound = signature.bind(*args, **kwargs)
            self.counts["search.singleton_requests"] += len(bound.arguments.get("candidates", ()))
        elif layer == "search.tree":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["search.expanded_nodes"] += getattr(result, "expanded_nodes", 0)
            self.counts["search.generated_nodes"] += getattr(result, "generated_nodes", 0)
            self.searches.append((bound.arguments.get("network"), bound.arguments.get("budget", 0)))

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "decoygraph"]
        wrappers: dict[int, object] = {}
        for layer, names in FUNCTIONS.items():
            for module in modules:
                for name in names:
                    fn = module.__dict__.get(name)
                    if not inspect.isfunction(fn) or not fn.__module__.startswith("decoygraph"):
                        continue
                    wrapper = wrappers.setdefault(id(fn), self._wrap(layer, fn))
                    self._patch(module, name, wrapper)
        aggraph = sys.modules.get("decoygraph.aggraph")
        graph_cls = getattr(aggraph, "AttackGraph", None)
        for name in ADJACENCY:
            prop = None if graph_cls is None else graph_cls.__dict__.get(name)
            if isinstance(prop, cached_property):
                lazy = cached_property(self._wrap("aggraph.adjacency", prop.func))
                lazy.__set_name__(graph_cls, name)
                self._patch(graph_cls, name, lazy)
        search = sys.modules.get("decoygraph.placement_search")
        context = getattr(search, "_SearchContext", None)
        evaluate = None if context is None else context.__dict__.get("evaluate")
        if inspect.isfunction(evaluate):
            # Counted, not spanned: every tree node asks for one evaluation,
            # cache hits included, which is what the hit ratio is taken over.
            @functools.wraps(evaluate)
            def counted(*args, **kwargs):
                self.counts["search.tree_requests"] += 1
                return evaluate(*args, **kwargs)

            self._patch(context, "evaluate", counted)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- summarising ----------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for index, (layer, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
        return out

    def counters(self, candidate_count) -> dict[str, float]:
        """Deterministic effort counts for the spans recorded since the last reset.

        `candidate_count(network)` sizes a search's subset space, so that
        expanded nodes can be set against sum_{k<=K} C(n, k).
        """
        layers = self.layers()
        calls = {layer: entry["calls"] for layer, entry in layers.items()}
        under_search = under_index = 0
        for layer, _, _, parent in self.spans:
            if layer not in ("attacker.simulate", "planner.plan"):
                continue
            ancestors = set()
            while parent >= 0:
                ancestors.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            if layer == "attacker.simulate" and ancestors & set(SEARCH_LAYERS):
                under_search += 1
            if layer == "planner.plan" and "search.path_index" in ancestors:
                under_index += 1
        subsets = 0
        for network, budget in self.searches:
            n = candidate_count(network)
            subsets += sum(math.comb(n, k) for k in range(min(budget, n) + 1))
        sims = calls.get("attacker.simulate", 0)
        requests = self.counts["search.tree_requests"] + self.counts["search.singleton_requests"]
        return {
            "aggraph.build.calls": calls.get("aggraph.build", 0),
            "aggraph.build.per_eval": _ratio(calls.get("aggraph.build", 0), sims),
            "aggraph.adjacency.calls": calls.get("aggraph.adjacency", 0),
            "planner.plan.calls": calls.get("planner.plan", 0),
            "planner.plan.expanded_states": self.counts["planner.plan.expanded_states"],
            "planner.derivable.calls": calls.get("planner.derivable", 0),
            "planner.unreachable": self.counts["planner.plan.raised.Unreachable"],
            "attacker.simulate.calls": sims,
            "attacker.rounds_per_sim": _ratio(self.counts["attacker.rounds"], sims),
            "search.expanded_nodes": self.counts["search.expanded_nodes"],
            "search.generated_nodes": self.counts["search.generated_nodes"],
            "search.expanded_over_subsets": _ratio(self.counts["search.expanded_nodes"], subsets),
            "search.evaluations": under_search,
            "search.eval_requests": requests,
            "search.utility_cache.hit_ratio": 1.0 - _ratio(under_search, requests) if requests else 0.0,
            "search.path_index.planner_calls": under_index,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

"""The placement search tree in its reference form, built from assignments.

The engines (`dfbnb`, `astar`) walk the decision tree on candidate indices
and bitmasks (`placement_search._SearchContext`). `SearchNode`, `expand`,
`h1`, `h2`, `order_candidates` and its `_rank_by_paths` build the same tree
from `SearchNode`s over `Candidate`s (`candidates_of` makes them from a
problem's candidate indices): `TestEngineTree` walks both node for node,
criterion 4 checks on this form that h2 is sound and that h1 is not, and
`TestRanking` holds `_rank_by_paths` and the engines' `_path_ranker` to the
same orders.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from decoygraph.errors import ConfigurationError
from decoygraph.netmodel import Assignment
from decoygraph.placement_search import ORDERINGS, PathIndex, PlacementProblem


@dataclass(frozen=True)
class Candidate:
    """An open candidate of a search tree and its value planted alone."""

    assignment: Assignment
    singleton_utility: float


def candidates_of(problem: PlacementProblem, indices: Iterable[int]) -> tuple[Candidate, ...]:
    """The problem's candidates of `indices`, in that order, each with its value planted alone."""
    chosen = [problem.candidates[i] for i in indices]
    return tuple(Candidate(a, problem.value(frozenset({a}))) for a in chosen)


@dataclass(frozen=True)
class SearchNode:
    """One decision-tree node: committed assignments plus open candidates.

    The reference form of the engines' node, a plain tuple over candidate indices (`_Node`).
    """

    chosen: tuple[Assignment, ...]
    remaining: tuple[Candidate, ...]
    utility: float
    heuristic: float
    budget: int
    baseline_cost: float

    @property
    def f(self) -> float:
        return self.utility + self.heuristic



def _top_utility_sum(candidates: tuple[Candidate, ...], slots: int) -> float:
    if slots <= 0:
        return 0.0
    # sorted is heapq.nlargest's documented equivalent, and several times faster on these short lists;
    # fsum, since sum() compensates only from Python 3.12 on
    return math.fsum(sorted([c.singleton_utility for c in candidates], reverse=True)[:slots])


def h1(node: SearchNode) -> float:
    """Optimistic estimate: sum of the best still-open singleton utilities.

    Not a sound upper bound; a combination of fakes can beat the sum of its
    parts, so search under h1 may prune the true optimum.
    """
    return _top_utility_sum(node.remaining, node.budget - len(node.chosen))


def h2(node: SearchNode) -> float:
    """Sound upper bound: baseline plan cost plus the best open singletons."""
    return node.baseline_cost + _top_utility_sum(node.remaining, node.budget - len(node.chosen))


def order_candidates(
    node: SearchNode,
    mode: str,
    index: PathIndex | None = None,
    seed: int | None = None,
) -> tuple[Candidate, ...]:
    """Order a node's open candidates for branching.

    utility: static, best singleton first. shortest_path: candidates that
    complete a cheap fake-using path first (needs the index). random: seeded
    shuffle, meant to be applied once at the root.
    """
    mode = mode.replace("-", "_")
    if mode == "utility":
        return tuple(sorted(node.remaining, key=lambda c: (-c.singleton_utility, c.assignment)))
    if mode == "random":
        items = list(node.remaining)
        random.Random(seed).shuffle(items)
        return tuple(items)
    if mode == "shortest_path":
        if index is None:
            raise ConfigurationError("shortest-path ordering requires a path index")
        return _rank_by_paths(index, node.remaining, frozenset(node.chosen), node.budget)
    raise ConfigurationError(f"unknown ordering {mode!r}; expected one of {ORDERINGS}")


def _rank_by_paths(
    index: PathIndex,
    remaining: tuple[Candidate, ...],
    chosen: frozenset[Assignment],
    budget: int,
) -> tuple[Candidate, ...]:
    """Rank open candidates by the cheapest path they help complete.

    A path counts if its not-yet-chosen assignments are all still available
    and fit the remaining budget. Candidates on no such path fall back to
    utility order behind the path-backed ones. Each pooled path is scored
    once, and its key goes to the open candidates it needs: the tree never
    offers a chosen candidate as open, so these are all of its open ones.
    """
    available = {c.assignment for c in remaining}
    slots = budget - len(chosen)
    best_key: dict[Assignment, tuple] = {}
    for pid, path in enumerate(index.paths):
        need = path.assignments - chosen
        if len(need) > slots or not need <= available:
            continue
        key = (len(need), path.cost, pid)
        for a in need:
            if a not in best_key or key < best_key[a]:
                best_key[a] = key
    on_path = [c for c in remaining if c.assignment in best_key]
    on_path.sort(key=lambda c: (best_key[c.assignment], c.assignment))
    off_path = [c for c in remaining if c.assignment not in best_key]
    off_path.sort(key=lambda c: (-c.singleton_utility, c.assignment))
    return tuple(on_path + off_path)



def expand(
    node: SearchNode,
    evaluate: Callable[[frozenset[Assignment]], float],
    heuristic_fn: Callable[[SearchNode], float],
    reorder: Callable[[tuple[Candidate, ...], tuple[Assignment, ...]], tuple[Candidate, ...]] | None = None,
) -> tuple[SearchNode | None, SearchNode | None]:
    """Generate the (drop-head, take-head) children, None where discarded.

    A child is discarded when it can no longer fill the budget. The take-head
    child's set is always evaluated first so its value registers with the
    caller even if the child itself is discarded; `reorder`, when given, is
    applied to the take-head child's open candidates only.

    The engines walk the same tree on candidate indices (`_SearchContext`);
    this is its reference form, which the tests compare them with.
    """
    if len(node.chosen) >= node.budget or not node.remaining:
        return None, None

    def child(chosen: tuple[Assignment, ...], remaining: tuple[Candidate, ...], utility: float) -> SearchNode:
        bare = SearchNode(chosen, remaining, utility, 0.0, node.budget, node.baseline_cost)
        return replace(bare, heuristic=heuristic_fn(bare))

    head = node.remaining[0]
    rest = node.remaining[1:]
    left = None
    if len(node.chosen) + len(rest) >= node.budget:
        left = child(node.chosen, rest, node.utility)
    chosen = tuple(sorted(node.chosen + (head.assignment,)))
    value = evaluate(frozenset(chosen))
    right = None
    if len(chosen) + len(rest) >= node.budget:
        right = child(chosen, reorder(rest, chosen) if reorder is not None else rest, value)
    return left, right

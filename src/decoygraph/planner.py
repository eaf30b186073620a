"""Minimum-cost attack planning on AND/OR attack graphs.

A plan is a closed node set containing the goal (every privilege supported,
every exploit requirement present) plus an executable exploit ordering. The
plan cost sums config-node costs, each config counted once even when several
exploits share it, which makes this delete-free optimal planning.

Two engines produce identical results where both apply. Graphs generated by
the single remote rule give every exploit exactly one privilege requirement
and one config requirement; on those the cheapest plan's minimal support is a
chain from the attacker entry to the goal and never reuses a config, so plain
Dijkstra over privilege nodes is exact. Arbitrary graphs (higher AND arity,
shared configs across required branches) go through admissible best-first
search over achieved-fact sets. The tests hold both to a brute-force subset
enumerator.

Both engines read a `PlanningState`: costs, ban flags and fake flags listed
by config number, the one input `plan_with_stats` takes. `optimal_plan`, the
id-keyed entry, numbers its costs and bans into a state once per call; the
attacker keeps one state per simulation instead. Dijkstra runs on
the graph's integer view (`AttackGraph.indexed`): privileges, exploits and
configs numbered in sorted id order, so heap ties between equal distances
still break by privilege id, and per privilege the arcs (exploit, config,
granted privilege) of the exploits requiring it, in exploit order. It
scans the state's arcs and skips those of banned configs, as if they were
left out. A search's state leaves
out the arcs of configs banned for the whole simulation, which changes
nothing, and those of privileges no plan of its simulation can reach, which
keeps the plan but settles fewer privileges (Lemma G of
`placement_search.PlacementProblem`). Best-first search turns the
state back into an id-keyed cost table and ban set at its entry. One
Dijkstra loop, `_dijkstra`, serves the plans and the search's bounds
(`placement_search._fake_bounds`): it returns the distances and each
privilege's predecessor arc, and a plan reads its chain off those.

The Dijkstra plan is read off the predecessor chain from the goal back to the
source, and the chain in order is the execution order: each chain exploit's
required privilege first appears in the grants of the exploit before it. It
appears there because that exploit is its predecessor. It appears no earlier:
an earlier chain exploit granting it was relaxed first, since chain
privileges settle in chain order, and offered it a distance no larger than
the predecessor's, since settled distances never decrease and costs are not
negative. A predecessor is only replaced by a strictly smaller distance, so
the recorded one would then be that earlier exploit. (The first chain
exploit requires the source, held from the start.) So earliest-enabled-first
execution, the order `_exec_waves` gives the other engines' plans, enables
exactly one chain exploit at a time, in chain order. The plan's nodes are the
chain's exploits, their configs, their required privileges and the goal; its
cost is the `math.fsum` of those configs, each counted once. The plan keeps
its cost and its chain of arcs; its execution order, node set and step
configs are assembled from the view on first read, so the attacker's rounds
in a search never build them. A plan assembled on read
equals, and hashes as, the eager plan of the same fields.

Plan cost is the correctly rounded sum (`math.fsum`) of its config costs, so
the same cost multiset yields the same float no matter which engine found it
or in which order its configs are listed.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .aggraph import AttackGraph, IndexedView
from .errors import Unreachable, ValidationError

_INF = float("inf")


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """A plan; plans are equal, and hash alike, when their four fields are equal."""

    node_set: frozenset[str]
    exec_order: tuple[str, ...]
    cost: float
    # per exploit of exec_order, the configs it requires, sorted
    step_configs: tuple[tuple[str, ...], ...]

    def _fields(self) -> tuple:
        return self.node_set, self.exec_order, self.cost, self.step_configs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttackPlan):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def numbered_steps(self, state: "PlanningState") -> Iterable[tuple[int, ...]]:
        """Per step, the numbers of the configs it requires, in `state`'s numbering."""
        number = state.number
        return (tuple(number[c] for c in configs) for configs in self.step_configs)

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "exec_order": list(self.exec_order),
            "node_set": sorted(self.node_set),
        }


class _ChainPlan(AttackPlan):
    """A Dijkstra plan: its cost and its chain of arcs, on an integer view.

    The id-keyed fields are assembled from the view, all three together, on
    the first read of any of them, so a search that reads only the cost and
    the steps' configs never builds them. The view is dropped then.
    """

    def __init__(self, view: IndexedView, chain: tuple[tuple[int, int, int], ...], cost: float):
        vars(self).update(cost=cost, _view=view, _chain=chain)

    def __getattr__(self, name: str):
        # called only for attributes not set yet
        if name not in ("node_set", "exec_order", "step_configs"):
            raise AttributeError(name)
        self._assemble()
        return vars(self)[name]

    def numbered_steps(self, state: "PlanningState") -> Iterable[tuple[int, ...]]:
        return ((c,) for _, c, _ in self._chain)

    def _assemble(self) -> None:
        view = vars(self).pop("_view")
        chain = self._chain
        exec_order = tuple(view.exploits[e] for e, _, _ in chain)
        configs = [view.configs[c] for _, c, _ in chain]
        # each step requires the privilege the step before it grants, the first the source
        privileges = [view.privileges[q] for _, _, q in chain]
        privileges += (view.privileges[view.source], view.privileges[view.goal])
        vars(self).update(
            node_set=frozenset(exec_order).union(configs, privileges),
            exec_order=exec_order,
            step_configs=tuple(zip(configs)),
        )


@dataclass(frozen=True)
class PlannerStats:
    expanded_states: int = 0
    heuristic_evals: int = 0
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "expanded_states": self.expanded_states,
            "heuristic_evals": self.heuristic_evals,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(eq=False)
class PlanningState:
    """A graph's planning inputs by config number, the form the engines read.

    `names[i]` is config i's id, in sorted id order on every graph (the
    numbering of the graph's `IndexedView` where it has one), so comparing
    two numbers compares their ids. `fake[i]` is its fake flag,
    `costs[i]` its cost and `banned[i]` true while it is banned. `arcs` are
    the arcs Dijkstra scans out of each privilege (None on other graphs),
    fixed while the state is used: the view's, or the view's without some
    whose configs stay banned throughout or that touch privileges no plan
    made from the state can reach. The attacker keeps one state per
    simulation and only zeroes costs and sets bans in it between rounds.
    """

    names: tuple[str, ...]
    fake: bytes
    costs: list[float]
    banned: bytearray
    arcs: Sequence[Sequence[tuple[int, int, int]]] | None

    @classmethod
    def of(
        cls,
        graph: AttackGraph,
        costs: Mapping[str, float] | None = None,
        banned_configs: Iterable[str] = (),
    ) -> "PlanningState":
        """The state for id-keyed `costs` (None: the face costs) and `banned_configs`."""
        view = graph.indexed
        if view is None:
            names = tuple(sorted(graph.config_nodes))
            face = [graph.config_cost[c] for c in names]
            fake = bytes(graph.fake_flag.get(c, False) for c in names)
            arcs = None
        else:
            names, face, fake, arcs = view.configs, view.cost, view.fake, view.arcs
        banned = frozenset(banned_configs)
        return cls(
            names,
            fake,
            list(face) if costs is None else [costs[c] for c in names],
            bytearray(map(banned.__contains__, names)) if banned else bytearray(len(names)),
            arcs,
        )

    @cached_property
    def number(self) -> dict[str, int]:
        """config id -> number"""
        return {c: i for i, c in enumerate(self.names)}


# ---------------------------------------------------------------------------
# Plan assembly for best-first search
# ---------------------------------------------------------------------------


def _exec_waves(graph: AttackGraph, support: Iterable[str]) -> tuple[str, ...]:
    # Earliest-enabled-first execution, ties inside a wave by exploit id.
    # Configs never gate enablement; the attacker pays them on execution.
    have = {graph.source}
    remaining = set(support)
    order: list[str] = []
    while remaining:
        wave = sorted(
            e for e in remaining if all(p in have for p in graph.requirements[e][0])
        )
        if not wave:
            raise ValidationError("plan support is not executable")
        for e in wave:
            order.append(e)
            have.update(graph.grants[e])
        remaining.difference_update(wave)
    return tuple(order)


def _earliest_supporters(graph: AttackGraph, order: Iterable[str]) -> dict[str, str]:
    """privilege -> the first exploit of `order` that grants it"""
    supporter: dict[str, str] = {}
    for e in order:
        for p in graph.grants[e]:
            supporter.setdefault(p, e)
    return supporter


def _assemble_plan(
    graph: AttackGraph,
    supporter: Mapping[str, str],
    costs: Mapping[str, float],
) -> AttackPlan:
    """Build a plan from a privilege -> chosen-supporting-exploit map."""
    support: set[str] = set()
    configs: set[str] = set()
    privs: set[str] = {graph.source, graph.goal}
    todo = [graph.goal]
    while todo:
        p = todo.pop()
        if p == graph.source:
            continue
        e = supporter[p]
        if e in support:
            continue
        support.add(e)
        req_privs, req_configs = graph.requirements[e]
        configs.update(req_configs)
        for q in req_privs:
            if q not in privs:
                privs.add(q)
                todo.append(q)
    exec_order = _exec_waves(graph, support)
    cost = math.fsum(costs[c] for c in configs)
    node_set = frozenset(privs) | frozenset(support) | frozenset(configs)
    return AttackPlan(
        node_set=node_set,
        exec_order=exec_order,
        cost=cost,
        step_configs=tuple(graph.requirements[e][1] for e in exec_order),
    )


def _empty_plan(graph: AttackGraph) -> AttackPlan:
    return AttackPlan(
        node_set=frozenset({graph.source}),
        exec_order=(),
        cost=0.0,
        step_configs=(),
    )


# ---------------------------------------------------------------------------
# Fast path: unit-rule graphs
# ---------------------------------------------------------------------------


def _dijkstra(
    arcs: Sequence[Sequence[tuple[int, int, int]]],
    costs: Sequence[float],
    banned: Sequence[int],
    source: int,
    goal: int | None = None,
) -> tuple[list[float], list[tuple[int, int, int] | None], list[int], int]:
    """Dijkstra over per-privilege (exploit, config, granted privilege) arcs, each weighing `costs[config]`.

    Arcs whose config is flagged in `banned` are skipped, as if left out. The
    search stops once `goal` settles (never when it is None). Returns each
    privilege's distance from `source`, the arc that reaches it on its best
    chain and the privilege that arc leaves (-1 where none), and the number
    of privileges settled.
    """
    n = len(arcs)
    dist = [_INF] * n
    dist[source] = 0.0
    pred: list[tuple[int, int, int] | None] = [None] * n
    via = [-1] * n
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    settled = 0
    while heap:
        d, p = pop(heap)
        # a distance is only ever lowered strictly, so the one entry at dist[p] settles p
        if d > dist[p]:
            continue
        settled += 1
        if p == goal:
            break
        for arc in arcs[p]:
            _, c, q = arc
            if banned[c]:
                continue
            nd = d + costs[c]
            if nd < dist[q]:
                dist[q] = nd
                pred[q] = arc
                via[q] = p
                push(heap, (nd, q))
    return dist, pred, via, settled


def _dijkstra_plan(graph: AttackGraph, state: PlanningState) -> tuple[AttackPlan, int]:
    view = graph.indexed
    source, goal = view.source, view.goal
    dist, pred, via, expanded = _dijkstra(state.arcs, state.costs, state.banned, source, goal)
    if dist[goal] == _INF:
        raise Unreachable(f"goal {graph.goal} is not derivable")
    chain = []
    p = goal
    while p != source:
        chain.append(pred[p])
        p = via[p]
    chain.reverse()
    # chain order is execution order; the argument is in the module docstring
    cost = math.fsum(state.costs[c] for c in {c for _, c, _ in chain})
    return _ChainPlan(view, tuple(chain), cost), expanded


# ---------------------------------------------------------------------------
# General path: best-first search over achieved-fact sets
# ---------------------------------------------------------------------------


def _hmax(
    graph: AttackGraph, state: frozenset[str], costs: Mapping[str, float], banned: frozenset[str]
) -> float:
    """Admissible max-cost relaxation with already-paid configs treated as free."""
    value: dict[str, float] = {}
    for c in graph.config_nodes:
        if c in banned:
            continue
        value[c] = 0.0 if c in state else costs[c]
    pending: dict[str, int] = {}
    heap: list[tuple[float, str]] = []
    for e, (req_privs, req_configs) in graph.requirements.items():
        if any(c in banned for c in req_configs):
            continue
        pending[e] = len(req_privs) + len(req_configs)
    for p in graph.privilege_nodes:
        if p == graph.source or p in state:
            value[p] = 0.0
            heapq.heappush(heap, (0.0, p))
    for c in sorted(graph.config_nodes - banned):
        heapq.heappush(heap, (value[c], c))
    requirers: dict[str, list[str]] = {}
    for e in pending:
        for node in itertools.chain(*graph.requirements[e]):
            requirers.setdefault(node, []).append(e)
    best: dict[str, float] = {}
    running: dict[str, float] = {e: 0.0 for e in pending}
    while heap:
        v, node = heapq.heappop(heap)
        if node in best and best[node] <= v:
            continue
        best[node] = v
        if node == graph.goal:
            return v
        for e in requirers.get(node, ()):
            if pending[e] <= 0:
                continue
            pending[e] -= 1
            running[e] = max(running[e], v)
            if pending[e] == 0:
                for q in graph.grants[e]:
                    if running[e] < best.get(q, _INF):
                        heapq.heappush(heap, (running[e], q))
    return best.get(graph.goal, _INF)


def _bestfirst_plan(graph: AttackGraph, state: PlanningState) -> tuple[AttackPlan, int, int]:
    costs = dict(zip(state.names, state.costs))
    banned = frozenset(itertools.compress(state.names, state.banned))
    start = frozenset({graph.source})
    if graph.goal in start:
        return _empty_plan(graph), 0, 0
    actions = []
    for e in sorted(graph.exploit_nodes):
        req_privs, req_configs = graph.requirements[e]
        if any(c in banned for c in req_configs):
            continue
        if not graph.grants[e]:
            continue  # grants nothing, can never belong to a minimal plan
        actions.append((e, frozenset(req_privs), frozenset(req_configs), frozenset(graph.grants[e])))

    g_best: dict[frozenset[str], float] = {start: 0.0}
    came_from: dict[frozenset[str], tuple[frozenset[str], str]] = {}
    counter = itertools.count()
    h0 = _hmax(graph, start, costs, banned)
    heuristic_evals = 1
    if h0 == _INF:
        raise Unreachable(f"goal {graph.goal} is not derivable")
    heap: list[tuple[float, int, float, frozenset[str]]] = [(h0, next(counter), 0.0, start)]
    expanded = 0
    goal_state: frozenset[str] | None = None
    while heap:
        _, _, g, state = heapq.heappop(heap)
        if g > g_best.get(state, _INF):
            continue  # a cheaper route to this state was pushed later
        if graph.goal in state:
            goal_state = state
            break
        expanded += 1
        for e, req_privs, req_configs, grants in actions:
            if not req_privs <= state:
                continue
            new_privs = grants - state
            if not new_privs:
                continue
            succ = state | grants | req_configs
            step = sum(costs[c] for c in sorted(req_configs - state))
            ng = g + step
            if ng < g_best.get(succ, _INF):
                g_best[succ] = ng
                came_from[succ] = (state, e)
                h = _hmax(graph, succ, costs, banned)
                heuristic_evals += 1
                if h == _INF:
                    continue
                heapq.heappush(heap, (ng + h, next(counter), ng, succ))
    if goal_state is None:
        raise Unreachable(f"goal {graph.goal} is not derivable")
    sequence: list[str] = []
    state = goal_state
    while state in came_from:
        state, e = came_from[state]
        sequence.append(e)
    sequence.reverse()
    # Earliest executed supporter per privilege, then minimal-support walk-back.
    plan = _assemble_plan(graph, _earliest_supporters(graph, sequence), costs)
    return plan, expanded, heuristic_evals


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def plan_with_stats(graph: AttackGraph, state: PlanningState | None = None) -> tuple[AttackPlan, PlannerStats]:
    """Optimal plan plus search-effort counters, planned on `state`.

    `state` holds the costs and ban flags by config number (`PlanningState`);
    None plans at face cost with nothing banned. A caller that plans many
    times on one graph keeps one state and changes its costs and flags
    between calls; `optimal_plan` takes id-keyed costs and bans instead.
    Raises Unreachable when no plan exists. The engines raise it themselves,
    with the same message: Dijkstra when it never settles the goal, best-first
    when the goal's max-cost relaxation from the start state is infinite or
    its frontier runs dry. Both happen exactly when the goal is not derivable
    from the unbanned configs, so no separate derivability check runs first.
    """
    if state is None:
        state = PlanningState.of(graph)
    started = time.perf_counter()
    if graph.unit_rule:
        plan, expanded = _dijkstra_plan(graph, state)
        heuristic_evals = 0
    else:
        plan, expanded, heuristic_evals = _bestfirst_plan(graph, state)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return plan, PlannerStats(expanded, heuristic_evals, elapsed_ms)


def optimal_plan(
    graph: AttackGraph,
    costs: Mapping[str, float] | None = None,
    banned_configs: Iterable[str] = (),
) -> AttackPlan:
    """The cheapest plan for the id-keyed `costs`, a full config -> cost
    table (None: `graph.config_cost`), with `banned_configs` out of play."""
    return plan_with_stats(graph, PlanningState.of(graph, costs, banned_configs))[0]


def optimal_cost(graph: AttackGraph) -> float:
    """Cost of the cheapest plan with every config taken at face value.

    Fake flags are ignored: this is the cost the attacker believes the
    cheapest attack has.
    """
    return optimal_plan(graph).cost

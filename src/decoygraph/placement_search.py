"""Search for the fake-vulnerability placement that hurts the attacker most.

The placement problem is cast as a binary decision tree over candidate
(host, vulnerability) pairs: each node either commits to the head candidate
or drops it. A node's value is the simulated attacker's total cost against
the chosen set, and two upper-bound heuristics estimate how much the open
candidates could still add. Engines: depth-first branch and bound, best-first
(A*-style) search, and brute-force subset enumeration as the ground truth on
small instances. Each engine compiles the network into a PlacementProblem,
or takes one via `problem=` so that searches on one network share it.
Branch and bound and best-first search branch only on the candidates that
pass both trippability filters (`PlacementProblem.trippable`): a fake's
cheapest chain must fit the budget (Lemma A), and the fake must cost no more
than the undefended attack and the real route to its host (Lemma D). The
class docstring holds the proofs that this loses nothing; subset enumeration
scores every candidate.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .aggraph import IndexedView, apply_assignments, config_id
from .attacker import AttackIteration, EvaluationReport, simulate_attack
from .errors import ConfigurationError, Unreachable
from .netmodel import Assignment, NetworkModel, check_placement, compatible_pairs, normalize_cost
from .planner import PlanningState, optimal_plan

ORDERINGS = ("utility", "shortest_path", "random")
HEURISTICS = ("h1", "h2")

# Bound on planner calls during path-pool construction, per unit of pool size.
_POOL_CALL_FACTOR = 40

# Relative and absolute slack on the cost tests: the trippability limit k*b,
# Lemma D's real-route limit and the reach of Lemma C. Chain costs are float
# sums taken in another order than the attacker's, so a chain of exactly k*b
# may read a few ulps high; keeping an extra candidate or simulating an extra
# set is always sound, dropping a trippable candidate or inheriting a wrong
# value is not.
_TRIP_SLACK = 1e-9


@dataclass(frozen=True)
class Candidate:
    """An open candidate of a search tree and its value planted alone."""

    assignment: Assignment
    singleton_utility: float


@dataclass(frozen=True)
class SearchNode:
    """One decision-tree node: committed assignments plus open candidates."""

    chosen: tuple[Assignment, ...]
    remaining: tuple[Candidate, ...]
    utility: float
    heuristic: float
    budget: int
    baseline_cost: float

    @property
    def f(self) -> float:
        return self.utility + self.heuristic


@dataclass(frozen=True)
class SearchResult:
    best_assignments: tuple[Assignment, ...]
    best_utility: float
    baseline_cost: float
    expanded_nodes: int
    generated_nodes: int
    elapsed_ms: float
    budget_used: int

    def to_dict(self) -> dict:
        return {
            "best_assignments": [a.to_dict() for a in self.best_assignments],
            "best_utility": self.best_utility,
            "baseline_cost": self.baseline_cost,
            "expanded_nodes": self.expanded_nodes,
            "generated_nodes": self.generated_nodes,
            "elapsed_ms": self.elapsed_ms,
            "budget_used": self.budget_used,
        }


@dataclass(frozen=True)
class PathRecord:
    """One cheap attack path through planted fakes: its cost and the fakes it uses."""

    path_id: int
    cost: float
    assignments: frozenset[Assignment]


@dataclass(frozen=True)
class PathIndex:
    """Pool of cheap fake-using paths with a lookup by assignment."""

    paths: tuple[PathRecord, ...]
    by_assignment: dict[Assignment, tuple[int, ...]]


def enumerate_candidates(network: NetworkModel) -> list[Assignment]:
    """List plantable (host, vulnerability) pairs, one per equivalence class.

    Two candidates on the same host with the same config cost produce
    interchangeable graph structure (the graph rules give every exploit one
    shape), so only the one with the smallest vulnerability id is kept.
    Order is deterministic: by host, then vuln id.
    """
    return _fold_pairs(network, compatible_pairs(network))


def _fold_pairs(network: NetworkModel, pairs: Iterable[Assignment]) -> list[Assignment]:
    """The first of `pairs` per (host, config cost) class, in their order."""
    first: dict[tuple[str, float], Assignment] = {}
    for a in pairs:
        first.setdefault((a.host_id, normalize_cost(network.catalog[a.vuln_id])), a)
    return list(first.values())


def _fake_config(assignment: Assignment) -> str:
    return config_id(assignment.host_id, assignment.vuln_id)


def _top_utility_sum(candidates: tuple[Candidate, ...], slots: int) -> float:
    if slots <= 0:
        return 0.0
    # sorted is heapq.nlargest's documented equivalent, and several times faster on these short lists
    return sum(sorted([c.singleton_utility for c in candidates], reverse=True)[:slots])


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
        rng = random.Random(seed)
        items = list(node.remaining)
        rng.shuffle(items)
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
    utility order behind the path-backed ones.
    """
    available = {c.assignment for c in remaining}
    slots = budget - len(chosen)
    best_key: dict[Assignment, tuple] = {}
    for cand in remaining:
        a = cand.assignment
        for pid in index.by_assignment.get(a, ()):
            path = index.paths[pid]
            need = path.assignments - chosen
            if len(need) > slots or not need <= available:
                continue
            key = (len(need), path.cost, path.path_id)
            if a not in best_key or key < best_key[a]:
                best_key[a] = key
    on_path = [c for c in remaining if c.assignment in best_key]
    on_path.sort(key=lambda c: (best_key[c.assignment], c.assignment))
    off_path = [c for c in remaining if c.assignment not in best_key]
    off_path.sort(key=lambda c: (-c.singleton_utility, c.assignment))
    return tuple(on_path + off_path)


def build_path_index(problem: PlacementProblem, pool_size: int = 100) -> PathIndex:
    """Enumerate cheap fake-using plans on the problem's graph with every candidate planted.

    Plans are enumerated cheapest first by banning one config per branch,
    starting from the fakes that are not candidates banned; only plans
    strictly cheaper than the deception-free optimum `baseline_cost` are
    kept, since costlier ones cannot lure a cost-minimizing attacker off the
    real path. Dedup is by config set.
    """
    full = problem.graph
    records: list[PathRecord] = []
    seen_cfg: set[frozenset[str]] = set()
    # (cost, call number, ban set, plan): the call number breaks cost ties in push order
    heap: list[tuple] = []
    calls = 0
    call_cap = max(_POOL_CALL_FACTOR * pool_size, 200)

    def push(banned: frozenset[str]) -> None:
        nonlocal calls
        if calls >= call_cap:
            return
        calls += 1
        try:
            plan = optimal_plan(full, banned_configs=banned)
        except Unreachable:
            return
        if plan.cost < problem.baseline_cost:
            heapq.heappush(heap, (plan.cost, calls, banned, plan))

    push(problem.fake_configs - {_fake_config(a) for a in problem.candidates})
    while heap and len(records) < pool_size:
        cost, _, banned, plan = heapq.heappop(heap)
        cfgs = frozenset(plan.node_set & full.config_nodes)
        if cfgs in seen_cfg:
            continue
        seen_cfg.add(cfgs)
        fakes = frozenset(full.provenance[c] for c in cfgs if full.fake_flag.get(c, False))
        if fakes:
            records.append(PathRecord(path_id=len(records), cost=cost, assignments=fakes))
        for c in sorted(cfgs):
            push(banned | {c})

    by_assignment: dict[Assignment, list[int]] = {}
    for rec in records:
        for a in sorted(rec.assignments):
            by_assignment.setdefault(a, []).append(rec.path_id)
    return PathIndex(
        paths=tuple(records),
        by_assignment={a: tuple(ids) for a, ids in sorted(by_assignment.items())},
    )


def _make_node(
    chosen: tuple[Assignment, ...],
    remaining: tuple[Candidate, ...],
    utility: float,
    budget: int,
    baseline_cost: float,
    heuristic_fn: Callable[[SearchNode], float],
) -> SearchNode:
    node = SearchNode(chosen, remaining, utility, 0.0, budget, baseline_cost)
    # The heuristic reads the node's other fields only, so it is filled in
    # place instead of building the node a second time.
    object.__setattr__(node, "heuristic", heuristic_fn(node))
    return node


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
    """
    if len(node.chosen) >= node.budget or not node.remaining:
        return None, None
    head = node.remaining[0]
    rest = node.remaining[1:]
    left = None
    if len(node.chosen) + len(rest) >= node.budget:
        left = _make_node(node.chosen, rest, node.utility, node.budget, node.baseline_cost, heuristic_fn)
    chosen = tuple(sorted(node.chosen + (head.assignment,)))
    value = evaluate(frozenset(chosen))
    right = None
    if len(chosen) + len(rest) >= node.budget:
        right_rest = reorder(rest, chosen) if reorder is not None else rest
        right = _make_node(chosen, right_rest, value, node.budget, node.baseline_cost, heuristic_fn)
    return left, right


class PlacementProblem:
    """The placement problem of one network, compiled once and shared.

    Holds one attack graph of the network with every compatible (host, vuln)
    pair planted, its fake configs, the undefended attack cost `baseline_cost`
    (b), and the reachable candidates as plain assignments. A set of pairs is
    evaluated on that graph by banning the fake configs of the pairs outside
    it, so every search simulation bans the pairs `enumerate_candidates`
    folds away. Candidates the attacker can never reach leave no fake config
    in that graph; they cannot change any subset's value, so `candidates`
    leaves them out. Subset values, the candidates a budget can trip (as
    `Candidate`s with their singleton utilities) and path indexes (by pool
    size) are memoized, so every search on the network can share one problem;
    a search refuses a problem compiled from another network. `evaluate`
    reports on any valid placement, candidate or not, on the same graph.

    `trippable(k)` drops candidates that no attack on at most k planted fakes
    can trip. Let L(a) be the cheapest face-value source-to-goal chain through
    fake a on the planted graph, with nothing banned (`chain_costs`). Let c(a)
    be a's face cost, and hr(a) the face-cost distance from the source to the
    privilege a's exploit grants, dst(a), over real configs only
    (`real_routes`). A folded pair has the host, cost and exploit shape of
    the candidate kept for its (host, cost) class, so its edges run parallel
    to that candidate's, and L and hr are what they are with the candidates
    alone planted. A lower L would only keep more candidates, which is sound.

    Lemma A. If a appears in some round's plan against a set S with |S| <= k,
    then L(a) <= k*b. The round's plan costs at most b: only fakes are ever
    banned, so the real optimum stays available, and zeroing paid configs only
    lowers it. Its face cost is at least L(a). The two differ by the configs
    zeroed so far, whose face costs were each paid once by an earlier round.
    Each earlier round tripped a distinct fake of S other than a, so at most
    k-1 of them ran, and each paid at most its own plan's cost, at most b.

    Lemma B. A planted fake that no round's plan uses leaves the attack
    unchanged. Banning a config off the chosen chain changes no chosen
    predecessor: it only raises the distances of privileges reached through
    that config. `TestTrippableFilter` checks both lemmas on every subset of
    at most three candidates of small networks, on dyadic and CVSS v3 costs.

    Lemma D. If a appears in some round's plan, then c(a) <= min(b, hr(a)).
    Fakes are never zeroed, so any plan through a costs at least c(a), and a
    round's plan costs at most b (as in Lemma A). The planner's Dijkstra
    chain reaches dst(a) along a shortest working-cost path. The real face
    path to dst(a) is never banned, and working costs never exceed face
    costs, so that prefix costs at most hr(a). It ends in a's exploit, so it
    costs at least c(a). The argument relies on each exploit granting one
    privilege, which holds on generated graphs; where an exploit grants
    several, hr(a) is the largest of their distances. The test carries
    `_TRIP_SLACK`, and ties are kept: Dijkstra changes a predecessor only on
    a strictly smaller distance, so on a tie it may keep a's exploit.
    `TestRealRouteFilter` checks it the way `TestTrippableFilter` checks A.

    Together: a set holding a candidate that fails Lemma A or D has the value
    of the smaller set without it (Lemma B), so under the smaller-set
    tie-break it is never the answer, and dfbnb and astar search the
    candidates that pass both only.
    `exhaustive_best`, the oracle, enumerates all of `candidates`.

    The memo maps each valued set S, keyed by a bitmask over the candidates
    in sorted order, to (value, reach). The reach R(S) is
    the largest plan_i.cost + Z_i over the rounds i of S's attack, where Z_i
    is the face cost of the configs zeroed before round i, each counted once.

    Lemma C. If S is memoized and S' = S + {a} has L(a) > R(S), the attack on
    S' is the attack on S, so S' has S's value and reach. By induction over
    the rounds, which start from the same state: suppose a is on round i's
    plan P' against S'. On a generated graph a simple chain pays each config
    once, so P' has face cost at least L(a) and working cost at least
    L(a) - Z_i. S's round-i plan is still open against S', so P' costs at
    most cost_i. Then L(a) <= cost_i + Z_i <= R(S), a contradiction. So a is
    on no plan, and Lemma B gives the same plan in every round. `value` tries
    each member's memoized parent and inherits its pair instead of
    simulating. The test is strict and carries `_TRIP_SLACK`: on a tie,
    Dijkstra may pick the chain through a. Singleton utilities inherit from
    the empty set the same way.

    Lemma F (tail reuse). If round 1 of S's attack trips fake f1 at its
    first step, rounds 2..n are the attack on S - {f1}, so that set has
    value paid_2 + ... + paid_n and the reach of rounds 2..n. The failing
    step is the first, so nothing ran before it and no config is zeroed;
    the only change to the state is the ban on f1. The state entering round
    2 is then the initial state of the attack on S - {f1}, except that f1's
    arcs are present and banned. Dijkstra skips a banned arc without
    touching distances, predecessors or settle order, and the attack is
    deterministic given its state, so rounds 2..n are that attack. The
    total is summed from 0.0 in round order, as `simulate_attack` sums it,
    so non-dyadic costs agree to the bit; the reach counts zeroed configs
    from round 2 on, and none were zeroed before it. By induction, while
    rounds 1..i all trip at their first step, S - {f1..fi} has the value
    and reach of rounds i+1..n. `value` memoizes these sets after each
    simulation, and never overwrites an entry. `TestTailReuse` compares
    each such tail with a fresh simulation of the smaller set.

    `exhaustive_best` simulates every set it does not find memoized and
    memoizes no tails, so on a fresh problem it stays an independent oracle.
    """

    def __init__(self, network: NetworkModel):
        self.network = network
        pairs = compatible_pairs(network)
        self.graph = apply_assignments(network, pairs)
        self.fake_configs = self.graph.fake_configs()
        self.baseline_cost = optimal_plan(self.graph, banned_configs=self.fake_configs).cost
        self.candidates = tuple(a for a in _fold_pairs(network, pairs) if _fake_config(a) in self.fake_configs)
        # A set is simulated on the graph's numbered view: the arcs of real
        # configs and of the set's fakes, the other fakes banned from the start.
        view = self.graph.indexed
        self._number = {c: i for i, c in enumerate(view.configs)}
        real_arcs: list[list[tuple[int, int, int]]] = []
        # fake config -> privilege -> the config's arcs out of it
        self._fake_arcs: dict[int, dict[int, tuple[tuple[int, int, int], ...]]] = {}
        for p, arcs in enumerate(view.arcs):
            real_arcs.append([])
            for arc in arcs:
                if view.fake[arc[1]]:
                    by_privilege = self._fake_arcs.setdefault(arc[1], {})
                    by_privilege[p] = by_privilege.get(p, ()) + (arc,)
                else:
                    real_arcs[p].append(arc)
        self._real_arcs = tuple(map(tuple, real_arcs))
        self._all_fakes_banned = bytes(view.fake)
        self.chain_costs, self.real_routes = _fake_bounds(view, self._real_arcs, self._fake_arcs)
        # candidate -> (its bit in a set's mask, its config number, L); the
        # candidates come in sorted order, and so do their bits
        self._members = {}
        for i, a in enumerate(self.candidates):
            config = _fake_config(a)
            self._members[a] = (1 << i, self._number[config], self.chain_costs[config])
        self._memo: dict[int, tuple[float, float]] = {}
        self._trippable: dict[int, tuple[Candidate, ...]] = {}
        self._indexes: dict[int, PathIndex] = {}

    def value(self, assignments: frozenset[Assignment]) -> float:
        """The attacker's total cost against exactly `assignments`, a set of `candidates`, planted.

        Inherited from a memoized parent where Lemma C allows, else simulated;
        a simulated set's tails are memoized too (Lemma F).
        """
        return self._value(assignments, inherit=True)

    def _simulated_value(self, assignments: frozenset[Assignment]) -> float:
        """`value` without Lemmas C and F: a set not memoized yet is simulated, and only it is memoized."""
        return self._value(assignments, inherit=False)

    def _value(self, assignments: frozenset[Assignment], inherit: bool) -> float:
        members = [self._members[a] for a in assignments]
        mask = sum(bit for bit, _, _ in members)
        memo = self._memo
        entry = memo.get(mask)
        if entry is None and inherit:
            for bit, _, chain in members:
                parent = memo.get(mask ^ bit)
                if parent is not None and not _within(chain, parent[1]):
                    entry = memo[mask] = parent
                    break
        if entry is None:
            trace = simulate_attack(self.graph, banned_configs=self._state(c for _, c, _ in members))
            rounds = trace.iterations
            entry = memo[mask] = (trace.total_cost, _reach(rounds, self.graph.config_cost))
            if inherit:
                self._memoize_tails(mask, rounds)
        return entry[0]

    def _memoize_tails(self, mask: int, rounds: tuple[AttackIteration, ...]) -> None:
        """Lemma F: while round i tripped its fake at the first step, the set
        without the fakes of rounds 1..i gets the value and reach of rounds i+1..n."""
        memo = self._memo
        for i, it in enumerate(rounds[:-1]):
            if it.zeroed_configs:
                return
            mask ^= self._members[it.discovered_fake][0]
            if mask not in memo:
                tail = rounds[i + 1 :]
                # summed as simulate_attack sums it; sum() compensates from Python 3.12 on
                total = 0.0
                for later in tail:
                    total += later.paid_prefix_cost
                memo[mask] = (total, _reach(tail, self.graph.config_cost))

    def _state(self, fakes: Iterable[int]) -> PlanningState:
        """A fresh planning state with the fake configs `fakes` open and every other fake banned.

        Its arcs are the real ones plus those of `fakes`, merged in exploit order.
        """
        view = self.graph.indexed
        arcs = list(self._real_arcs)
        banned = bytearray(self._all_fakes_banned)
        for c in fakes:
            banned[c] = 0
            for p, extra in self._fake_arcs[c].items():
                arcs[p] = sorted((*arcs[p], *extra))
        return PlanningState(view.configs, view.fake, list(view.cost), banned, arcs)

    def evaluate(self, assignments: Iterable[Assignment], seed: int = 0) -> EvaluationReport:
        """`evaluate_placement`'s report on the placement, by ban set on the problem's graph.

        The assignments are checked as `apply_assignments` checks them, and
        the baseline is `baseline_cost`.
        """
        placement = check_placement(self.network, assignments)
        # a pair on a host the attacker never reaches has no config to open
        opened = [self._number[c] for c in map(_fake_config, placement) if c in self._number]
        trace = simulate_attack(self.graph, banned_configs=self._state(opened))
        return EvaluationReport.from_trace(trace, len(placement), self.baseline_cost, seed)

    def trippable(self, budget: int) -> tuple[Candidate, ...]:
        """The candidates some placement of at most `budget` fakes can trip.

        Those with L(a) <= budget * baseline_cost (Lemma A) and
        c(a) <= min(baseline_cost, hr(a)) (Lemma D), in `candidates` order,
        each with its singleton utility; memoized per budget. The empty set is
        valued first, so singletons can inherit from it.
        """
        kept = self._trippable.get(budget)
        if kept is None:
            b = self.baseline_cost
            self.value(frozenset())
            kept = []
            for a in self.candidates:
                config = _fake_config(a)
                if _within(self.chain_costs[config], budget * b) and _within(
                    self.graph.config_cost[config], min(b, self.real_routes[config])
                ):
                    kept.append(Candidate(a, self.value(frozenset({a}))))
            kept = self._trippable[budget] = tuple(kept)
        return kept

    def path_index(self, pool_size: int) -> PathIndex:
        """The pool of up to `pool_size` cheap fake-using paths, built once per size."""
        index = self._indexes.get(pool_size)
        if index is None:
            index = self._indexes[pool_size] = build_path_index(self, pool_size=pool_size)
        return index


def _within(cost: float, limit: float) -> bool:
    """cost <= limit, up to `_TRIP_SLACK`."""
    return cost <= limit * (1.0 + _TRIP_SLACK) + _TRIP_SLACK


def _reach(rounds: Iterable[AttackIteration], face_costs: dict[str, float]) -> float:
    """R of Lemma C over an attack's rounds: the largest plan cost plus face
    cost zeroed before its round, counting from the first round given."""
    reach = 0.0
    zeroed: set[str] = set()
    zeroed_cost = 0.0
    for it in rounds:
        reach = max(reach, it.plan.cost + zeroed_cost)
        if not it.zeroed_configs <= zeroed:
            zeroed |= it.zeroed_configs
            zeroed_cost = math.fsum(face_costs[c] for c in zeroed)
    return reach


def _fake_bounds(
    view: IndexedView,
    real_arcs: Sequence[Sequence[tuple[int, int, int]]],
    fake_arcs: dict[int, dict[int, tuple[tuple[int, int, int], ...]]],
) -> tuple[dict[str, float], dict[str, float]]:
    """Per fake config: its chain cost L and the real route to the host it grants.

    `real_arcs` and `fake_arcs` split the view's arcs: per privilege, the
    arcs of real configs, and per fake config, its arcs by the privilege
    they leave. L is the cheapest face-value source-to-goal chain through the
    config, from one Dijkstra forward from the source and one backward from
    the goal over all the view's arcs; a fake whose chain cannot reach the
    goal gets inf. The real route is the largest, over the privileges the
    config's exploits grant, of their face-cost distance from the source over
    the real arcs (hr of Lemma D); inf where no real route exists.
    """
    costs = view.cost
    backward: list[list[tuple[int, int, int]]] = [[] for _ in view.privileges]
    for p, arcs in enumerate(view.arcs):
        for e, c, q in arcs:
            backward[q].append((e, c, p))
    head = _distances(view.arcs, costs, view.source)
    real = _distances(real_arcs, costs, view.source)
    tail = _distances(backward, costs, view.goal)
    chains: dict[str, float] = {}
    routes: dict[str, float] = {}
    for c, by_privilege in fake_arcs.items():
        config = view.configs[c]
        ends = [(p, q) for p, arcs in by_privilege.items() for _, _, q in arcs]
        chains[config] = min(head[p] + costs[c] + tail[q] for p, q in ends)
        routes[config] = max(real[q] for _, q in ends)
    return chains, routes


def _distances(arcs: Sequence[Sequence[tuple[int, int, int]]], costs: Sequence[float], start: int) -> list[float]:
    """Single-source shortest distances over per-privilege (exploit, config, head) arcs, each weighing `costs[config]`."""
    dist = [math.inf] * len(arcs)
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, p = heapq.heappop(heap)
        if d > dist[p]:
            continue
        for _, c, q in arcs[p]:
            nd = d + costs[c]
            if nd < dist[q]:
                dist[q] = nd
                heapq.heappush(heap, (nd, q))
    return dist


class _SearchContext:
    """Per-search state on a shared PlacementProblem: settings and incumbent."""

    def __init__(
        self,
        network: NetworkModel,
        budget: int,
        ordering: str,
        heuristic: str,
        seed: int,
        pool_size: int,
        problem: PlacementProblem | None,
    ):
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        ordering = ordering.replace("-", "_")
        if ordering not in ORDERINGS:
            raise ConfigurationError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
        if heuristic not in HEURISTICS:
            raise ConfigurationError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
        if problem is None:
            problem = PlacementProblem(network)
        elif problem.network is not network:
            raise ConfigurationError("the placement problem was compiled from another network")
        self.problem = problem
        self.ordering = ordering
        self.heuristic_fn = h1 if heuristic == "h1" else h2
        self.seed = seed
        self.pool_size = pool_size
        # a budget beyond the candidate pool means "plant everything"
        self.budget = min(budget, len(problem.candidates))
        self.best_key: tuple | None = None
        self.best_value = -math.inf
        self.best_set: tuple[Assignment, ...] = ()
        self.index = self.reorder_fn = None
        self.lookup = problem.value

    def evaluate(self, assignments: frozenset[Assignment]) -> float:
        value = self.lookup(assignments)
        if value < self.best_value:
            return value  # its key (-value, ...) sorts after the incumbent's
        key = (-value, len(assignments), tuple(sorted(assignments)))
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_value = value
            self.best_set = tuple(sorted(assignments))
        return value

    def root(self) -> SearchNode:
        """The tree's root over the candidates the budget can trip; it narrows the budget to them."""
        trippable = self.problem.trippable(self.budget)
        self.budget = budget = min(self.budget, len(trippable))
        if self.ordering == "shortest_path":
            # Closes over locals, not self: a closure reaching self would keep
            # every context (and its problem) alive until a cyclic collection.
            index = self.index = self.problem.path_index(self.pool_size)
            self.reorder_fn = lambda remaining, chosen: _rank_by_paths(
                index, remaining, frozenset(chosen), budget
            )
        root_value = self.evaluate(frozenset())
        baseline_cost = self.problem.baseline_cost
        remaining = tuple(sorted(trippable, key=lambda c: c.assignment))
        prov = SearchNode((), remaining, root_value, 0.0, self.budget, baseline_cost)
        ordered = order_candidates(prov, self.ordering, index=self.index, seed=self.seed)
        return _make_node((), ordered, root_value, self.budget, baseline_cost, self.heuristic_fn)

    def result(self, expanded: int, generated: int, t0: float) -> SearchResult:
        return SearchResult(
            best_assignments=self.best_set,
            best_utility=self.best_value,
            baseline_cost=self.problem.baseline_cost,
            expanded_nodes=expanded,
            generated_nodes=generated,
            elapsed_ms=(time.perf_counter() - t0) * 1000.0,
            budget_used=len(self.best_set),
        )


def dfbnb(
    network: NetworkModel,
    budget: int = 1,
    ordering: str = "utility",
    heuristic: str = "h2",
    seed: int = 0,
    pool_size: int = 100,
    problem: PlacementProblem | None = None,
) -> SearchResult:
    """Depth-first branch and bound over the placement tree.

    The incumbent starts at the deception-free attack cost and a subtree is
    cut when its bound cannot beat it. Take-head branches are explored first.
    With the sound heuristic this returns an optimal placement; with h1 it
    can miss the optimum.
    """
    t0 = time.perf_counter()
    ctx = _SearchContext(network, budget, ordering, heuristic, seed, pool_size, problem)
    stack = [ctx.root()]
    generated = 1
    expanded = 0
    while stack:
        node = stack.pop()
        if node.f <= ctx.best_value:
            continue
        if len(node.chosen) >= ctx.budget or not node.remaining:
            continue
        expanded += 1
        left, right = expand(node, ctx.evaluate, ctx.heuristic_fn, ctx.reorder_fn)
        if left is not None:
            generated += 1
            stack.append(left)
        if right is not None:
            generated += 1
            stack.append(right)
    return ctx.result(expanded, generated, t0)


def astar(
    network: NetworkModel,
    budget: int = 1,
    ordering: str = "utility",
    heuristic: str = "h2",
    seed: int = 0,
    pool_size: int = 100,
    problem: PlacementProblem | None = None,
) -> SearchResult:
    """Best-first search over the placement tree, highest bound popped first.

    Stops as soon as the best open bound cannot beat the incumbent. Under the
    sound heuristic this expands no more nodes than branch and bound on the
    same tree, at the price of keeping the frontier in memory.
    """
    t0 = time.perf_counter()
    ctx = _SearchContext(network, budget, ordering, heuristic, seed, pool_size, problem)
    root = ctx.root()
    heap: list[tuple[float, int, SearchNode]] = [(-root.f, 0, root)]
    seq = 1
    generated = 1
    expanded = 0
    while heap:
        negf, _, node = heapq.heappop(heap)
        if -negf <= ctx.best_value:
            break
        if len(node.chosen) >= ctx.budget or not node.remaining:
            # solution leaf on top of the frontier: no open subtree can beat
            # the incumbent when the heuristic is sound, so the search ends
            # (with h1 this can return a sub-optimal set, as documented)
            break
        expanded += 1
        left, right = expand(node, ctx.evaluate, ctx.heuristic_fn, ctx.reorder_fn)
        for child in (left, right):
            if child is None:
                continue
            generated += 1
            heapq.heappush(heap, (-child.f, seq, child))
            seq += 1
    return ctx.result(expanded, generated, t0)


def exhaustive_best(
    network: NetworkModel,
    budget: int = 1,
    max_subsets: int = 10_000,
    problem: PlacementProblem | None = None,
) -> SearchResult:
    """Evaluate every candidate subset up to the budget; the ground truth.

    Refuses instances whose subset count exceeds `max_subsets`. Ties on
    utility go to the smaller, then lexicographically smaller, set; the empty
    set is always evaluated, so the result never loses to doing nothing.
    """
    t0 = time.perf_counter()
    ctx = _SearchContext(network, budget, "utility", "h2", 0, 0, problem)
    # the oracle simulates every set it does not find memoized (no Lemma C)
    ctx.lookup = ctx.problem._simulated_value
    assignments = sorted(ctx.problem.candidates)
    total = sum(math.comb(len(assignments), size) for size in range(ctx.budget + 1))
    if total > max_subsets:
        raise ConfigurationError(
            f"{total} subsets exceed the cap of {max_subsets}; shrink the instance or raise max_subsets"
        )
    count = 0
    for size in range(ctx.budget + 1):
        for combo in itertools.combinations(assignments, size):
            ctx.evaluate(frozenset(combo))
            count += 1
    return ctx.result(count, count, t0)

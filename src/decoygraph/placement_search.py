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

The engines walk the tree on integers. Candidate i is the problem's
`candidates[i]`, and a set is the bitmask of its candidates' bits 1 << i, the
key of the problem's value memo. A node is a plain tuple: its f, the chosen
mask and count, the open candidate indices in branching order, and its
utility. The root is ordered on indices too, by the engines' own shortest-path
ranker `_path_ranker` under that ordering. Every value request passes a mask
through `_SearchContext.evaluate` to `PlacementProblem._value`. The tests
build the same tree from assignments as its reference form, walk it beside
the engines' tree, and check on it that h2 is sound.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .aggraph import IndexedView
from .attacker import AttackIteration, _compiled, attack_total, simulate_attack
from .errors import ConfigurationError, Unreachable
from .netmodel import Assignment, NetworkModel, compatible_pairs, normalize_cost
from .planner import PlanningState, _dijkstra, plan_with_stats

ORDERINGS = ("utility", "shortest_path", "random")
HEURISTICS = ("h1", "h2")

# Bound on planner calls during path-pool construction, per unit of pool size.
_POOL_CALL_FACTOR = 40

# Relative and absolute slack on the cost tests: the trippability limit k*b,
# Lemma D's real-route limit, the reach of Lemma C and Lemma G's corridor
# limit (k+1)*b. Chain costs are float sums taken in another order than the
# attacker's, so a chain of exactly k*b may read a few ulps high; keeping an
# extra candidate or privilege or simulating an extra set is always sound,
# dropping a trippable candidate or a privilege a plan uses, or inheriting a
# wrong value, is not.
_TRIP_SLACK = 1e-9

# the arcs (exploit, config, granted privilege) out of one privilege
_Arcs = tuple[tuple[int, int, int], ...]

# a node of the engines' tree: (f, chosen mask, chosen count, open candidate indices, utility)
_Node = tuple[float, int, int, tuple[int, ...], float]


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

    cost: float
    assignments: frozenset[Assignment]


@dataclass(frozen=True)
class PathIndex:
    """Pool of cheap fake-using paths, cheapest first; the rankers break cost ties by position.

    `planner_calls` counts the planner calls its build made, and `capped`
    says whether the build's call cap refused a call, so that the pool may
    lack paths an uncapped build would hold.
    """

    paths: tuple[PathRecord, ...]
    planner_calls: int
    capped: bool


def enumerate_candidates(network: NetworkModel) -> list[Assignment]:
    """List plantable (host, vulnerability) pairs, one per equivalence class.

    Two candidates on the same host with the same config cost produce
    interchangeable graph structure (the graph rules give every exploit one
    shape), so only the one with the smallest vulnerability id is kept.
    Order is deterministic: by host, then vuln id.
    """
    return _fold(network, compatible_pairs(network))


def _fold(network: NetworkModel, pairs: Iterable[Assignment]) -> list[Assignment]:
    """The first of `pairs` in each (host, config cost) class, in their order."""
    first: dict[tuple[str, float], Assignment] = {}
    for a in pairs:
        first.setdefault((a.host_id, normalize_cost(network.catalog[a.vuln_id])), a)
    return list(first.values())


def build_path_index(problem: PlacementProblem, pool_size: int = 100) -> PathIndex:
    """Enumerate cheap fake-using plans on the problem's graph with every candidate planted.

    Plans are enumerated cheapest first by banning one config per branch,
    starting with the folded pairs banned; only plans strictly cheaper than
    the deception-free optimum `baseline_cost` (b) are kept, since costlier
    ones cannot lure a cost-minimizing attacker off the real path. Dedup is
    by config-number set. A plan's configs are pushed as bans in config id
    order (configs are numbered by first use, not by id), so call numbers,
    which break cost ties in the heap, follow ids. The build stops at the
    record that fills the pool, before planning its plan's branches. At most
    `_POOL_CALL_FACTOR` * `pool_size` planner calls (at least 200) are made;
    `capped` says whether that cap refused one.

    Every branch plans on one state: the face costs, never changed, bans by
    config number, and the arcs of the empty set's corridor (Lemma G of
    `PlacementProblem`, limit (0+1)*b with `_TRIP_SLACK`).

    Lemma H. Each call keeps the plan that a call over all the arcs with
    the same bans keeps, and keeps none where that call keeps none. Let Q
    be the full run's chain. If Q costs less than b at face value, every
    privilege p on Q has head(p) + tail(p) <= cost(Q) < b, since Q pays each
    config once (as in Lemma G), so Q lies in the corridor; its test carries
    `_TRIP_SLACK`, far above the rounding between a chain's running sum and
    its `fsum`. Lemma G's argument within one round (distances,
    predecessors, pop order), which holds under any bans, then gives the
    corridor run the same chain Q at the same cost. If Q costs at least b,
    or the full run raises `Unreachable`, a chain the corridor run finds is
    a chain of the full graph under the same bans, so it costs at least b;
    else the corridor run raises `Unreachable`. Both are discarded, and
    `planner_calls` counts either. The corridor leaves out the folded pairs'
    arcs, which every branch bans anyway. So the heap receives the same
    plans under the same call numbers, and the index is the full-arc one;
    only the states expanded fall.
    """
    full = problem.graph
    config_ids = full.indexed.configs
    # every candidate open, every folded pair banned, over the empty set's corridor
    state = problem._state((c for c, _ in problem._by_index), 0)
    flags = state.banned
    owner = {c: a for a, (c, _) in zip(problem.candidates, problem._by_index)}
    records: list[PathRecord] = []
    seen_cfg: set[frozenset[int]] = set()
    # (cost, call number, branch bans, plan): the call number breaks cost ties in push order
    heap: list[tuple] = []
    calls = 0
    capped = False
    call_cap = max(_POOL_CALL_FACTOR * pool_size, 200)

    def push(banned: frozenset[int]) -> None:
        nonlocal calls, capped
        if calls >= call_cap:
            capped = True
            return
        calls += 1
        # a plan never uses a banned config, so the branch's bans are all clear here
        for c in banned:
            flags[c] = 1
        try:
            plan = plan_with_stats(full, state)[0]
        except Unreachable:
            return
        finally:
            for c in banned:
                flags[c] = 0
        if plan.cost < problem.baseline_cost:
            heapq.heappush(heap, (plan.cost, calls, banned, plan))

    push(frozenset())
    while heap and len(records) < pool_size:
        cost, _, banned, plan = heapq.heappop(heap)
        cfgs = frozenset(c for step in plan.numbered_steps(state) for c in step)
        if cfgs in seen_cfg:
            continue
        seen_cfg.add(cfgs)
        fakes = frozenset(owner[c] for c in cfgs if c in owner)
        if fakes:
            records.append(PathRecord(cost=cost, assignments=fakes))
            if len(records) == pool_size:
                break  # the pool is full: none of this plan's branches would be popped
        for c in sorted(cfgs, key=config_ids.__getitem__):
            push(banned | {c})
    return PathIndex(paths=tuple(records), planner_calls=calls, capped=capped)


class PlacementProblem:
    """The placement problem of one network, shared by the searches on it.

    Its graph and the undefended attack cost `baseline_cost` (b) are the
    network's compiled part (`attacker._Compiled`, which holds the lemma on
    b): one attack graph with every compatible (host, vuln) pair planted,
    built once per network and shared with `evaluate_placement`. The problem
    adds the reachable candidates as plain assignments; inside it, a fake
    config is named by its number in the graph's view (`_Compiled.fakes`).
    A set of pairs is evaluated on that graph by ban flags alone: its
    simulation bans every fake config but the set's, over an arc list fixed
    per use (the view's, or in a search the corridor of Lemma G), so every
    search simulation bans the pairs `enumerate_candidates` folds away.
    Candidates the attacker can never reach leave no fake config in that
    graph; they cannot change any subset's value, so `candidates` leaves them
    out. It folds `_Compiled.fakes`, the reached pairs: folding and the reach
    filter commute, since both act per host. Subset values, the candidates a
    budget can trip (by index, each valued alone into the memo) and path
    indexes (by pool size) are memoized per problem, so every search on the
    network can share one problem, and an engine called without one starts
    from fresh memos; a search refuses a problem compiled from another
    network.

    `trippable(k)` drops candidates that no attack on at most k planted fakes
    can trip. Let L(a) be the cheapest face-value source-to-goal chain through
    fake a on the planted graph, with nothing banned (`chain_costs`). Let c(a)
    be a's face cost, and hr(a) the face-cost distance from the source to the
    privilege a's exploit grants, dst(a), over real configs only
    (`real_routes`); both lists are indexed by config number. A folded pair
    has the host, cost and exploit shape of the candidate kept for its
    (host, cost) class, so its edges run parallel to that candidate's, and L
    and hr are what they are with the candidates alone planted. A lower L
    would only keep more candidates, which is sound.

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

    The memo maps each valued set S to (value, reach), keyed by S's bitmask,
    in which candidate i, `candidates[i]`, is bit 1 << i; the candidates are
    sorted, so the bits follow their order. `_members` maps a candidate to
    its index, and `_by_index` holds each index's config number and L.
    `_value` takes the mask: the search tree passes its masks straight
    through, and `value` computes a set's mask once. The reach R(S) is
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
    the only change to the state is the ban on f1, so the state entering
    round 2 is flag for flag the initial state of the attack on S - {f1}
    (in a search, over the corridors of their sizes, which plan as all the
    arcs do by Lemma G). The attack is deterministic given its state, so
    rounds 2..n are that attack. The value is `attack_total` of rounds
    2..n, the function `simulate_attack` totals a trace with, so non-dyadic
    costs agree to the bit; the reach counts zeroed configs from round 2
    on, and none were zeroed before it. By induction, while
    rounds 1..i all trip at their first step, S - {f1..fi} has the value
    and reach of rounds i+1..n. `value` memoizes these sets after each
    simulation, and never overwrites an entry. `TestTailReuse` compares
    each such tail with a fresh simulation of the smaller set.

    Lemma G (the corridor). Let head(p) and tail(p) be the face-cost
    distances from the source to privilege p and from p to the goal over
    all the graph's arcs, nothing banned. In the attack on a set S of k
    fakes, every privilege p on any round's plan has head(p) + tail(p) <=
    (k+1)*b. Each round but the last trips a distinct fake of S, so there
    are at most k+1 rounds. Round i's plan costs at most b (as in Lemma A),
    and its face cost exceeds that by at most the face cost zeroed before
    it. An earlier round paid each zeroed config once, and paid at most b,
    so the face cost is at most i*b. A Dijkstra chain enters each privilege
    once, and on a generated graph all arcs of a config grant one privilege
    (`TestCorridor` checks this), so the chain pays each config once: its
    face cost is the sum over its arcs, at least head(p) + tail(p) for each
    p on it.

    So `value` simulates S on the corridor for k (`_corridor`): the arcs of
    real configs and candidates (the folded pairs are banned throughout, and
    a banned arc offers nothing), without those out of or into a privilege
    that fails the test, which carries `_TRIP_SLACK`. Every round then plans the chain it plans over
    all the arcs, by induction over the rounds, which start from the same
    state. Within a round, let Q be the full run's chain; it lies in the
    corridor, whose arcs are a subset of the full ones in the same order.
    - Distances. None falls, and Q's privileges keep theirs along Q. If q
      keeps its distance, an arc u -> q that offers q that distance in the
      corridor run leaves u at its full distance, so the full run makes the
      same offer.
    - Predecessors. Dijkstra changes one only on a strictly smaller
      distance, so q's is the first popped privilege that offers q its
      distance, through the first such arc in arc order. Privileges pop in
      order of distance, so it remains to order those of equal distance.
    - Pop order. Let c be on Q and v keep its distance d = dist(c). If c
      pops before v in the full run, it does in the corridor run too.
      Otherwise take the first such v to pop in the corridor run. If c's
      entry is in the heap when v pops there, v has the smaller index, so
      in the full run v's entry came only after c popped, from an offerer
      at distance d. v's entry in the corridor run came from an offerer z,
      which the full run shares. So z is at distance d and pops after c in
      the full run, but before v in the corridor run: an earlier v. If c's
      entry is not in the heap yet, c's predecessor on Q is at distance d
      and has not popped, and v breaks the claim for it; induction along Q
      from the source, which pops first, rules this out.
    So Q's predecessors, its chain and its cost are the same, and the
    rounds trip, pay and zero the same. Only the states expanded fall: a
    privilege off the corridor is never pushed. `TestCorridor` compares
    every set of at most 3 candidates with its full-arc simulation.

    `build_path_index` plans every branch on the empty set's corridor, with
    limit b (Lemma H in its docstring). Only `evaluate_placement` and
    `exhaustive_best` plan over every arc: `evaluate_placement` since its
    report counts the states expanded (p2), and `exhaustive_best`, which
    simulates every set it does not find memoized and memoizes no tails, so
    that on a fresh problem it stays an independent oracle.
    """

    def __init__(self, network: NetworkModel):
        self.network = network
        compiled = self._compiled = _compiled(network)
        self.graph = compiled.graph
        self.baseline_cost = compiled.baseline_cost
        # the reached pairs, folded as `enumerate_candidates` folds them
        self.candidates = tuple(_fold(network, compiled.fakes))
        self.chain_costs, self.real_routes, self._through = _fake_bounds(self.graph.indexed)
        # candidate -> index i (bit 1 << i of a set's mask), and by index its config number and L
        self._members = {a: i for i, a in enumerate(self.candidates)}
        self._by_index = tuple((c, self.chain_costs[c]) for c in map(compiled.fakes.__getitem__, self.candidates))
        self._memo: dict[int, tuple[float, float]] = {}
        # set size -> Lemma G's corridor: per privilege, the arcs a search simulation (or, at 0, the path index) scans
        self._corridors: dict[int, tuple[_Arcs, ...]] = {}
        self._trippable: dict[int, tuple[int, ...]] = {}
        self._indexes: dict[int, PathIndex] = {}

    def value(self, assignments: frozenset[Assignment]) -> float:
        """The attacker's total cost against exactly `assignments`, a set of `candidates`, planted.

        Inherited from a memoized parent where Lemma C allows, else simulated;
        a simulated set's tails are memoized too (Lemma F).
        """
        return self._value(self._mask(assignments))

    def _mask(self, assignments: Iterable[Assignment]) -> int:
        return sum(1 << self._members[a] for a in assignments)

    def _value(self, mask: int, inherit: bool = True) -> float:
        """`value` of the candidates whose bits `mask` holds; with `inherit` false,
        without Lemmas C, F and G: a set not memoized yet is simulated, and only it is memoized."""
        memo = self._memo
        entry = memo.get(mask)
        if entry is not None:
            return entry[0]
        indices = _indices(mask)
        by_index = self._by_index
        if inherit:
            for i in indices:
                parent = memo.get(mask ^ (1 << i))
                if parent is not None and not _within(by_index[i][1], parent[1]):
                    memo[mask] = parent
                    return parent[0]
        # a search plans inside its set size's corridor (Lemma G), the oracle over every arc
        state = self._state((by_index[i][0] for i in indices), len(indices) if inherit else None)
        trace = simulate_attack(self.graph, state)
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
            mask ^= 1 << self._members[it.discovered_fake]
            if mask not in memo:
                tail = rounds[i + 1 :]
                memo[mask] = (attack_total(tail), _reach(tail, self.graph.config_cost))

    def _corridor(self, size: int) -> tuple[_Arcs, ...]:
        """Lemma G's arcs for a set of `size` candidates, memoized per size.

        Per privilege, the view's arcs of real configs and candidates, without
        those out of or into a privilege p whose cheapest chain head(p) +
        tail(p) exceeds (size + 1) * baseline_cost, up to `_TRIP_SLACK`.
        """
        corridor = self._corridors.get(size)
        if corridor is None:
            view = self.graph.indexed
            limit = (size + 1) * self.baseline_cost
            inside = [_within(through, limit) for through in self._through]
            # real configs and candidates; the folded pairs stay banned in every search simulation
            kept = bytearray(not fake for fake in view.fake)
            for c, _ in self._by_index:
                kept[c] = 1
            corridor = self._corridors[size] = tuple(
                tuple(arc for arc in arcs if kept[arc[1]] and inside[arc[2]]) if inside[p] else ()
                for p, arcs in enumerate(view.arcs)
            )
        return corridor

    def _state(self, fakes: Iterable[int], size: int | None = None) -> PlanningState:
        """The compiled part's state with the fake configs `fakes` open and every other fake banned.

        Its arcs, fixed per use, are the view's, or with a `size` the corridor
        of that set size; the other candidates' arcs are skipped by ban flag.
        """
        return self._compiled.state(fakes, None if size is None else self._corridor(size))

    def trippable(self, budget: int) -> tuple[int, ...]:
        """The indices into `candidates` of those some placement of at most `budget` fakes can trip.

        Those with L(a) <= budget * baseline_cost (Lemma A) and
        c(a) <= min(baseline_cost, hr(a)) (Lemma D), in index order, each
        valued alone into the memo; memoized per budget. The empty set is
        valued first, so singletons can inherit from it.
        """
        kept = self._trippable.get(budget)
        if kept is None:
            b = self.baseline_cost
            face_costs = self.graph.indexed.cost
            self._value(0)
            kept = []
            for i, (c, chain) in enumerate(self._by_index):
                if _within(chain, budget * b) and _within(face_costs[c], min(b, self.real_routes[c])):
                    self._value(1 << i)
                    kept.append(i)
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


def _indices(mask: int) -> tuple[int, ...]:
    """The positions of `mask`'s set bits, lowest first: a set's candidate indices in sorted order."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(indices)


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


def _fake_bounds(view: IndexedView) -> tuple[list[float], list[float], list[float]]:
    """By config number, each fake config's chain cost L and the real route
    to the host it grants (inf on real configs); per privilege p, head(p) +
    tail(p).

    head and tail are the face-cost distances from the source and to the
    goal, from one Dijkstra forward from the source and one backward from
    the goal over all the view's arcs, so head(p) + tail(p) is the cheapest
    face-value source-to-goal chain through p (Lemma G). L is the same for a
    config, over the (from, to) privileges of its arcs; a fake whose chain
    cannot reach the goal gets inf. The real route is the largest, over the
    privileges the config's exploits grant, of their face-cost distance from
    the source over the arcs of real configs (hr of Lemma D), from a third
    Dijkstra forward with every fake banned; inf where no real route exists.
    All three run the planner's kernel, `planner._dijkstra`, to completion.
    """
    costs, fake = view.cost, view.fake
    backward: list[list[tuple[int, int, int]]] = [[] for _ in view.privileges]
    # fake config -> the (from, to) privileges of its arcs
    ends: dict[int, list[tuple[int, int]]] = {}
    for p, arcs in enumerate(view.arcs):
        for e, c, q in arcs:
            backward[q].append((e, c, p))
            if fake[c]:
                ends.setdefault(c, []).append((p, q))
    none_banned = bytes(len(costs))
    head = _dijkstra(view.arcs, costs, none_banned, view.source)[0]
    tail = _dijkstra(backward, costs, none_banned, view.goal)[0]
    real = _dijkstra(view.arcs, costs, bytes(fake), view.source)[0]
    chains = [math.inf] * len(costs)
    routes = [math.inf] * len(costs)
    for c, pairs in ends.items():
        chains[c] = min(head[p] + costs[c] + tail[q] for p, q in pairs)
        routes[c] = max(real[q] for _, q in pairs)
    return chains, routes, [h + t for h, t in zip(head, tail)]


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
        if ordering == "shortest_path" and pool_size < 1:
            raise ConfigurationError(f"the shortest-path ordering needs a pool size of at least 1, got {pool_size}")
        if problem is None:
            problem = PlacementProblem(network)
        elif problem.network is not network:
            raise ConfigurationError("the placement problem was compiled from another network")
        self.problem = problem
        self.ordering = ordering
        # h2 is h1 plus the baseline; a node's f adds one of them to its
        # utility, and 0.0 + top is top to the bit, since top >= 0
        self.bound_base = problem.baseline_cost if heuristic == "h2" else 0.0
        self.seed = seed
        self.pool_size = pool_size
        # a budget beyond the candidate pool means "plant everything"
        self.budget = min(budget, len(problem.candidates))
        # (-value, set size, candidate indices) of the best set valued so far
        self.best_key: tuple[float, int, tuple[int, ...]] | None = None
        self.best_value = -math.inf
        self.lookup: Callable[[int], float] = problem._value
        # singleton utility by candidate index, for the tree's candidates
        self.singletons: list[float] = []
        self.reorder: Callable[[tuple[int, ...], int], tuple[int, ...]] | None = None

    def evaluate(self, mask: int) -> float:
        """The value of the candidates whose bits `mask` holds; the best set so far is kept."""
        value = self.lookup(mask)
        if value < self.best_value:
            return value  # its key (-value, ...) sorts after the incumbent's
        key = (-value, mask.bit_count(), _indices(mask))
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_value = value
        return value

    def root(self) -> _Node:
        """The tree's root over the candidates the budget can trip; it narrows the budget to them."""
        trippable = self.problem.trippable(self.budget)
        self.budget = min(self.budget, len(trippable))
        return self.root_over(trippable)

    def root_over(self, indices: tuple[int, ...]) -> _Node:
        """The root of the tree over the candidates of `indices`, in index order, ordered for branching."""
        problem = self.problem
        singletons = self.singletons = [0.0] * len(problem.candidates)
        open_ = list(indices)
        for i in open_:
            singletons[i] = problem._value(1 << i)  # a memo hit after `trippable`
        if self.ordering == "shortest_path":
            self.reorder = _path_ranker(problem.path_index(self.pool_size), problem, singletons, self.budget)
        root_value = self.evaluate(0)
        if self.ordering == "utility":
            open_.sort(key=lambda i: (-singletons[i], i))  # index order is the candidates' sorted order
        elif self.ordering == "random":
            random.Random(self.seed).shuffle(open_)
        else:
            open_ = self.reorder(tuple(open_), 0)
        return self._node(0, 0, tuple(open_), root_value)

    def _node(self, mask: int, count: int, open_: tuple[int, ...], utility: float) -> _Node:
        """The node that chose the `count` candidates of `mask`, worth `utility`, with f as h1 or h2 gives it."""
        slots = self.budget - count
        singletons = self.singletons
        if self.ordering == "utility":
            # the open candidates stay in descending singleton order
            top = math.fsum([singletons[i] for i in open_[:slots]])
        else:
            top = math.fsum(sorted([singletons[i] for i in open_], reverse=True)[:slots])
        return (utility + (self.bound_base + top), mask, count, open_, utility)

    def children(self, node: _Node) -> tuple[_Node | None, _Node | None]:
        """The (drop-head, take-head) children, None where discarded.

        A child is discarded when it can no longer fill the budget. The
        take-head child's set is always evaluated first, so its value registers
        even if the child itself is discarded; the ranker, under the
        shortest-path ordering, reorders the take-head child's open candidates only.
        """
        _, mask, count, open_, utility = node
        head, rest = open_[0], open_[1:]
        budget = self.budget
        left = self._node(mask, count, rest, utility) if count + len(rest) >= budget else None
        mask |= 1 << head
        count += 1
        value = self.evaluate(mask)
        right = None
        if count + len(rest) >= budget:
            if self.reorder is not None:
                rest = self.reorder(rest, mask)
            right = self._node(mask, count, rest, value)
        return left, right

    def result(self, expanded: int, generated: int, t0: float) -> SearchResult:
        best = tuple(self.problem.candidates[i] for i in self.best_key[2])
        return SearchResult(
            best_assignments=best,
            best_utility=self.best_value,
            baseline_cost=self.problem.baseline_cost,
            expanded_nodes=expanded,
            generated_nodes=generated,
            elapsed_ms=(time.perf_counter() - t0) * 1000.0,
            budget_used=len(best),
        )


def _path_ranker(
    index: PathIndex, problem: PlacementProblem, singletons: list[float], budget: int
) -> Callable[[tuple[int, ...], int], tuple[int, ...]]:
    """Rank open candidate indices, against a chosen mask, by the cheapest path they help complete.

    A pooled path counts if its candidates not yet chosen are all open and fit
    the remaining budget; a candidate's key is (candidates the path still
    needs, its cost, its position) of its best such path. Candidates on no
    such path follow in utility order.

    Built once per search, it lists the paths through each candidate from the
    paths' masks. It closes over neither the problem nor a search context: a
    closure reaching the context would keep it (and its problem) alive until
    a cyclic collection.
    """
    masks = [problem._mask(path.assignments) for path in index.paths]
    paths_of: dict[int, list[int]] = {}
    for pid, mask in enumerate(masks):
        for i in _indices(mask):
            paths_of.setdefault(i, []).append(pid)

    def rank(open_: tuple[int, ...], chosen: int) -> tuple[int, ...]:
        slots = budget - chosen.bit_count()
        available = sum(1 << i for i in open_)
        best_key: dict[int, tuple] = {}
        for i in open_:
            for pid in paths_of.get(i, ()):
                need = masks[pid] & ~chosen
                size = need.bit_count()
                if size > slots or need & ~available:
                    continue
                key = (size, index.paths[pid].cost, pid)
                if i not in best_key or key < best_key[i]:
                    best_key[i] = key
        on_path = sorted(best_key, key=lambda i: (best_key[i], i))
        off_path = sorted((i for i in open_ if i not in best_key), key=lambda i: (-singletons[i], i))
        return tuple(on_path + off_path)

    return rank


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
        f, _, count, open_, _ = node
        if f <= ctx.best_value or count >= ctx.budget or not open_:
            continue
        expanded += 1
        left, right = ctx.children(node)
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
    heap: list[tuple[float, int, _Node]] = [(-root[0], 0, root)]
    seq = 1
    generated = 1
    expanded = 0
    while heap:
        negf, _, node = heapq.heappop(heap)
        if -negf <= ctx.best_value:
            break
        if node[2] >= ctx.budget or not node[3]:
            # solution leaf on top of the frontier: no open subtree can beat
            # the incumbent when the heuristic is sound, so the search ends
            # (with h1 this can return a sub-optimal set, as documented)
            break
        expanded += 1
        for child in ctx.children(node):
            if child is None:
                continue
            generated += 1
            heapq.heappush(heap, (-child[0], seq, child))
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
    ctx.lookup = functools.partial(ctx.problem._value, inherit=False)
    n = len(ctx.problem.candidates)
    total = sum(math.comb(n, size) for size in range(ctx.budget + 1))
    if total > max_subsets:
        raise ConfigurationError(
            f"{total} subsets exceed the cap of {max_subsets}; shrink the instance or raise max_subsets"
        )
    count = 0
    for size in range(ctx.budget + 1):
        for combo in itertools.combinations(range(n), size):
            ctx.evaluate(sum(1 << i for i in combo))
            count += 1
    return ctx.result(count, count, t0)

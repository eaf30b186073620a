"""Attacker simulation: iterative planning against planted fake vulnerabilities.

The simulated attacker cannot tell fake vulnerabilities from real ones before
attempting them. Each round it computes the cheapest plan at face value and
executes it in order; the first exploit that needs a fake config fails. The
attacker pays for every config consumed up to and including the failed
attempt, keeps the privileges it gained (configs consumed before the failure
cost nothing from then on), scratches the discovered fake off its map (bans
its config on the same graph), and replans. The loop ends when a plan runs
entirely on real configs, and the accumulated payments are the attack's
actual total cost.

Every placement of a network is evaluated by ban set on the one graph the
network compiles (`_compiled`), by `evaluate_placement` and the searches alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .aggraph import AttackGraph, apply_assignments, config_id
from .errors import Unreachable
from .netmodel import Assignment, NetworkModel, check_placement, compatible_pairs
from .planner import AttackPlan, PlannerStats, PlanningState, optimal_plan, plan_with_stats


@dataclass(frozen=True)
class AttackIteration:
    plan: AttackPlan
    paid_prefix_cost: float
    discovered_fake: Assignment | None
    zeroed_configs: frozenset[str]

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "paid_prefix_cost": self.paid_prefix_cost,
            "discovered_fake": None if self.discovered_fake is None else self.discovered_fake.to_dict(),
            "zeroed_configs": sorted(self.zeroed_configs),
        }


@dataclass(frozen=True)
class SimulationTrace:
    """The rounds of one attack and the planner's effort summed over them."""

    iterations: tuple[AttackIteration, ...]
    planning_effort: PlannerStats

    @property
    def total_cost(self) -> float:
        return attack_total(self.iterations)

    @property
    def recalculations(self) -> int:
        return len(self.iterations)

    def to_dict(self) -> dict:
        return {
            "iterations": [it.to_dict() for it in self.iterations],
            "total_cost": self.total_cost,
            "planning_effort": self.planning_effort.to_dict(),
        }


@dataclass(frozen=True)
class EvaluationReport:
    """The four success measures of an attack, read off its trace.

    p1 counts plan recalculations, p2 is the accumulated planning effort,
    p3 the attack cost relative to the deception-free optimum `baseline_cost`,
    p4 the share of the `n_assignments` placed fakes the attacker actually
    tripped over. An empty placement reports p4 = 1.0 by convention, flagged.
    """

    trace: SimulationTrace
    n_assignments: int
    baseline_cost: float
    seed: int

    @property
    def p1(self) -> int:
        return self.trace.recalculations

    @property
    def p2(self) -> PlannerStats:
        return self.trace.planning_effort

    @property
    def total_cost(self) -> float:
        return self.trace.total_cost

    @property
    def p3(self) -> float:
        if self.baseline_cost == 0:
            return 1.0 if self.total_cost == 0 else math.inf
        return self.total_cost / self.baseline_cost

    @property
    def p4_by_convention(self) -> bool:
        return not self.n_assignments

    @property
    def p4(self) -> float:
        return 1.0 if self.p4_by_convention else (self.p1 - 1) / self.n_assignments

    def to_dict(self) -> dict:
        return {
            "p1": self.p1,
            "p2_states": self.p2.expanded_states,
            "p2_ms": self.p2.elapsed_ms,
            "p3": self.p3,
            "p4": self.p4,
            "p4_by_convention": self.p4_by_convention,
            "n_assignments": self.n_assignments,
            "baseline_cost": self.baseline_cost,
            "total_cost": self.total_cost,
            "seed": self.seed,
            "trace": self.trace.to_dict(),
        }


def attack_total(rounds: Iterable[AttackIteration]) -> float:
    """The rounds' payments summed from 0.0 in round order, as `simulate_attack` totals a trace.

    Not `sum()`, which compensates from Python 3.12 on. `PlacementProblem`
    values a trace's later rounds with it (Lemma F), so the two agree to the bit.
    """
    total = 0.0
    for it in rounds:
        total += it.paid_prefix_cost
    return total


def simulate_attack(graph: AttackGraph, state: PlanningState | None = None) -> SimulationTrace:
    """Run the plan/fail/replan loop to completion and return the trace.

    Everything happens on the one graph given, and the loop plays out on
    `state`, a fresh `PlanningState` of it that the loop consumes; None
    starts at face cost with nothing banned. The state's ban flags take
    configs out of play from the start: `evaluate_placement` and
    `PlacementProblem` ban the fake configs of the pairs a placement does not
    plant, so one graph with every compatible pair planted serves every
    placement. Each round plans at face value with the configs paid so far
    zeroed in the state, and walks the plan's steps through the configs each
    one requires; the graph's adjacency is not read, and config ids are only
    looked up for the trace. When the plan trips a fake, the discovered
    assignment's own config is banned, which leaves the planner exactly the
    plans of the graph regenerated without that assignment.

    `_Compiled.state` plants a set by clearing the ban flags of its fakes in
    a state with every fake banned, over an arc list kept fixed. Dijkstra
    skips a banned config's arcs, whether banned from the start or on
    discovery, without touching distances, predecessors or pop order. A
    search's list is a corridor of the view's arcs, in their order: it leaves
    out the arcs of the pairs no search plants, which are banned throughout,
    and those out of and into privileges that no round's plan can reach, by a
    bound on the chains through them. Dijkstra then settles fewer privileges
    but plans the same chain every round, so the trace differs only in the
    states expanded (Lemma G of `PlacementProblem`).

    A real attack path (goal derivable from real configs only) must exist.
    The loop raises Unreachable("no real attack path exists") if and only if
    none does: while a real path exists every round finds a plan, since only
    fakes are ever banned; without one, every plan found uses a fake, so each
    round bans a fake it had not banned before, and once none is left the
    planner raises.
    """
    if state is None:
        state = PlanningState.of(graph)
    names, fake, working = state.names, state.fake, state.costs
    iterations: list[AttackIteration] = []
    # the planner's effort, each counter summed in round order
    expanded = heuristic_evals = 0
    elapsed_ms = 0.0
    while True:
        try:
            plan, stats = plan_with_stats(graph, state)
        except Unreachable:
            raise Unreachable("no real attack path exists") from None
        expanded += stats.expanded_states
        heuristic_evals += stats.heuristic_evals
        elapsed_ms += stats.elapsed_ms
        # configs of the steps run before the first one needing a fake
        before: set[int] = set()
        fake_reqs: list[int] = []
        for configs in plan.numbered_steps(state):
            fake_reqs = [c for c in configs if fake[c]]
            if fake_reqs:
                break
            before.update(configs)
        if not fake_reqs:
            # every step ran, so `before` holds all the plan's configs
            paid = math.fsum(working[c] for c in before)
            iterations.append(AttackIteration(plan, paid, None, frozenset()))
            break
        paid = math.fsum(working[c] for c in before.union(configs))
        # Several fakes on one exploit: the attacker learns the one whose config
        # id sorts first, the lowest number. Generated graphs never hit this case.
        discovered_config = min(fake_reqs)
        discovered = graph.provenance[names[discovered_config]]
        iterations.append(AttackIteration(plan, paid, discovered, frozenset(map(names.__getitem__, before))))
        for c in before:
            working[c] = 0.0
        state.banned[discovered_config] = 1
    return SimulationTrace(tuple(iterations), PlannerStats(expanded, heuristic_evals, elapsed_ms))


def evaluate_placement(
    network: NetworkModel,
    assignments,
    seed: int = 0,
) -> EvaluationReport:
    """Simulate the attacker against a placement and compute the measures.

    The placement is checked before the network is compiled, then planted by
    ban set on the compiled graph, over all its arcs, so p2 counts what a
    graph built with exactly the placement would expand. A pair on a host the
    attacker never reaches has no config there to open. The seed is recorded
    for reporting only; the simulation itself is deterministic.
    """
    placement = check_placement(network, assignments)
    compiled = _compiled(network)
    fakes = compiled.fakes
    trace = simulate_attack(compiled.graph, compiled.state(fakes[a] for a in placement if a in fakes))
    return EvaluationReport(trace, len(placement), compiled.baseline_cost, seed)


@dataclass(frozen=True)
class _Compiled:
    """A network's graph with every compatible pair planted, the config
    number of each pair the attacker reaches, and b planned with every fake
    banned (the view's fake flags are those ban flags).

    `fakes` maps each compatible pair whose fake config the graph holds to
    that config's number in the graph's view, in `compatible_pairs` order; a
    pair on a host the attacker never reaches has no config there.

    It holds no reference to the network, so the two are freed without the
    cycle collector.

    Lemma. b is `optimal_cost(build_attack_graph(network))` to the bit. With
    every fake banned, Dijkstra on any decorated graph pops the same real
    privileges, in the same order, along the same arcs, as on the undecorated
    graph. A host the real phase reaches fires only onto planted vulns in the
    fake phase, so its real arcs are the undecorated graph's; a host first
    reached in the fake phase is reached only through fake arcs, so with
    every fake banned it is never pushed. Privileges and exploits are
    numbered in sorted id order, so the real ones keep their relative order:
    heap ties and the arc scan order are unchanged. Banned arcs are skipped
    with no effect on distances, predecessors or pop order. So the chain, and
    the `fsum` over its configs, are the same to the bit.
    """

    fakes: dict[Assignment, int]
    graph: AttackGraph
    baseline_cost: float

    def state(
        self, fakes: Iterable[int], arcs: Sequence[Sequence[tuple[int, int, int]]] | None = None
    ) -> PlanningState:
        """A fresh planning state with the fakes numbered `fakes` open and every
        other fake banned, scanning `arcs` (by default the view's)."""
        view = self.graph.indexed
        banned = bytearray(view.fake)
        for c in fakes:
            banned[c] = 0
        return PlanningState(view.configs, view.fake, list(view.cost), banned, view.arcs if arcs is None else arcs)


def _compiled(network: NetworkModel) -> _Compiled:
    """The network's compiled part, built on the first call and kept in its `__dict__`.

    It is kept there as `functools.cached_property` keeps a value on a frozen
    dataclass, so a network must not be mutated after use; a copy built with
    `dataclasses.replace` starts without it. An unreachable goal keeps
    nothing: every call raises Unreachable.
    """
    compiled = vars(network).get("_compiled")
    if compiled is None:
        pairs = tuple(compatible_pairs(network))
        graph = apply_assignments(network, pairs)
        b = optimal_plan(graph, banned_configs=graph.fake_configs()).cost
        view = graph.indexed
        number = {c: i for i, c in enumerate(view.configs)}
        fakes = {a: number[c] for a in pairs if (c := config_id(*a)) in number}
        compiled = vars(network)["_compiled"] = _Compiled(fakes, graph, b)
    return compiled

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .aggraph import AttackGraph, apply_assignments
from .errors import Unreachable
from .netmodel import Assignment, NetworkModel
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
    iterations: tuple[AttackIteration, ...]
    total_cost: float
    planning_effort: PlannerStats

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
    """The four success measures plus the trace they were derived from.

    p1 counts plan recalculations, p2 is the accumulated planning effort,
    p3 the attack cost relative to the deception-free optimum, p4 the share
    of placed fakes the attacker actually tripped over.
    """

    p1: int
    p2: PlannerStats
    p3: float
    p4: float
    p4_by_convention: bool
    n_assignments: int
    baseline_cost: float
    total_cost: float
    seed: int
    trace: SimulationTrace

    @classmethod
    def from_trace(
        cls, trace: SimulationTrace, n_assignments: int, baseline_cost: float, seed: int
    ) -> "EvaluationReport":
        """The measures of an attack, traced against `n_assignments` planted fakes.

        An empty placement reports p4 = 1.0 by convention, flagged.
        """
        p1 = trace.recalculations
        if baseline_cost == 0:
            p3 = 1.0 if trace.total_cost == 0 else math.inf
        else:
            p3 = trace.total_cost / baseline_cost
        by_convention = not n_assignments
        return cls(
            p1=p1,
            p2=trace.planning_effort,
            p3=p3,
            p4=1.0 if by_convention else (p1 - 1) / n_assignments,
            p4_by_convention=by_convention,
            n_assignments=n_assignments,
            baseline_cost=baseline_cost,
            total_cost=trace.total_cost,
            seed=seed,
            trace=trace,
        )

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


def simulate_attack(
    graph: AttackGraph, banned_configs: Iterable[str] | PlanningState = ()
) -> SimulationTrace:
    """Run the plan/fail/replan loop to completion and return the trace.

    Everything happens on the one graph given. `banned_configs` takes configs
    out of play from the start; `PlacementProblem` bans the fake configs of
    the pairs a placement does not plant, so one graph with every compatible
    pair planted serves every placement. The loop keeps its state by config
    number (`PlanningState`): each round plans at face value with the configs
    paid so far zeroed, and walks the plan's steps through the configs each
    one requires; the graph's adjacency is not read, and config ids are only
    looked up for the trace. When the plan trips a fake, the discovered
    assignment's own config is banned, which leaves the planner exactly the
    plans of the graph regenerated without that assignment.

    A caller may pass a fresh `PlanningState` instead of ids, as
    `PlacementProblem` does: it plants a set by clearing the ban flags of
    its fakes in a state with every fake banned, over an arc list it keeps
    fixed. Dijkstra skips a banned config's arcs, whether banned from the
    start or on discovery, without touching distances, predecessors or pop
    order. A search's list is a corridor of the view's arcs, in their order:
    it leaves out the arcs of the pairs no search plants, which are banned
    throughout, and those out of and into privileges that no round's plan
    can reach, by a bound on the chains through them. Dijkstra then settles
    fewer privileges but plans the same chain every round, so the trace
    differs only in the states expanded (Lemma G of `PlacementProblem`).

    A real attack path (goal derivable from real configs only) must exist.
    The loop raises Unreachable("no real attack path exists") if and only if
    none does: while a real path exists every round finds a plan, since only
    fakes are ever banned; without one, every plan found uses a fake, so each
    round bans a fake it had not banned before, and once none is left the
    planner raises.
    """
    if isinstance(banned_configs, PlanningState):
        state = banned_configs
    else:
        state = PlanningState.of(graph, banned_configs=banned_configs)
    names, fake, working = state.names, state.fake, state.costs
    iterations: list[AttackIteration] = []
    # the planner's effort, each counter summed in round order
    expanded = heuristic_evals = 0
    elapsed_ms = 0.0
    while True:
        try:
            plan, stats = plan_with_stats(graph, costs=state)
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
        # Several fakes on one exploit: the attacker learns the one whose
        # config node id sorts first. Generated graphs never hit this case.
        discovered_config = fake_reqs[0] if len(fake_reqs) == 1 else min(fake_reqs, key=names.__getitem__)
        discovered = graph.provenance[names[discovered_config]]
        iterations.append(AttackIteration(plan, paid, discovered, frozenset(map(names.__getitem__, before))))
        for c in before:
            working[c] = 0.0
        state.banned[discovered_config] = 1
    return SimulationTrace(
        iterations=tuple(iterations),
        total_cost=attack_total(iterations),
        planning_effort=PlannerStats(expanded, heuristic_evals, elapsed_ms),
    )


def evaluate_placement(
    network: NetworkModel,
    assignments,
    seed: int = 0,
) -> EvaluationReport:
    """Simulate the attacker against a placement and compute the measures.

    Builds the graph with the placement planted. The seed is recorded for
    reporting only; the simulation itself is deterministic. The
    deception-free optimum is planned on the decorated graph with every fake
    banned, which leaves exactly the plans of the undecorated graph.
    `PlacementProblem.evaluate` gives the same report by ban set on the one
    graph its problem compiles per network, the graph its searches run on.
    """
    placement = frozenset(assignments)
    graph = apply_assignments(network, placement)
    baseline_cost = optimal_plan(graph, banned_configs=graph.fake_configs()).cost
    trace = simulate_attack(graph)
    # the graph is built for this call; the report's plans must not keep it alive
    for it in trace.iterations:
        it.plan.detach()
    return EvaluationReport.from_trace(trace, len(placement), baseline_cost, seed)

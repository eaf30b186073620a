"""The planner's oracles, kept beside the tests that compare the planner with them.

`brute_force_plan` enumerates config subsets and reads derivability off the
least fixpoint of the derivation rules (`derivable_facts`); criterion 1 and
`TestOracleAgreement` hold both planner engines to it. `plan_violations`
machine-checks a plan against the closure bullets and the execution contract.
They read the graph's string-keyed adjacency and assemble plans with the
planner's own helpers, which best-first search uses too.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping

from decoygraph.aggraph import AttackGraph
from decoygraph.errors import ConfigurationError, Unreachable, ValidationError
from decoygraph.planner import AttackPlan, _assemble_plan, _earliest_supporters, _empty_plan, _exec_waves


# ---------------------------------------------------------------------------
# Derivability
# ---------------------------------------------------------------------------


def derivable_facts(
    graph: AttackGraph, usable_configs: Iterable[str] | None = None
) -> tuple[frozenset[str], frozenset[str]]:
    """Least fixpoint of the derivation rules.

    Returns (derivable privileges, firable exploits). The source privilege is
    an axiom; an exploit fires when its privilege requirements are derived and
    its config requirements all sit in `usable_configs` (None means every
    config); a privilege is derived when any supporting exploit fires.
    """
    usable = graph.config_nodes if usable_configs is None else frozenset(usable_configs)
    if not usable <= graph.config_nodes:
        raise ValidationError("usable_configs must be a subset of the config nodes")
    pending: dict[str, int] = {}
    eligible: dict[str, bool] = {}
    waiting: dict[str, list[str]] = {}
    for e, (req_privs, req_configs) in graph.requirements.items():
        pending[e] = len(req_privs)
        eligible[e] = all(c in usable for c in req_configs)
        for p in req_privs:
            waiting.setdefault(p, []).append(e)
    derived: set[str] = set()
    fired: set[str] = set()
    frontier = [graph.source]
    # Exploits with no privilege requirements fire immediately when eligible.
    for e in sorted(graph.exploit_nodes):
        if pending[e] == 0 and eligible[e]:
            fired.add(e)
    stack = [p for e in sorted(fired) for p in graph.grants[e]]
    frontier.extend(stack)
    while frontier:
        p = frontier.pop()
        if p in derived or p not in graph.privilege_nodes:
            continue
        derived.add(p)
        for e in waiting.get(p, ()):
            pending[e] -= 1
            if pending[e] == 0 and eligible[e] and e not in fired:
                fired.add(e)
                frontier.extend(graph.grants[e])
    return frozenset(derived), frozenset(fired)


def derivable(graph: AttackGraph, usable_configs: Iterable[str] | None = None) -> bool:
    """Whether the goal is derivable using only the given configs."""
    derived, _ = derivable_facts(graph, usable_configs)
    return graph.goal in derived


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def brute_force_plan(graph: AttackGraph, max_configs: int = 16) -> AttackPlan:
    """Oracle: enumerate config subsets in (cost, lexicographic) order.

    The first derivable subset that equals its own used-config set wins, which
    realizes the documented tie-break exactly. Exponential; refuses graphs
    with more than `max_configs` configs.
    """
    configs = sorted(graph.config_nodes)
    if len(configs) > max_configs:
        raise ConfigurationError(
            f"brute force refuses {len(configs)} configs (bound {max_configs})"
        )
    costs = graph.config_cost
    if graph.goal == graph.source:
        return _empty_plan(graph)
    subsets = []
    for r in range(len(configs) + 1):
        for combo in itertools.combinations(configs, r):
            subsets.append((math.fsum(costs[c] for c in combo), combo))
    subsets.sort(key=lambda item: (item[0], item[1]))
    for _, combo in subsets:
        usable = frozenset(combo)
        derived, fired = derivable_facts(graph, usable)
        if graph.goal not in derived:
            continue
        # minimal support over the fixpoint closure, earliest wave first
        plan = _assemble_plan(graph, _earliest_supporters(graph, _exec_waves(graph, fired)), costs)
        if frozenset(plan.node_set & graph.config_nodes) == usable:
            return plan
    raise Unreachable(f"goal {graph.goal} is not derivable")


# ---------------------------------------------------------------------------
# Plan checking
# ---------------------------------------------------------------------------


def plan_violations(
    graph: AttackGraph,
    plan: AttackPlan,
    costs: Mapping[str, float] | None = None,
) -> list[str]:
    """Machine check of the plan closure bullets and the execution contract."""
    costs = graph.config_cost if costs is None else costs
    violations: list[str] = []
    nodes = plan.node_set
    if graph.goal not in nodes:
        violations.append("goal not in plan")
    for p in sorted(nodes & graph.privilege_nodes):
        if p == graph.source:
            continue
        supported = any(
            e in nodes and p in graph.grants[e] for e in graph.exploit_nodes
        )
        if not supported:
            violations.append(f"privilege {p} has no supporting exploit in the plan")
    for e in sorted(nodes & graph.exploit_nodes):
        req_privs, req_configs = graph.requirements[e]
        for target in itertools.chain(req_privs, req_configs):
            if target not in nodes:
                violations.append(f"exploit {e} requirement {target} missing from plan")
    if set(plan.exec_order) != set(nodes & graph.exploit_nodes):
        violations.append("exec_order does not cover exactly the plan's exploits")
    have = {graph.source}
    for e in plan.exec_order:
        req_privs, _ = graph.requirements[e]
        if not all(p in have for p in req_privs):
            violations.append(f"exploit {e} executed before its privileges are available")
        have.update(graph.grants[e])
    expected = math.fsum(costs[c] for c in nodes & graph.config_nodes)
    if expected != plan.cost:
        violations.append(f"plan cost {plan.cost} != config sum {expected}")
    return violations

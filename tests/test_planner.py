from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from decoygraph.aggraph import AttackGraph, apply_assignments
from decoygraph.attacker import simulate_attack
from decoygraph.errors import ConfigurationError, Unreachable
from decoygraph.netmodel import default_catalog, generate_network
from decoygraph.planner import (
    AttackPlan,
    PlanningState,
    _bestfirst_plan,
    _dijkstra_plan,
    optimal_cost,
    optimal_plan,
    plan_with_stats,
)
from decoygraph.placement_search import enumerate_candidates
from helpers import (
    COST_PALETTE,
    CVSS3_PALETTE,
    cvss3_catalog,
    random_attack_graph,
    random_unit_rule_graph,
)
from planner_oracles import brute_force_plan, derivable, derivable_facts, plan_violations

from decoygraph.aggraph import build_attack_graph


def _graph(privs, exploits, configs, edges, goal, source, costs):
    return AttackGraph(
        privilege_nodes=frozenset(privs),
        exploit_nodes=frozenset(exploits),
        config_nodes=frozenset(configs),
        edges=frozenset(edges),
        goal=goal,
        source=source,
        config_cost=costs,
        fake_flag={c: False for c in configs},
        provenance={},
    )


@pytest.fixture
def diamond():
    # two exploits share cf0; the shared config must be paid once
    return _graph(
        privs=["p0", "p1", "p2"],
        exploits=["e1", "e2"],
        configs=["cf0", "cf1"],
        edges=[
            ("p1", "e1"),
            ("e1", "p0"),
            ("e1", "cf0"),
            ("p2", "e2"),
            ("e2", "p1"),
            ("e2", "cf0"),
            ("e2", "cf1"),
        ],
        goal="p2",
        source="p0",
        costs={"cf0": 0.5, "cf1": 0.25},
    )


class TestBasics:
    def test_shared_config_counted_once(self, diamond):
        plan = optimal_plan(diamond)
        assert plan.cost == 0.75
        assert plan.exec_order == ("e1", "e2")
        assert plan_violations(diamond, plan) == []

    def test_goal_equals_source_yields_empty_plan(self):
        g = _graph(
            privs=["p0"],
            exploits=[],
            configs=["cf0"],
            edges=[],
            goal="p0",
            source="p0",
            costs={"cf0": 1.0},
        )
        plan = optimal_plan(g)
        assert plan.cost == 0.0
        assert plan.exec_order == ()

    def test_goal_equals_source_on_either_engine(self, diamond):
        # the diamond started at its goal, and its unit-rule copy, where e2 requires cf1 alone
        general = dataclasses.replace(diamond, goal="p0")
        unit = dataclasses.replace(general, edges=general.edges - {("e2", "cf0")})
        assert not general.unit_rule and unit.unit_rule
        for graph, engines in ((general, [_bestfirst_plan]), (unit, [_dijkstra_plan, _bestfirst_plan])):
            for engine in engines:
                plan = engine(graph, PlanningState.of(graph))[0]
                assert (plan.node_set, plan.exec_order, plan.cost, plan.step_configs) == ({"p0"}, (), 0.0, ())
            trace = simulate_attack(graph)
            assert trace.recalculations == 1 and trace.total_cost == 0.0

    def test_unreachable_raises(self, diamond):
        cut = dataclasses.replace(
            diamond,
            edges=frozenset(e for e in diamond.edges if e[0] != "p2"),
        )
        with pytest.raises(Unreachable):
            optimal_plan(cut)


class TestCostOverride:
    def test_zeroed_configs_change_the_optimum(self, diamond):
        base = optimal_plan(diamond)
        assert base.cost == 0.75
        cheap = optimal_plan(diamond, costs={**diamond.config_cost, "cf0": 0.0})
        assert cheap.cost == 0.25

    def test_override_does_not_mutate_graph(self, diamond):
        optimal_plan(diamond, costs={**diamond.config_cost, "cf0": 0.0})
        assert diamond.config_cost["cf0"] == 0.5

    def test_banned_configs_divert_or_block(self, diamond):
        with pytest.raises(Unreachable):
            optimal_plan(diamond, banned_configs=frozenset({"cf0"}))


class TestDerivability:
    def test_facts_fixpoint(self, diamond):
        privs, fired = derivable_facts(diamond)
        assert privs == {"p0", "p1", "p2"}
        assert fired == {"e1", "e2"}

    def test_usable_subset_blocks(self, diamond):
        privs, fired = derivable_facts(diamond, usable_configs=frozenset({"cf1"}))
        assert privs == {"p0"}
        assert fired == set()
        assert not derivable(diamond, frozenset({"cf1"}))

    def test_unknown_usable_config_rejected(self, diamond):
        from decoygraph.errors import ValidationError

        with pytest.raises(ValidationError):
            derivable_facts(diamond, usable_configs=frozenset({"nope"}))


class TestOracleAgreement:
    def test_brute_force_refuses_large_instances(self):
        rng = random.Random(3)
        g = random_attack_graph(rng, max_configs=10)
        assert len(g.config_nodes) > 3
        with pytest.raises(ConfigurationError):
            brute_force_plan(g, max_configs=3)

    def test_matches_brute_force_on_random_graphs(self):
        solvable = 0
        for seed in range(150):
            rng = random.Random(seed)
            g = random_attack_graph(rng)
            if not derivable(g):
                with pytest.raises(Unreachable):
                    optimal_plan(g)
                continue
            solvable += 1
            fast = optimal_plan(g)
            slow = brute_force_plan(g)
            assert fast.cost == slow.cost, f"seed {seed}"
            assert plan_violations(g, fast) == []
            assert plan_violations(g, slow) == []
        assert solvable > 80

    def test_equal_cost_multisets_sum_to_the_same_float(self):
        # The two plans use different configs of equal costs {0.5, 0.9, 0.9}/3.9;
        # summed in config-id order they round 1 ulp apart.
        g = random_attack_graph(random.Random(983), palette=CVSS3_PALETTE)
        assert optimal_plan(g).cost == brute_force_plan(g).cost

    def test_matches_brute_force_on_generated_networks(self):
        checked = 0
        for seed in range(40):
            net = generate_network(5, default_catalog(), seed=seed)
            g = build_attack_graph(net)
            if len(g.config_nodes) > 12:
                continue
            fast = optimal_plan(g)
            slow = brute_force_plan(g)
            assert fast.cost == slow.cost, f"seed {seed}"
            checked += 1
        assert checked > 10


class TestDeterminism:
    def test_same_graph_same_plan(self):
        for seed in (3, 17, 92):
            rng = random.Random(seed)
            g = random_attack_graph(rng)
            if not derivable(g):
                continue
            first = optimal_plan(g)
            second = optimal_plan(g)
            assert first.exec_order == second.exec_order
            assert first.node_set == second.node_set
            assert first.cost == second.cost

    def test_plan_with_stats_reports_effort(self, diamond):
        plan, stats = plan_with_stats(diamond)
        assert plan.cost == 0.75
        assert stats.expanded_states >= 1
        assert stats.elapsed_ms >= 0.0


class TestPlanChecker:
    def test_flags_cost_mismatch(self, diamond):
        import dataclasses

        plan = optimal_plan(diamond)
        lying = dataclasses.replace(plan, cost=0.1)
        assert any("cost" in v for v in plan_violations(diamond, lying))

    def test_flags_missing_goal(self, diamond):
        import dataclasses

        plan = optimal_plan(diamond)
        gutted = dataclasses.replace(
            plan,
            node_set=frozenset(n for n in plan.node_set if n != diamond.goal),
        )
        assert plan_violations(diamond, gutted)

    def test_flags_unexecutable_order(self, diamond):
        import dataclasses

        plan = optimal_plan(diamond)
        shuffled = dataclasses.replace(plan, exec_order=tuple(reversed(plan.exec_order)))
        assert plan_violations(diamond, shuffled)


def test_unit_rule_graphs_use_exact_chain_search(chain_graph):
    # network-built graphs satisfy the one-privilege one-config shape, so
    # costs must match the subset oracle exactly
    assert optimal_cost(chain_graph) == brute_force_plan(chain_graph).cost == 3.0


def _outputs_digest(calls) -> str:
    """SHA-256 over each call's plan and expanded-state count, or its Unreachable message."""
    digest = hashlib.sha256()
    for graph, costs, banned in calls:
        try:
            plan, stats = plan_with_stats(graph, PlanningState.of(graph, costs, banned))
            line = json.dumps([plan.to_dict(), stats.expanded_states])
        except Unreachable as exc:
            line = f"Unreachable: {exc}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _perturbed(rng: random.Random, graph: AttackGraph, configs: list[str]):
    """A random ban set drawn from `configs` and a cost table with random configs zeroed."""
    banned = frozenset(c for c in configs if rng.random() < 0.2)
    costs = {c: 0.0 if rng.random() < 0.3 else v for c, v in sorted(graph.config_cost.items())}
    return costs, banned


class TestPinnedOutputs:
    """Exact planner outputs, pinned to digests recorded before the integer-indexed Dijkstra.

    Cost equality with brute force does not fix which of several optimal
    plans comes back, in which execution order, after how many expansions.
    These digests do, so a rewrite of an engine must reproduce them bit for bit.
    """

    def test_random_unit_rule_graphs(self):
        calls = []
        for seed in range(1500):
            rng = random.Random(seed)
            g = random_unit_rule_graph(rng, palette=CVSS3_PALETTE if seed % 2 else COST_PALETTE)
            assert g.unit_rule
            configs = sorted(g.config_nodes)
            calls.append((g, None, ()))
            for _ in range(3):
                calls.append((g, *_perturbed(rng, g, configs)))
        assert _outputs_digest(calls) == "2920888a21402b6fae5590a9760afd8a67aec78a1c17e2538293fd72ad034221"

    def test_planted_generated_networks(self):
        calls = []
        dyadic, cvss3 = default_catalog(), cvss3_catalog()
        for hosts, seed, catalog in ((8, 1, dyadic), (12, 7, dyadic), (20, 11, dyadic), (30, 3, dyadic), (10, 2, cvss3)):
            net = generate_network(hosts, catalog, seed=seed)
            g = apply_assignments(net, enumerate_candidates(net))
            assert g.unit_rule
            fakes = sorted(g.fake_configs())
            rng = random.Random(seed)
            calls.append((g, None, ()))
            for _ in range(60):
                calls.append((g, *_perturbed(rng, g, fakes)))
        assert _outputs_digest(calls) == "ffe181051e7b161d51c3eb08ff4690fdb5f5f1ce92eecbabf0e834a125940244"


class TestNumberedInputs:
    """`plan_with_stats` on a `PlanningState`, the attacker's form, against
    its id-keyed form, on random unit-rule graphs with multi-grant exploits
    and cycles, random zeroed costs and random ban sets."""

    @pytest.mark.parametrize("palette", [COST_PALETTE, CVSS3_PALETTE], ids=["dyadic", "cvss3"])
    def test_numbered_and_id_keyed_inputs_agree(self, palette):
        compared = unreachable = pruned = 0
        for seed in range(400):
            rng = random.Random(seed)
            g = random_unit_rule_graph(rng, palette=palette)
            view = g.indexed
            configs = sorted(g.config_nodes)
            for round_ in range(3):
                costs, banned = _perturbed(rng, g, configs)
                state = PlanningState.of(g)
                for i, c in enumerate(state.names):
                    state.costs[i] = costs[c]
                    state.banned[i] = c in banned
                if round_ % 2:
                    # the arcs of the banned configs left out, as the attacker may
                    state.arcs = [tuple(arc for arc in arcs if not state.banned[arc[1]]) for arcs in view.arcs]
                    pruned += state.arcs != list(view.arcs)
                try:
                    expected, expected_stats = plan_with_stats(g, PlanningState.of(g, costs, banned))
                except Unreachable as exc:
                    with pytest.raises(Unreachable, match=str(exc)):
                        plan_with_stats(g, state)
                    unreachable += 1
                    continue
                plan, stats = plan_with_stats(g, state)
                assert plan.to_dict() == expected.to_dict(), f"seed {seed}"
                assert plan.step_configs == expected.step_configs, f"seed {seed}"
                assert stats.expanded_states == expected_stats.expanded_states, f"seed {seed}"
                compared += 1
        assert compared > 600 and unreachable > 50 and pruned > 100, (compared, unreachable, pruned)

    def test_plans_assembled_on_read_equal_eager_plans(self):
        checked = 0
        for seed in range(200):
            g = random_unit_rule_graph(random.Random(seed))
            try:
                plan = optimal_plan(g)
            except Unreachable:
                continue
            assert type(plan) is not AttackPlan
            digest = hash(plan)  # before any field is read
            eager = AttackPlan(plan.node_set, plan.exec_order, plan.cost, plan.step_configs)
            assert plan == eager and eager == plan and digest == hash(eager)
            assert len({plan, eager, optimal_plan(g)}) == 1
            assert plan != AttackPlan(plan.node_set, plan.exec_order, plan.cost + 1.0, plan.step_configs)
            # reading a field assembled the plan and dropped the view
            assert "_view" not in vars(plan) and plan == eager and hash(plan) == digest
            assert plan_violations(g, plan) == []
            checked += 1
        assert checked > 100

from __future__ import annotations

import dataclasses
import gc
import random
from itertools import combinations

import pytest

from decoygraph import placement_search
from decoygraph.aggraph import apply_assignments, config_id
from decoygraph.attacker import simulate_attack
from decoygraph.errors import ConfigurationError
from decoygraph.netmodel import (
    EXTERNAL,
    Assignment,
    CvssVersion,
    Goal,
    Host,
    Layer,
    NetworkModel,
    VulnerabilityRecord,
    default_catalog,
    generate_network,
)
from decoygraph.placement_search import (
    PlacementProblem,
    SearchNode,
    _rank_by_paths,
    _SearchContext,
    astar,
    build_path_index,
    dfbnb,
    enumerate_candidates,
    exhaustive_best,
    expand,
    h1,
    h2,
    order_candidates,
)
from helpers import cvss3_catalog, small_network

W1 = Assignment(host_id="h1", vuln_id="w1")
W2 = Assignment(host_id="h2", vuln_id="w2")
W3 = Assignment(host_id="h3", vuln_id="w3")


def _planted(net):
    """The graph of `net` with every search candidate planted."""
    return apply_assignments(net, enumerate_candidates(net))


def _result_key(res):
    d = res.to_dict()
    d.pop("elapsed_ms")
    return d


def _vuln(vuln_id, os, subscore):
    return VulnerabilityRecord(
        vuln_id=vuln_id,
        cvss_version=CvssVersion.V2,
        exploitability_subscore=subscore,
        affected_os=frozenset({os}),
    )


def _one_host_net(extra_records):
    catalog = {"rv": _vuln("rv", "os-t", 10.0)}
    catalog.update({r.vuln_id: r for r in extra_records})
    host = Host(
        host_id="t",
        os="os-t",
        installed_vulns=frozenset({"rv"}),
        layer=Layer.SECURED,
    )
    return NetworkModel(
        hosts={"t": host},
        reachability=frozenset({(EXTERNAL, "t")}),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="t"),
        catalog=catalog,
    )


class TestCandidates:
    def test_chain_candidates_in_order(self, chain_net):
        assert enumerate_candidates(chain_net) == [W1, W2, W3]

    def test_equal_cost_same_host_collapses(self):
        net = _one_host_net([_vuln("w-b", "os-t", 5.0), _vuln("w-a", "os-t", 5.0)])
        assert [a.vuln_id for a in enumerate_candidates(net)] == ["w-a"]

    def test_distinct_costs_both_survive(self):
        net = _one_host_net([_vuln("w-a", "os-t", 5.0), _vuln("w-b", "os-t", 2.5)])
        assert [a.vuln_id for a in enumerate_candidates(net)] == ["w-a", "w-b"]

    def test_singleton_utilities(self, chain_net):
        cands = PlacementProblem(chain_net).trippable(3)
        assert [c.assignment for c in cands] == [W1, W2, W3]
        assert [c.singleton_utility for c in cands] == [3.5, 3.5, 3.5]


def _node(chosen, remaining, budget, baseline, utility=0.0):
    return SearchNode(
        chosen=chosen,
        remaining=remaining,
        utility=utility,
        heuristic=0.0,
        budget=budget,
        baseline_cost=baseline,
    )


@pytest.fixture
def chain_candidates(chain_net):
    return PlacementProblem(chain_net).trippable(3)


class TestHeuristics:
    def test_root_values(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        assert h1(node) == 7.0
        assert h2(node) == 10.0

    def test_sum_truncates_to_open_slots(self, chain_candidates):
        node = _node((), chain_candidates, 1, 3.0)
        assert h1(node) == 3.5
        assert h2(node) == 6.5

    def test_full_budget_leaf(self, chain_candidates):
        node = _node((W1, W2), chain_candidates[2:], 2, 3.0)
        assert h1(node) == 0.0
        assert h2(node) == 3.0

    def test_lure_root_bounds(self, lure_net):
        # the optimistic estimate undershoots the best pair here (20 < 22)
        # while the sound bound stays above it (30 >= 22)
        cands = PlacementProblem(lure_net).trippable(2)
        node = _node((), cands, 2, 10.0)
        assert h1(node) == 20.0
        assert h2(node) == 30.0


class TestOrdering:
    def test_utility_mode_sorts_descending(self, chain_candidates):
        bumped = (
            chain_candidates[0],
            dataclasses.replace(chain_candidates[1], singleton_utility=9.0),
            chain_candidates[2],
        )
        node = _node((), bumped, 2, 3.0)
        ordered = order_candidates(node, "utility")
        assert [c.assignment for c in ordered] == [W2, W1, W3]

    def test_random_mode_is_seeded(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        a = order_candidates(node, "random", seed=4)
        b = order_candidates(node, "random", seed=4)
        assert a == b
        assert sorted(c.assignment for c in a) == [W1, W2, W3]

    def test_shortest_path_needs_an_index(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        with pytest.raises(ConfigurationError):
            order_candidates(node, "shortest_path")

    def test_hyphen_alias(self, chain_net, chain_candidates):
        idx = build_path_index(_planted(chain_net))
        node = _node((), chain_candidates, 2, 3.0)
        ordered = order_candidates(node, "shortest-path", index=idx)
        assert [c.assignment for c in ordered] == [W3, W2, W1]

    def test_unknown_mode(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        with pytest.raises(ConfigurationError):
            order_candidates(node, "greedy")


class TestPathPool:
    def test_chain_pool_contents(self, chain_net):
        idx = build_path_index(_planted(chain_net))
        assert len(idx.paths) == 7
        costs = [p.cost for p in idx.paths]
        assert costs == sorted(costs)
        assert costs[0] == 1.5
        assert idx.paths[0].assignments == frozenset({W1, W2, W3})
        for p in idx.paths:
            assert p.cost < 3.0
            assert p.assignments
        for a, ids in idx.by_assignment.items():
            for pid in ids:
                assert a in idx.paths[pid].assignments

    def test_pool_size_keeps_the_cheapest(self, chain_net):
        idx = build_path_index(_planted(chain_net), pool_size=3)
        assert [p.cost for p in idx.paths] == [1.5, 2.0, 2.0]

    def test_pool_is_deterministic(self, chain_net):
        assert build_path_index(_planted(chain_net)) == build_path_index(_planted(chain_net))

    def test_lure_pool_is_a_single_record(self, lure_net):
        idx = build_path_index(_planted(lure_net))
        assert len(idx.paths) == 1
        assert idx.paths[0].cost == 9.0
        assert {a.host_id for a in idx.paths[0].assignments} == {"f1", "f2"}


class TestRanking:
    def test_singleton_paths_rank_first_at_the_root(self, chain_net, chain_candidates):
        idx = build_path_index(_planted(chain_net))
        ranked = _rank_by_paths(idx, chain_candidates, frozenset(), 2)
        # each lure closes a one-assignment path; ties break on cost then id
        assert [c.assignment for c in ranked] == [W3, W2, W1]

    def test_partial_choice_prefers_path_completion(self, chain_net, chain_candidates):
        idx = build_path_index(_planted(chain_net))
        ranked = _rank_by_paths(idx, chain_candidates[1:], frozenset({W1}), 2)
        assert [c.assignment for c in ranked] == [W3, W2]

    def test_off_pool_candidates_fall_back_to_utility(self, chain_net, chain_candidates):
        idx = build_path_index(_planted(chain_net), pool_size=1)
        # only the all-three path survives; no candidate fits one open slot
        ranked = _rank_by_paths(idx, chain_candidates[1:], frozenset({W1}), 2)
        assert [c.assignment for c in ranked] == [W2, W3]


class TestExpand:
    def _recording_evaluate(self):
        calls = []

        def evaluate(assignments):
            calls.append(assignments)
            return 0.0

        return calls, evaluate

    def test_both_children(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        calls, evaluate = self._recording_evaluate()
        left, right = expand(node, evaluate, h2)
        assert left is not None and right is not None
        assert left.chosen == ()
        assert [c.assignment for c in left.remaining] == [W2, W3]
        assert right.chosen == (W1,)
        assert [c.assignment for c in right.remaining] == [W2, W3]
        assert calls == [frozenset({W1})]

    def test_left_discarded_when_budget_cannot_fill(self, chain_candidates):
        node = _node((), chain_candidates[1:], 2, 3.0)
        calls, evaluate = self._recording_evaluate()
        left, right = expand(node, evaluate, h2)
        assert left is None
        assert right is not None and right.chosen == (W2,)

    def test_last_candidate_still_evaluated(self, chain_candidates):
        # both children die (one candidate, two slots) but the taken set's
        # utility must register before the structural discard
        node = _node((), chain_candidates[2:], 2, 3.0)
        calls, evaluate = self._recording_evaluate()
        left, right = expand(node, evaluate, h2)
        assert (left, right) == (None, None)
        assert calls == [frozenset({W3})]

    def test_full_node_is_terminal(self, chain_candidates):
        node = _node((W1, W2), chain_candidates[2:], 2, 3.0)
        calls, evaluate = self._recording_evaluate()
        assert expand(node, evaluate, h2) == (None, None)
        assert calls == []

    def test_reorder_applies_to_take_branch_only(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        flip = lambda remaining, chosen: tuple(reversed(remaining))
        _, evaluate = self._recording_evaluate()
        left, right = expand(node, evaluate, h2, reorder=flip)
        assert [c.assignment for c in left.remaining] == [W2, W3]
        assert [c.assignment for c in right.remaining] == [W3, W2]


class TestEngines:
    def test_chain_optimum(self, chain_net):
        res = dfbnb(chain_net, budget=2)
        assert res.baseline_cost == 3.0
        assert res.best_utility == 4.0
        assert res.best_assignments == (W1, W2)
        assert res.budget_used == 2

    def test_three_engines_agree(self, chain_net, lure_net):
        for net, budget in ((chain_net, 2), (lure_net, 2)):
            a = dfbnb(net, budget=budget)
            b = astar(net, budget=budget)
            c = exhaustive_best(net, budget=budget)
            assert a.best_utility == b.best_utility == c.best_utility
            assert a.best_assignments == b.best_assignments == c.best_assignments

    def test_tie_breaks_to_smallest_set(self, chain_net):
        # every pair scores 4.0; the reported winner is the lexicographic
        # smallest, and no singleton (3.5) can displace it
        res = exhaustive_best(chain_net, budget=2)
        assert res.best_assignments == (W1, W2)

    def test_budget_clamps_to_pool(self, chain_net):
        wide = dfbnb(chain_net, budget=5)
        tight = dfbnb(chain_net, budget=3)
        assert wide.best_utility == tight.best_utility
        assert wide.best_assignments == tight.best_assignments
        assert wide.budget_used <= 3

    def test_zero_budget(self, chain_net):
        res = dfbnb(chain_net, budget=0)
        assert res.best_assignments == ()
        assert res.best_utility == res.baseline_cost == 3.0
        assert res.expanded_nodes == 0

    def test_no_candidates(self):
        net = _one_host_net([])
        res = dfbnb(net, budget=3)
        assert res.best_assignments == ()
        assert res.best_utility == res.baseline_cost == 1.0

    def test_negative_budget_rejected(self, chain_net):
        with pytest.raises(ConfigurationError):
            dfbnb(chain_net, budget=-1)

    def test_unknown_knobs_rejected(self, chain_net):
        with pytest.raises(ConfigurationError):
            dfbnb(chain_net, budget=1, ordering="best")
        with pytest.raises(ConfigurationError):
            astar(chain_net, budget=1, heuristic="h3")

    def test_all_orderings_reach_the_optimum(self, chain_net, lure_net):
        for net, budget, want in ((chain_net, 2, 4.0), (lure_net, 2, 22.0)):
            for ordering in ("utility", "shortest-path", "random"):
                assert dfbnb(net, budget=budget, ordering=ordering, seed=3).best_utility == want
                assert astar(net, budget=budget, ordering=ordering, seed=3).best_utility == want

    def test_optimistic_heuristic_still_lands_here(self, lure_net):
        # h1 undershoots at the root of this network yet both engines happen
        # to keep the winning branch alive; the guarantee is gone, the answer
        # is not
        assert dfbnb(lure_net, budget=2, heuristic="h1").best_utility == 22.0
        assert astar(lure_net, budget=2, heuristic="h1").best_utility == 22.0

    def test_astar_expands_no_more_than_dfbnb(self, chain_net, lure_net):
        for net in (chain_net, lure_net):
            d = dfbnb(net, budget=2)
            a = astar(net, budget=2)
            assert a.expanded_nodes <= d.expanded_nodes

    def test_exhaustive_refuses_oversized_instances(self, chain_net):
        with pytest.raises(ConfigurationError):
            exhaustive_best(chain_net, budget=2, max_subsets=3)

    def test_determinism(self, chain_net, lure_net):
        for net in (chain_net, lure_net):
            assert _result_key(dfbnb(net, budget=2)) == _result_key(dfbnb(net, budget=2))
            assert _result_key(astar(net, budget=2, ordering="random", seed=8)) == _result_key(
                astar(net, budget=2, ordering="random", seed=8)
            )

    def test_shared_caches_do_not_change_answers(self, chain_net, monkeypatch):
        lone = dfbnb(chain_net, budget=2)
        problem = PlacementProblem(chain_net)
        truth = exhaustive_best(chain_net, budget=2, problem=problem)

        def no_simulation(*args, **kwargs):
            raise AssertionError("every subset is memoized by the shared problem")

        monkeypatch.setattr(placement_search, "simulate_attack", no_simulation)
        warm1 = dfbnb(chain_net, budget=2, problem=problem)
        warm2 = astar(chain_net, budget=2, problem=problem)
        assert _result_key(lone) == _result_key(warm1)
        for res in (truth, warm2):
            assert res.best_utility == lone.best_utility
            assert res.best_assignments == lone.best_assignments

    def test_prebuilt_path_index_is_honored(self, chain_net, monkeypatch):
        problem = PlacementProblem(chain_net)
        idx = problem.path_index(100)
        assert idx == build_path_index(_planted(chain_net))

        def no_index(*args, **kwargs):
            raise AssertionError("the problem's path index is rebuilt")

        monkeypatch.setattr(placement_search, "build_path_index", no_index)
        res = dfbnb(chain_net, budget=2, ordering="shortest_path", problem=problem)
        assert res.best_utility == 4.0
        assert problem.path_index(100) is idx

    def test_problem_from_another_network_is_refused(self, chain_net, lure_net):
        problem = PlacementProblem(lure_net)
        for engine in (dfbnb, astar, exhaustive_best):
            with pytest.raises(ConfigurationError):
                engine(chain_net, budget=2, problem=problem)

    def test_unreachable_candidates_are_dropped(self, chain_net):
        # h4 has no inbound reachability, so fakes planted there are never tripped
        isolated = Host(host_id="h4", os="os-h1", layer=Layer.INTERNAL)
        net = dataclasses.replace(
            chain_net,
            hosts={**chain_net.hosts, "h4": isolated},
            reachability=chain_net.reachability | {("h4", "h3")},
        )
        assert {a.host_id for a in enumerate_candidates(net)} == {"h1", "h2", "h3", "h4"}
        for engine in (dfbnb, astar, exhaustive_best):
            assert _result_key(engine(net, budget=2)) == _result_key(engine(chain_net, budget=2))

    def test_search_context_needs_no_cycle_collection(self, chain_net):
        # a reorder closure over the context would keep it, and its planted
        # graph, alive until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            astar(chain_net, budget=2, ordering="shortest_path")
            leaked = sum(isinstance(o, (_SearchContext, PlacementProblem)) for o in gc.get_objects())
        finally:
            gc.enable()
        assert leaked == 0

    def test_matches_exhaustive_on_random_networks(self):
        for seed in (2, 5, 9, 14):
            net = small_network(random.Random(seed), max_hosts=5)
            problem = PlacementProblem(net)
            truth = exhaustive_best(net, budget=2, max_subsets=100_000, problem=problem)
            found = dfbnb(net, budget=2, problem=problem)
            assert found.best_utility == truth.best_utility, f"seed {seed}"
            assert found.best_assignments == truth.best_assignments, f"seed {seed}"


def _boundary_net(entry_fake, middle, goal):
    """A fake on a dead-end host d whose only way on is the real route m -> t.

    Real route: entry -> m -> t. Through the fake: entry -> d -> m -> t. The
    three V2 subscores price the fake on d, the real vuln on m and the one on t.
    """
    catalog = {
        "w": _vuln("w", "os-d", entry_fake),
        "rm": _vuln("rm", "os-m", middle),
        "rt": _vuln("rt", "os-t", goal),
    }
    hosts = {
        "d": Host(host_id="d", os="os-d", layer=Layer.DMZ),
        "m": Host(host_id="m", os="os-m", installed_vulns=frozenset({"rm"}), layer=Layer.INTERNAL),
        "t": Host(host_id="t", os="os-t", installed_vulns=frozenset({"rt"}), layer=Layer.SECURED),
    }
    return NetworkModel(
        hosts=hosts,
        reachability=frozenset({(EXTERNAL, "d"), (EXTERNAL, "m"), ("d", "m"), ("m", "t")}),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="t"),
        catalog=catalog,
    )


class TestTrippableFilter:
    """dfbnb and astar search only the candidates a budget can trip; the
    lemmas in the PlacementProblem docstring say that loses nothing."""

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_dropped_candidates_never_change_a_value(self, catalog):
        # For every subset S of size at most K: each fake the attacker trips
        # is kept at K (Lemma A), and S is worth what its kept part is worth
        # (Lemmas A and B together).
        checked = dropped = 0
        for seed in range(20):
            net = small_network(random.Random(9300 + seed), max_hosts=8, catalog=catalog)
            problem = PlacementProblem(net)
            assignments = sorted(problem.candidates)
            for budget in (1, 2, 3):
                kept = {c.assignment for c in problem.trippable(budget)}
                dropped += len(assignments) - len(kept)
                for size in range(budget + 1):
                    for combo in combinations(assignments, size):
                        subset = frozenset(combo)
                        banned = problem.fake_configs - {config_id(a.host_id, a.vuln_id) for a in subset}
                        trace = simulate_attack(problem.graph, banned_configs=banned)
                        tripped = {it.discovered_fake for it in trace.iterations} - {None}
                        assert tripped <= kept, f"seed {seed}, K={budget}, {sorted(subset)}"
                        assert problem.value(subset) == problem.value(subset & kept), f"seed {seed}, K={budget}"
                        checked += 1
        assert checked >= 10_000
        assert dropped >= 250

    @pytest.mark.parametrize(
        "subscores, reads_high",
        [((5.0, 2.5, 2.5), False), ((1.0, 0.1, 0.9), True)],
        ids=["exact", "one-ulp-high"],
    )
    def test_candidate_on_the_limit_is_kept(self, subscores, reads_high):
        # b = cost(rm) + cost(rt) and L(w) = cost(w) + b with cost(w) = b, so
        # L(w) = 2b. With 0.01 + 0.09 and 0.1 the float chain reads one ulp
        # above 2b; the slack keeps it.
        net = _boundary_net(*subscores)
        problem = PlacementProblem(net)
        lure = Assignment(host_id="d", vuln_id="w")
        chain = problem.chain_costs[config_id("d", "w")]
        assert (chain > 2 * problem.baseline_cost) == reads_high
        assert chain == pytest.approx(2 * problem.baseline_cost)
        assert [c.assignment for c in problem.trippable(2)] == [lure]
        assert problem.trippable(1) == ()

    def test_exhaustive_keeps_every_candidate(self):
        net = _boundary_net(5.0, 2.5, 2.5)
        problem = PlacementProblem(net)
        assert problem.trippable(1) == ()
        res = exhaustive_best(net, budget=1, problem=problem)
        assert res.expanded_nodes == 2  # the empty set and {(d, w)}
        assert dfbnb(net, budget=1, problem=problem).expanded_nodes == 0

    def test_filter_shrinks_the_tree_on_a_generated_network(self):
        net = generate_network(20, default_catalog(), seed=11)
        problem = PlacementProblem(net)
        assert (len(problem.candidates), len(problem.trippable(2))) == (53, 8)
        found = dfbnb(net, budget=2, problem=problem)
        assert (found.best_utility, found.expanded_nodes) == (2.0, 35)


def _tie_net():
    """Fakes a and b on host d, whose real vuln rd the entry reaches directly.

    c(a) = c(rd) = 0.25 = hr(d) exactly, and a's exploit sorts before rd's, so
    the planner's Dijkstra keeps a on the tie and the attacker trips it.
    c(b) = 0.3 > hr(d), so b is never tripped. The goal t is behind d.
    """
    catalog = {
        "a": _vuln("a", "os-d", 2.5),
        "b": _vuln("b", "os-d", 3.0),
        "rd": _vuln("rd", "os-d", 2.5),
        "rt": _vuln("rt", "os-t", 5.0),
    }
    hosts = {
        "d": Host(host_id="d", os="os-d", installed_vulns=frozenset({"rd"}), layer=Layer.DMZ),
        "t": Host(host_id="t", os="os-t", installed_vulns=frozenset({"rt"}), layer=Layer.SECURED),
    }
    return NetworkModel(
        hosts=hosts,
        reachability=frozenset({(EXTERNAL, "d"), ("d", "t")}),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="t"),
        catalog=catalog,
    )


class TestRealRouteFilter:
    """Lemma D: a fake that costs more than the undefended attack or than the
    real route to its host is never tripped, so dfbnb and astar drop it."""

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_dropped_candidates_never_change_a_value(self, catalog):
        # For every subset S of size at most K: each fake the attacker trips
        # passes both filters at K, and S is worth what its kept part is
        # worth. `by_route` counts the candidates Lemma A keeps and Lemma D
        # drops, so the check covers Lemma D's drops.
        checked = by_route = 0
        for seed in range(20):
            net = small_network(random.Random(9500 + seed), max_hosts=8, catalog=catalog)
            problem = PlacementProblem(net)
            assignments = sorted(problem.candidates)
            for budget in (1, 2, 3):
                kept = {c.assignment for c in problem.trippable(budget)}
                by_route += sum(
                    1
                    for a in assignments
                    if a not in kept and problem.chain_costs[config_id(a.host_id, a.vuln_id)] <= budget * problem.baseline_cost
                )
                for size in range(budget + 1):
                    for combo in combinations(assignments, size):
                        subset = frozenset(combo)
                        banned = problem.fake_configs - {config_id(a.host_id, a.vuln_id) for a in subset}
                        trace = simulate_attack(problem.graph, banned_configs=banned)
                        tripped = {it.discovered_fake for it in trace.iterations} - {None}
                        assert tripped <= kept, f"seed {seed}, K={budget}, {sorted(subset)}"
                        assert problem.value(subset) == problem.value(subset & kept), f"seed {seed}, K={budget}"
                        checked += 1
        assert checked >= 10_000
        assert by_route >= 100

    def test_fake_as_cheap_as_the_real_route_is_kept(self):
        net = _tie_net()
        problem = PlacementProblem(net)
        lure, dear = Assignment(host_id="d", vuln_id="a"), Assignment(host_id="d", vuln_id="b")
        lure_cost = problem.graph.config_cost[config_id("d", "a")]
        assert lure_cost == problem.real_routes[config_id("d", "a")] == problem.real_routes[config_id("d", "b")]
        assert lure_cost < problem.graph.config_cost[config_id("d", "b")]
        assert problem.chain_costs[config_id("d", "b")] <= 2 * problem.baseline_cost
        assert problem.candidates == (lure, dear)
        assert [c.assignment for c in problem.trippable(2)] == [lure]
        trace = simulate_attack(problem.graph)
        assert [it.discovered_fake for it in trace.iterations] == [lure, None]


class TestValueInheritance:
    """PlacementProblem.value inherits a parent's value where Lemma C allows;
    every value must still be the attack's cost on the regenerated graph."""

    @staticmethod
    def _count_simulations(monkeypatch):
        counts = {"simulations": 0}

        def counted(*args, **kwargs):
            counts["simulations"] += 1
            return simulate_attack(*args, **kwargs)

        monkeypatch.setattr(placement_search, "simulate_attack", counted)
        return counts

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_inherited_values_match_regenerated_graphs(self, catalog, monkeypatch):
        counts = self._count_simulations(monkeypatch)
        checked = 0
        for seed in range(20):
            net = small_network(random.Random(9700 + seed), max_hosts=8, catalog=catalog)
            problem = PlacementProblem(net)
            assignments = sorted(problem.candidates)
            for size in range(4):  # parents first
                for combo in combinations(assignments, size):
                    expected = simulate_attack(apply_assignments(net, combo)).total_cost
                    assert problem.value(frozenset(combo)) == expected, f"seed {seed}, {list(combo)}"
                    checked += 1
        assert checked >= 9_000
        assert counts["simulations"] < checked / 2, f"{counts['simulations']} simulations for {checked} sets"

    def test_engines_simulate_less_than_they_evaluate(self, monkeypatch):
        net = generate_network(12, default_catalog(), seed=7)
        counts = self._count_simulations(monkeypatch)
        evaluate = _SearchContext.evaluate

        def counted_evaluate(ctx, assignments):
            counts["evaluations"] += 1
            return evaluate(ctx, assignments)

        monkeypatch.setattr(_SearchContext, "evaluate", counted_evaluate)
        best = (
            Assignment(host_id="h01", vuln_id="CVE-2022-26134"),
            Assignment(host_id="h12", vuln_id="CVE-2020-0601"),
            Assignment(host_id="h12", vuln_id="CVE-2021-34527"),
        )
        for engine, expanded, generated, simulations in ((dfbnb, 285, 505, 186), (astar, 229, 414, 124)):
            counts.update(simulations=0, evaluations=0)
            found = engine(net, budget=3)
            assert (found.best_assignments, found.best_utility) == (best, 2.0)
            assert (found.expanded_nodes, found.generated_nodes) == (expanded, generated)
            assert counts["simulations"] == simulations < counts["evaluations"], f"{engine.__name__}: {counts}"

    def test_exhaustive_simulates_every_subset(self, monkeypatch):
        net = generate_network(12, default_catalog(), seed=7)
        counts = self._count_simulations(monkeypatch)
        res = exhaustive_best(net, budget=2)
        assert counts["simulations"] == res.expanded_nodes == 1 + 33 + 33 * 32 // 2


def test_results_serialize_without_surprises(chain_net):
    import json

    d = dfbnb(chain_net, budget=2).to_dict()
    json.dumps(d)
    assert set(d) == {
        "best_assignments",
        "best_utility",
        "baseline_cost",
        "expanded_nodes",
        "generated_nodes",
        "elapsed_ms",
        "budget_used",
    }

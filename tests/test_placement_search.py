from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import importlib
import json
import pkgutil
import random
from itertools import combinations

import pytest

import decoygraph
from decoygraph import placement_search
from decoygraph.aggraph import apply_assignments, config_id
from decoygraph.attacker import evaluate_placement, simulate_attack
from decoygraph.errors import ConfigurationError, Unreachable
from decoygraph.fixtures import build_h1_counterexample, build_searchspace_k2
from decoygraph.netmodel import (
    EXTERNAL,
    Assignment,
    CvssVersion,
    Goal,
    Host,
    Layer,
    NetworkModel,
    VulnerabilityRecord,
    compatible_vulns,
    default_catalog,
    generate_network,
    normalize_cost,
)
from decoygraph.placement_search import (
    PathIndex,
    PathRecord,
    PlacementProblem,
    _path_ranker,
    _SearchContext,
    astar,
    build_path_index,
    dfbnb,
    enumerate_candidates,
    exhaustive_best,
)
from decoygraph.planner import PlanningState, optimal_plan, plan_with_stats
from helpers import (
    cvss3_catalog,
    dormant_fake_chain,
    eight_candidate_net,
    reference_report,
    small_network,
)
from reference_tree import SearchNode, _rank_by_paths, candidates_of, expand, h1, h2, order_candidates

# networks where a lure's round pays the prefix that wakes a dormant fake (tests/helpers.py)
DORMANT_FAKE_NETS = [pytest.param(dormant_fake_chain(m), id=f"N{m}") for m in (1, 2, 3)]

W1 = Assignment(host_id="h1", vuln_id="w1")
W2 = Assignment(host_id="h2", vuln_id="w2")
W3 = Assignment(host_id="h3", vuln_id="w3")


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
        problem = PlacementProblem(chain_net)
        # the memo's bits and the search root both rely on the sorted order
        assert problem.candidates == tuple(sorted(problem.candidates))
        cands = candidates_of(problem, problem.trippable(3))
        assert [c.assignment for c in cands] == [W1, W2, W3]
        assert [c.singleton_utility for c in cands] == [3.5, 3.5, 3.5]

    def test_compatible_pairs_are_listed_once_per_network(self, monkeypatch):
        # the network's compiled part lists its pairs; problems fold those
        calls = []
        listed = placement_search.compatible_pairs

        def counted(network):
            calls.append(network)
            return listed(network)

        for info in pkgutil.iter_modules(decoygraph.__path__):
            module = importlib.import_module(f"decoygraph.{info.name}")
            if hasattr(module, "compatible_pairs"):
                monkeypatch.setattr(module, "compatible_pairs", counted)
        net = generate_network(12, default_catalog(), seed=7)
        evaluate_placement(net, [Assignment("h01", "CVE-2016-0800")])
        PlacementProblem(net)
        PlacementProblem(net)
        dfbnb(net, budget=2)
        astar(net, budget=2)
        exhaustive_best(net, budget=1)
        assert calls == [net]


def _search_inputs(problem: PlacementProblem) -> str:
    """What the searches read from a problem, as JSON: the candidates, their
    chain costs and real routes, the trippable candidates with their singleton
    utilities for budgets 1 to 3, and the path index of pool size 100."""
    configs = [problem._compiled.fakes[a] for a in problem.candidates]
    return json.dumps(
        {
            "candidates": [a.to_dict() for a in problem.candidates],
            "chain_costs": [problem.chain_costs[c] for c in configs],
            "real_routes": [problem.real_routes[c] for c in configs],
            "trippable": [
                [
                    [c.assignment.to_dict(), c.singleton_utility]
                    for c in candidates_of(problem, problem.trippable(budget))
                ]
                for budget in (1, 2, 3)
            ],
            "paths": [
                [pid, p.cost, [a.to_dict() for a in sorted(p.assignments)]]
                for pid, p in enumerate(problem.path_index(100).paths)
            ],
        }
    )


class TestPinnedSearchInputs:
    """The search inputs of generated networks, pinned to digests recorded
    while the searches ran on a graph with the candidates planted only.

    Every network has compatible pairs that `enumerate_candidates` folds into
    a reachable candidate of the same host and cost. Planting those pairs too
    must leave every search input unchanged.
    """

    @pytest.mark.parametrize(
        "hosts, seed, catalog, counts, digest",
        [
            (12, 7, None, (33, 17), "49301cd5afb69002788d1c3f2016007d27f25a8f05cd2d894bf954978357fc6c"),
            (20, 11, None, (53, 10), "79bee0cd913117ae2600b8cc2693da8efbaeaa944af19a2fc5dbfc6b07615ab5"),
            (30, 1, None, (72, 75), "24627999fdf25f76742e6abc3b25c43b1e90b6453daaf6d9f9ff3454296bb37b"),
            (30, 3, None, (78, 0), "b4d9d40152fec09e3f6156380632db520963a146142350faec0dd2f2519e3ae8"),
            (10, 2, cvss3_catalog(), (28, 100), "45b63d100461dec6c916e235872f1590c18e0c9a73f51ba0543edab20ce97604"),
            (12, 3, cvss3_catalog(), (29, 16), "06ae1d4a0f95d4b437d99427620d0c17bdeb36fe510841a21a7ccea9c1da6fc7"),
            (20, 1, cvss3_catalog(), (50, 64), "56b32ba3e4828cedd53dcd6d3a7a6a7f0ed002f3d9912ad650fc942e499995be"),
            (20, 6, cvss3_catalog(), (37, 5), "6d0e2c9524788c50573cf7a79d8a0e3ea4f2cf3987aa3b90a6a2ab213e49633b"),
        ],
        ids=["12h7", "20h11", "30h1", "30h3", "10h2-cvss3", "12h3-cvss3", "20h1-cvss3", "20h6-cvss3"],
    )
    def test_search_inputs_are_pinned(self, hosts, seed, catalog, counts, digest):
        net = generate_network(hosts, catalog or default_catalog(), seed=seed)
        problem = PlacementProblem(net)
        classes = {(a.host_id, normalize_cost(net.catalog[a.vuln_id])) for a in problem.candidates}
        folded = [
            (host_id, vuln_id)
            for host_id in sorted(net.hosts)
            for vuln_id in compatible_vulns(net.catalog, net.hosts[host_id])
            if Assignment(host_id, vuln_id) not in problem.candidates
            and (host_id, normalize_cost(net.catalog[vuln_id])) in classes
        ]
        assert folded, "no pair duplicates a reachable candidate"
        assert (len(problem.candidates), len(problem.path_index(100).paths)) == counts
        assert hashlib.sha256(_search_inputs(problem).encode()).hexdigest() == digest


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
    problem = PlacementProblem(chain_net)
    return candidates_of(problem, problem.trippable(3))


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

    def test_singletons_add_up_correctly_rounded(self, chain_candidates):
        # left to right, ten 0.1 add up to 0.9999999999999999 before Python
        # 3.12's compensated sum(); the bounds feed the prunes, so they must
        # not depend on the Python version
        remaining = tuple(dataclasses.replace(chain_candidates[0], singleton_utility=0.1) for _ in range(10))
        node = _node((), remaining, 10, 3.0)
        assert h1(node) == 1.0
        assert h2(node) == 4.0

    def test_lure_root_bounds(self, lure_net):
        # the optimistic estimate undershoots the best pair here (20 < 22)
        # while the sound bound stays above it (30 >= 22)
        problem = PlacementProblem(lure_net)
        cands = candidates_of(problem, problem.trippable(2))
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
        idx = build_path_index(PlacementProblem(chain_net))
        node = _node((), chain_candidates, 2, 3.0)
        ordered = order_candidates(node, "shortest-path", index=idx)
        assert [c.assignment for c in ordered] == [W3, W2, W1]

    def test_unknown_mode(self, chain_candidates):
        node = _node((), chain_candidates, 2, 3.0)
        with pytest.raises(ConfigurationError):
            order_candidates(node, "greedy")


class TestPathPool:
    def test_chain_pool_contents(self, chain_net):
        problem = PlacementProblem(chain_net)
        idx = build_path_index(problem)
        assert len(idx.paths) == 7
        costs = [p.cost for p in idx.paths]
        assert costs == sorted(costs)
        assert costs[0] == 1.5
        assert idx.paths[0].assignments == frozenset({W1, W2, W3})
        for p in idx.paths:
            assert p.cost < 3.0
            assert p.assignments and p.assignments <= set(problem.candidates)

    def test_pool_size_keeps_the_cheapest(self, chain_net):
        idx = build_path_index(PlacementProblem(chain_net), pool_size=3)
        assert [p.cost for p in idx.paths] == [1.5, 2.0, 2.0]

    def test_pool_is_deterministic(self, chain_net):
        assert build_path_index(PlacementProblem(chain_net)) == build_path_index(PlacementProblem(chain_net))

    def test_lure_pool_is_a_single_record(self, lure_net):
        idx = build_path_index(PlacementProblem(lure_net))
        assert len(idx.paths) == 1
        assert idx.paths[0].cost == 9.0
        assert {a.host_id for a in idx.paths[0].assignments} == {"f1", "f2"}


def _full_arc_path_index(problem: PlacementProblem, pool_size: int) -> PathIndex:
    """`build_path_index` as it was before it planned inside the corridor: every
    branch plans over all the graph's arcs with a ban set of config ids, and
    reads its plan's configs and fakes by id. It stops at the record that fills the pool."""
    full = problem.graph
    records: list[PathRecord] = []
    seen: set[frozenset[str]] = set()
    heap: list[tuple] = []
    calls = 0
    capped = False
    call_cap = max(placement_search._POOL_CALL_FACTOR * pool_size, 200)

    def push(banned: frozenset[str]) -> None:
        nonlocal calls, capped
        if calls >= call_cap:
            capped = True
            return
        calls += 1
        try:
            plan = optimal_plan(full, banned_configs=banned)
        except Unreachable:
            return
        if plan.cost < problem.baseline_cost:
            heapq.heappush(heap, (plan.cost, calls, banned, plan))

    push(problem.graph.fake_configs() - {config_id(a.host_id, a.vuln_id) for a in problem.candidates})
    while heap and len(records) < pool_size:
        cost, _, banned, plan = heapq.heappop(heap)
        cfgs = frozenset(plan.node_set & full.config_nodes)
        if cfgs in seen:
            continue
        seen.add(cfgs)
        fakes = frozenset(full.provenance[c] for c in cfgs if full.fake_flag.get(c, False))
        if fakes:
            records.append(PathRecord(cost=cost, assignments=fakes))
            if len(records) == pool_size:
                break
        for c in sorted(cfgs):
            push(banned | {c})
    return PathIndex(paths=tuple(records), planner_calls=calls, capped=capped)


def _index_fields(index: PathIndex) -> tuple:
    """Everything an index holds, costs as their bits."""
    return (
        [(pid, p.cost.hex(), sorted(p.assignments)) for pid, p in enumerate(index.paths)],
        index.planner_calls,
        index.capped,
    )


class TestCorridorPathIndex:
    """`build_path_index` plans inside the empty set's corridor (Lemma H); the
    full-arc, id-keyed build above is its reference."""

    NETWORKS = [(hosts, seed) for hosts in (8, 12, 16, 20, 30) for seed in range(3)] + [(60, 1), (200, 1)]

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_equals_the_full_arc_index(self, catalog):
        filled = paths = 0
        for hosts, seed in self.NETWORKS:
            net = generate_network(hosts, catalog or default_catalog(), seed=seed)
            for pool_size in (1, 5, 100):
                index = build_path_index(PlacementProblem(net), pool_size)
                reference = _full_arc_path_index(PlacementProblem(net), pool_size)
                assert _index_fields(index) == _index_fields(reference), (hosts, seed, pool_size)
                assert not index.capped
                filled += len(index.paths) == pool_size
                paths += len(index.paths)
        # the pools fill at every size somewhere, so the cut at pool_size is exercised
        assert filled >= 3 and paths >= 100, (filled, paths)

    def test_every_call_plans_inside_the_corridor(self, monkeypatch):
        net = generate_network(30, default_catalog(), seed=1)
        problem = PlacementProblem(net)
        arcs = []

        def recording_plan(graph, state=None):
            arcs.append(state.arcs)
            return plan_with_stats(graph, state)

        monkeypatch.setattr(placement_search, "plan_with_stats", recording_plan)
        index = build_path_index(problem, 100)
        corridor = problem._corridor(0)
        assert len(arcs) == index.planner_calls > 100
        assert all(a is corridor for a in arcs)
        assert sum(map(len, corridor)) < sum(map(len, problem.graph.indexed.arcs)) / 2

    def test_a_capped_build_equals_the_full_arc_one(self, monkeypatch):
        # 10h/2's CVSS v3 pool fills at 100 paths uncapped; one call per unit of
        # pool size leaves the floor of 200 calls, which cuts it short
        net = generate_network(10, cvss3_catalog(), seed=2)
        uncapped = build_path_index(PlacementProblem(net), 100)
        # a pool of 67 fills at call 199, and the build stops there, planning no branch of its last path
        filled = build_path_index(PlacementProblem(net), 67)
        assert (len(uncapped.paths), filled.planner_calls) == (100, 199)
        monkeypatch.setattr(placement_search, "_POOL_CALL_FACTOR", 1)
        index = build_path_index(PlacementProblem(net), 100)
        assert _index_fields(index) == _index_fields(_full_arc_path_index(PlacementProblem(net), 100))
        assert index.capped and index.planner_calls == 200 and len(index.paths) < 100
        # a pool that fills under the cap is not cut short
        late = build_path_index(PlacementProblem(net), 67)
        assert _index_fields(late) == _index_fields(_full_arc_path_index(PlacementProblem(net), 67))
        assert late.paths == filled.paths
        assert not late.capped and late.planner_calls == 199


def _rank_as_reference(problem, index, remaining, chosen, budget):
    return [c.assignment for c in _rank_by_paths(index, remaining, chosen, budget)]


def _rank_as_engines(problem, index, remaining, chosen, budget):
    """`_path_ranker` on the candidates' indices in `problem`, mapped back to assignments."""
    position = {a: i for i, a in enumerate(problem.candidates)}
    singletons = [0.0] * len(position)
    for c in remaining:
        singletons[position[c.assignment]] = c.singleton_utility
    ranked = _path_ranker(index, problem, singletons, budget)(
        tuple(position[c.assignment] for c in remaining), problem._mask(chosen)
    )
    return [problem.candidates[i] for i in ranked]


@pytest.mark.parametrize("rank", [_rank_as_reference, _rank_as_engines], ids=["reference", "engines"])
class TestRanking:
    """The reference ranker and the engines' ranker on the same hand-derived orders."""

    def test_singleton_paths_rank_first_at_the_root(self, chain_net, chain_candidates, rank):
        problem = PlacementProblem(chain_net)
        ranked = rank(problem, build_path_index(problem), chain_candidates, frozenset(), 2)
        # each lure closes a one-assignment path; ties break on cost then id
        assert ranked == [W3, W2, W1]

    def test_partial_choice_prefers_path_completion(self, chain_net, chain_candidates, rank):
        problem = PlacementProblem(chain_net)
        ranked = rank(problem, build_path_index(problem), chain_candidates[1:], frozenset({W1}), 2)
        assert ranked == [W3, W2]

    def test_off_pool_candidates_fall_back_to_utility(self, chain_net, chain_candidates, rank):
        problem = PlacementProblem(chain_net)
        # only the all-three path survives; no candidate fits one open slot
        index = build_path_index(problem, pool_size=1)
        assert rank(problem, index, chain_candidates[1:], frozenset({W1}), 2) == [W2, W3]
        bumped = (chain_candidates[1], dataclasses.replace(chain_candidates[2], singleton_utility=9.0))
        assert rank(problem, index, bumped, frozenset({W1}), 2) == [W3, W2]


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


def _criterion_4_cases():
    """The instances of tests/test_acceptance.py's criterion 4, as (network, budget) parameters."""
    cases = [
        ("two-lure", build_h1_counterexample(), 2),
        ("three-chain K2", build_searchspace_k2(), 2),
        ("three-chain K3", build_searchspace_k2(), 3),
        ("eight-candidate", eight_candidate_net(), 3),
        ("v3 random-10", small_network(random.Random(10), max_hosts=5, catalog=cvss3_catalog()), 3),
        ("N1", dormant_fake_chain(1), 2),
        ("N2", dormant_fake_chain(2), 3),
        ("N3", dormant_fake_chain(3), 4),
    ]
    for seed in (0, 1, 2, 4):
        net = small_network(random.Random(seed), max_hosts=4)
        if len(enumerate_candidates(net)) <= 8:
            cases.append((f"random-{seed}", net, 3))
    return [pytest.param(net, budget, id=name) for name, net, budget in cases]


class TestEngineTree:
    """The engines walk the decision tree on candidate indices and bitmasks
    (`_SearchContext`); `expand`, `h1`, `h2` and `order_candidates` build the
    same tree from `SearchNode`s, and criterion 4 checks that h2 is sound on it. Walked
    without pruning, the two must agree node for node."""

    @staticmethod
    def _walk(net, budget, trippable, ordering, heuristic, problems):
        engine_problem, reference_problem = problems
        ctx = _SearchContext(net, budget, ordering, heuristic, 3, 100, engine_problem)
        if trippable:
            root = ctx.root()
            indices = reference_problem.trippable(min(budget, len(reference_problem.candidates)))
        else:
            indices = range(len(reference_problem.candidates))
            root = ctx.root_over(tuple(indices))
        candidates = candidates_of(reference_problem, indices)
        budget = min(budget, len(candidates))
        assert ctx.budget == budget
        heuristic_fn = h1 if heuristic == "h1" else h2
        index = reorder = None
        if ordering == "shortest_path":
            index = reference_problem.path_index(100)
            reorder = lambda remaining, chosen: _rank_by_paths(index, remaining, frozenset(chosen), budget)
        root_value, baseline = reference_problem.value(frozenset()), reference_problem.baseline_cost
        bare = SearchNode((), candidates, root_value, 0.0, budget, baseline)
        bare = dataclasses.replace(bare, remaining=order_candidates(bare, ordering, index=index, seed=3))
        reference_root = dataclasses.replace(bare, heuristic=heuristic_fn(bare))

        names = engine_problem.candidates
        pairs = [(root, reference_root)]
        while pairs:
            node, reference = pairs.pop()
            f, mask, count, open_, utility = node
            chosen = tuple(a for i, a in enumerate(names) if mask >> i & 1)
            where = f"at {list(reference.chosen)}"
            assert (chosen, count) == (reference.chosen, len(reference.chosen)), where
            assert [names[i] for i in open_] == [c.assignment for c in reference.remaining], where
            assert utility == reference.utility, where
            assert f.hex() == reference.f.hex(), where
            references = expand(reference, reference_problem.value, heuristic_fn, reorder)
            if count >= ctx.budget or not open_:
                assert references == (None, None), where
                continue
            for child, reference_child in zip(ctx.children(node), references):
                assert (child is None) == (reference_child is None), where
                if child is not None:
                    pairs.append((child, reference_child))

    @pytest.mark.parametrize("net, budget", _criterion_4_cases())
    def test_engine_tree_is_the_reference_tree(self, net, budget):
        problems = (PlacementProblem(net), PlacementProblem(net))
        for trippable in (False, True):
            for ordering in ("utility", "shortest_path", "random"):
                for heuristic in ("h1", "h2"):
                    self._walk(net, budget, trippable, ordering, heuristic, problems)


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
        assert idx == build_path_index(PlacementProblem(chain_net))

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
        # a placement may still plant there
        placement = [Assignment("h4", compatible_vulns(net.catalog, isolated)[0]), W1]
        assert evaluate_placement(net, placement).total_cost == reference_report(net, placement).total_cost == 3.5

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


def _pairs(*pairs):
    return tuple(Assignment(host_id, vuln_id) for host_id, vuln_id in pairs)


class TestPinnedTreeShapes:
    """Both engines under every ordering and heuristic, pinned: the best set,
    its utility and the expanded and generated counts. A tree that branches
    in another order or bounds a node differently expands another number of
    nodes, so it fails here even where it still finds the optimum."""

    # (expanded, generated) per engine (dfbnb, astar), per ordering (utility,
    # shortest-path, random with seed 3), per heuristic (h1, h2), in that nesting
    @pytest.mark.parametrize(
        "hosts, seed, catalog, budget, best, utility, shapes",
        [
            (12, 7, None, 2, _pairs(("h12", "CVE-2020-0601"), ("h12", "CVE-2021-34527")), 1.875, [(77, 143)] * 12),
            (
                12, 7, None, 3,
                _pairs(("h01", "CVE-2022-26134"), ("h12", "CVE-2020-0601"), ("h12", "CVE-2021-34527")),
                2.0,
                [
                    (229, 414), (285, 505), (229, 414), (285, 505), (250, 450), (285, 505),
                    (229, 414), (229, 414), (229, 414), (230, 416), (229, 414), (235, 425),
                ],
            ),
            (20, 11, None, 2, _pairs(("h02", "CVE-2020-0601"), ("h02", "CVE-2021-34527")), 2.0, [(35, 63)] * 12),
            (
                20, 11, None, 3,
                _pairs(("h02", "CVE-2020-0601"), ("h02", "CVE-2021-34527"), ("h20", "CVE-2021-44228")),
                2.25,
                [
                    (79, 134), (83, 139), (79, 134), (83, 139), (83, 139), (83, 139),
                    (79, 134), (79, 134), (79, 134), (80, 136), (83, 139), (83, 139),
                ],
            ),
            (
                16, 3, cvss3_catalog(), 2,
                _pairs(("h04", "CVE-2016-0800"), ("h16", "CVE-2017-0144")),
                1.5641025641025643,
                [(135, 255)] * 12,
            ),
            (
                16, 3, cvss3_catalog(), 3,
                _pairs(("h04", "CVE-2016-0800"), ("h06", "CVE-2021-26855"), ("h16", "CVE-2017-0144")),
                1.871794871794872,
                [
                    (539, 1001), (679, 1239), (623, 1148), (679, 1239), (616, 1155), (679, 1239),
                    (539, 1001), (539, 1001), (546, 1015), (546, 1015), (616, 1155), (616, 1155),
                ],
            ),
        ],
        ids=["12h7-K2", "12h7-K3", "20h11-K2", "20h11-K3", "16h3-cvss3-K2", "16h3-cvss3-K3"],
    )
    def test_tree_shapes_are_pinned(self, hosts, seed, catalog, budget, best, utility, shapes):
        net = generate_network(hosts, catalog or default_catalog(), seed=seed)
        problem = PlacementProblem(net)
        found = []
        for engine in (dfbnb, astar):
            for ordering in ("utility", "shortest-path", "random"):
                for heuristic in ("h1", "h2"):
                    res = engine(net, budget=budget, ordering=ordering, heuristic=heuristic, seed=3, problem=problem)
                    where = f"{engine.__name__} {ordering} {heuristic}"
                    assert (res.best_assignments, res.best_utility) == (best, utility), where
                    found.append((res.expanded_nodes, res.generated_nodes))
        assert found == shapes


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


class TestDormantFakeNetworks:
    """N1, N2 and N3: paying a lure's prefix makes a dormant fake's path the cheapest, so
    adding the lure gains more than min(b, hr(a)) on N1, and more than b on N2 and N3."""

    @pytest.mark.parametrize(
        "net, dormant, alone, with_lure",
        [
            pytest.param(dormant_fake_chain(1), {("x", "x")}, 1.0, 1.75, id="N1"),
            pytest.param(dormant_fake_chain(2), {("x", "x"), ("y", "x2")}, 1.0, 2.35, id="N2"),
            pytest.param(dormant_fake_chain(3), {("x", "x"), ("y", "x2"), ("z", "x3")}, 1.0, 2.95, id="N3"),
        ],
    )
    def test_recorded_values(self, net, dormant, alone, with_lure):
        lure = Assignment("d", "a")
        dormant = frozenset(Assignment(*pair) for pair in dormant)
        attacked = [simulate_attack(apply_assignments(net, s)).total_cost for s in (dormant, dormant | {lure})]
        assert attacked == [alone, with_lure]
        problem = PlacementProblem(net)
        assert problem.baseline_cost == 1.0 and problem.candidates == tuple(sorted(dormant | {lure}))
        assert [problem.value(dormant), problem.value(dormant | {lure})] == attacked
        assert with_lure - alone > min(problem.baseline_cost, problem.real_routes[problem._compiled.fakes[lure]])


class TestTrippableFilter:
    """dfbnb and astar search only the candidates a budget can trip; the
    lemmas in the PlacementProblem docstring say that loses nothing."""

    @staticmethod
    def _check_subsets(net, where):
        """(subsets checked, candidates dropped) over budgets 1 to 3."""
        checked = dropped = 0
        problem = PlacementProblem(net)
        assignments = sorted(problem.candidates)
        for budget in (1, 2, 3):
            kept = {problem.candidates[i] for i in problem.trippable(budget)}
            dropped += len(assignments) - len(kept)
            for size in range(budget + 1):
                for combo in combinations(assignments, size):
                    subset = frozenset(combo)
                    banned = problem.graph.fake_configs() - {config_id(a.host_id, a.vuln_id) for a in subset}
                    trace = simulate_attack(problem.graph, PlanningState.of(problem.graph, banned_configs=banned))
                    tripped = {it.discovered_fake for it in trace.iterations} - {None}
                    assert tripped <= kept, f"{where}, K={budget}, {sorted(subset)}"
                    assert problem.value(subset) == problem.value(subset & kept), f"{where}, K={budget}"
                    checked += 1
        return checked, dropped

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_dropped_candidates_never_change_a_value(self, catalog):
        # For every subset S of size at most K: each fake the attacker trips
        # is kept at K (Lemma A), and S is worth what its kept part is worth
        # (Lemmas A and B together).
        checked = dropped = 0
        for seed in range(20):
            net = small_network(random.Random(9300 + seed), max_hosts=8, catalog=catalog)
            counts = self._check_subsets(net, f"seed {seed}")
            checked, dropped = checked + counts[0], dropped + counts[1]
        assert checked >= 10_000
        assert dropped >= 250

    @pytest.mark.parametrize("net", DORMANT_FAKE_NETS)
    def test_dormant_fake_networks(self, net):
        assert self._check_subsets(net, "dormant")[0]

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
        chain = problem.chain_costs[problem._compiled.fakes[lure]]
        assert (chain > 2 * problem.baseline_cost) == reads_high
        assert chain == pytest.approx(2 * problem.baseline_cost)
        assert [problem.candidates[i] for i in problem.trippable(2)] == [lure]
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
                kept = {problem.candidates[i] for i in problem.trippable(budget)}
                by_route += sum(
                    1
                    for a in assignments
                    if a not in kept
                    and problem.chain_costs[problem._compiled.fakes[a]] <= budget * problem.baseline_cost
                )
                for size in range(budget + 1):
                    for combo in combinations(assignments, size):
                        subset = frozenset(combo)
                        banned = problem.graph.fake_configs() - {config_id(a.host_id, a.vuln_id) for a in subset}
                        trace = simulate_attack(problem.graph, PlanningState.of(problem.graph, banned_configs=banned))
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
        fakes = problem._compiled.fakes
        assert lure_cost == problem.real_routes[fakes[lure]] == problem.real_routes[fakes[dear]]
        assert lure_cost < problem.graph.config_cost[config_id("d", "b")]
        assert problem.chain_costs[fakes[dear]] <= 2 * problem.baseline_cost
        assert problem.candidates == (lure, dear)
        assert [problem.candidates[i] for i in problem.trippable(2)] == [lure]
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

    @staticmethod
    def _check_values(net, where):
        """Value every set of at most 3 candidates, parents first; the number of sets checked."""
        checked = 0
        problem = PlacementProblem(net)
        assignments = sorted(problem.candidates)
        for size in range(4):
            for combo in combinations(assignments, size):
                expected = simulate_attack(apply_assignments(net, combo)).total_cost
                assert problem.value(frozenset(combo)) == expected, f"{where}, {list(combo)}"
                checked += 1
        return checked

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_inherited_values_match_regenerated_graphs(self, catalog, monkeypatch):
        counts = self._count_simulations(monkeypatch)
        checked = 0
        for seed in range(20):
            net = small_network(random.Random(9700 + seed), max_hosts=8, catalog=catalog)
            checked += self._check_values(net, f"seed {seed}")
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
        for engine, expanded, generated, simulations in ((dfbnb, 285, 505, 111), (astar, 229, 414, 115)):
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

    @pytest.mark.parametrize("net", DORMANT_FAKE_NETS)
    def test_dormant_fake_networks(self, net):
        assert self._check_values(net, "dormant")


class TestTailReuse:
    """Lemma F: after a round that trips its fake at the first step, the rest
    of the attack is the attack on the set without that fake, so
    PlacementProblem.value memoizes that set from the trace."""

    @staticmethod
    def _check_tails(net, where, counts):
        """(sets checked, tails taken, tails harvested) over the sets of at most 3 candidates, largest first."""
        checked = tails = harvested = 0
        problem = PlacementProblem(net)
        face = problem.graph.config_cost

        def attack(subset):
            banned = problem.graph.fake_configs() - {config_id(a.host_id, a.vuln_id) for a in subset}
            return simulate_attack(problem.graph, PlanningState.of(problem.graph, banned_configs=banned))

        assignments = sorted(problem.candidates)
        for size in (3, 2, 1, 0):
            for combo in combinations(assignments, size):
                subset = frozenset(combo)
                before = counts["simulations"]
                problem.value(subset)
                simulated = counts["simulations"] > before
                rounds = attack(subset).iterations
                for i, it in enumerate(rounds[:-1]):
                    if it.zeroed_configs:
                        break
                    subset -= {it.discovered_fake}
                    tail = attack(subset)
                    assert tail.iterations == rounds[i + 1 :], f"{where}, {sorted(combo)}, round {i + 1}"
                    total = 0.0
                    for later in rounds[i + 1 :]:
                        total += later.paid_prefix_cost
                    assert tail.total_cost == total
                    assert placement_search._reach(tail.iterations, face) == placement_search._reach(
                        rounds[i + 1 :], face
                    )
                    tails += 1
                    if simulated:
                        before = counts["simulations"]
                        expected = simulate_attack(apply_assignments(net, subset)).total_cost
                        assert problem.value(subset) == expected, f"{where}, {sorted(subset)}"
                        assert counts["simulations"] == before, "a harvested tail was simulated"
                        harvested += 1
                checked += 1
        return checked, tails, harvested

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_tails_are_the_smaller_sets_attacks(self, catalog, monkeypatch):
        # For every subset S of at most 3 candidates and every tail the rule
        # takes from S's attack, a fresh simulation of the smaller set plays
        # S's remaining rounds. Sets are valued largest first, so a smaller
        # set is asked for only after the tails of the larger ones are taken;
        # each tail of a simulated set must then be memoized, and worth the
        # attack's cost on the regenerated graph.
        counts = TestValueInheritance._count_simulations(monkeypatch)
        checked = tails = harvested = 0
        for seed in range(40):
            net = small_network(random.Random(9900 + seed), max_hosts=8, catalog=catalog)
            found = self._check_tails(net, f"seed {seed}", counts)
            checked, tails, harvested = checked + found[0], tails + found[1], harvested + found[2]
        assert checked >= 15_000
        assert tails >= 2_000
        assert harvested >= 1_500

    @pytest.mark.parametrize("net", DORMANT_FAKE_NETS)
    def test_dormant_fake_networks(self, net, monkeypatch):
        assert self._check_tails(net, "dormant", TestValueInheritance._count_simulations(monkeypatch))[0]


class TestCorridor:
    """Lemma G: a search simulation of k fakes plans only over the privileges
    p with head(p) + tail(p) <= (k+1)*b, and every round plans the chain it
    plans over all the arcs."""

    @staticmethod
    def _check_corridor(net, where):
        """(sets checked, sets whose planner expanded fewer states) over the sets of at most 3 candidates."""
        checked = pruned = 0
        problem = PlacementProblem(net)
        face_cost = problem.graph.config_cost
        for size in range(4):
            for combo in combinations(problem.candidates, size):
                fakes = [problem._configs[problem._members[a]] for a in combo]
                full = simulate_attack(problem.graph, problem._state(fakes))
                inside = simulate_attack(problem.graph, problem._state(fakes, size))
                at = f"{where}, {sorted(combo)}"
                assert inside.iterations == full.iterations, at
                assert inside.total_cost == full.total_cost, at
                reach = placement_search._reach(inside.iterations, face_cost)
                assert reach == placement_search._reach(full.iterations, face_cost), at
                assert inside.planning_effort.expanded_states <= full.planning_effort.expanded_states, at
                pruned += inside.planning_effort.expanded_states < full.planning_effort.expanded_states
                checked += 1
        return checked, pruned

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_corridor_simulations_match_full_ones(self, catalog):
        # For every subset S of at most 3 candidates, the simulation `value`
        # runs on S's corridor plays the rounds, total and reach of the one
        # over every arc; only the planner's expanded states may fall.
        checked = pruned = 0
        for seed in range(40):
            net = small_network(random.Random(9700 + seed), max_hosts=8, catalog=catalog)
            found = self._check_corridor(net, f"seed {seed}")
            checked, pruned = checked + found[0], pruned + found[1]
        assert checked >= 15_000
        assert pruned >= checked // 2

    @pytest.mark.parametrize("net", DORMANT_FAKE_NETS)
    def test_dormant_fake_networks(self, net):
        assert self._check_corridor(net, "dormant")[0]

    def test_a_later_round_can_plan_beyond_b(self):
        # The lure w on f sits behind a: round 1 pays a and trips w, then
        # round 2 goes on from a, now free, through c, whose cheapest chain
        # (entry, a, c, t) costs 0.8 against b = 0.65 (the real route via e).
        # So the corridor of one fake must reach past b, as Lemma G allows.
        catalog = {
            "w": _vuln("w", "os-f", 1.0),
            **{f"r{h}": _vuln(f"r{h}", f"os-{h}", s) for h, s in (("a", 4.0), ("c", 3.0), ("e", 5.5), ("t", 1.0))},
        }
        hosts = {
            "a": Host(host_id="a", os="os-a", installed_vulns=frozenset({"ra"}), layer=Layer.DMZ),
            "e": Host(host_id="e", os="os-e", installed_vulns=frozenset({"re"}), layer=Layer.DMZ),
            "f": Host(host_id="f", os="os-f", layer=Layer.INTERNAL),
            "c": Host(host_id="c", os="os-c", installed_vulns=frozenset({"rc"}), layer=Layer.INTERNAL),
            "t": Host(host_id="t", os="os-t", installed_vulns=frozenset({"rt"}), layer=Layer.SECURED),
        }
        edges = {(EXTERNAL, "a"), (EXTERNAL, "e"), ("a", "f"), ("a", "c"), ("f", "t"), ("c", "t"), ("e", "t")}
        net = NetworkModel(
            hosts=hosts, reachability=frozenset(edges), attacker_entry=EXTERNAL, goal=Goal(host_id="t"), catalog=catalog
        )
        problem = PlacementProblem(net)
        lure = Assignment(host_id="f", vuln_id="w")
        assert problem.candidates == (lure,)
        c = problem.graph.indexed.privileges.index("p|h:c")
        assert problem.baseline_cost == pytest.approx(0.65)
        assert problem._through[c] == pytest.approx(0.8)
        trace = simulate_attack(apply_assignments(net, [lure]))
        assert [it.discovered_fake for it in trace.iterations] == [lure, None]
        assert "p|h:c" in trace.iterations[1].plan.node_set
        assert problem.value(frozenset({lure})) == trace.total_cost == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "subscores, reads_high",
        [((5.0, 2.5, 2.5), False), ((1.0, 0.1, 0.9), True)],
        ids=["exact", "one-ulp-high"],
    )
    def test_privilege_on_the_limit_is_kept(self, subscores, reads_high):
        # The dead-end host d of _boundary_net has head(d) = cost(w) = b and
        # tail(d) = b, so head(d) + tail(d) = 2b, which reads one ulp above
        # 2b with 0.01 + 0.09 and 0.1. The slack keeps d in the corridor of
        # one fake, with the lure's arc into it and the real arc out of it;
        # the corridor of no fakes drops both.
        problem = PlacementProblem(_boundary_net(*subscores))
        view = problem.graph.indexed
        d = view.privileges.index("p|h:d")
        lure = problem._compiled.fakes[Assignment("d", "w")]
        assert (problem._through[d] > 2 * problem.baseline_cost) == reads_high
        assert problem._through[d] == pytest.approx(2 * problem.baseline_cost)
        lure_arcs = [(p, arc) for p, arcs in enumerate(view.arcs) for arc in arcs if arc[1] == lure]
        assert lure_arcs and all(q == d for _, (_, _, q) in lure_arcs)
        corridor = problem._corridor(1)
        assert corridor[d] == view.arcs[d] != ()
        assert all(arc in corridor[p] for p, arc in lure_arcs)
        corridor = problem._corridor(0)
        assert corridor[d] == ()
        assert not any(arc in corridor[p] for p, arc in lure_arcs)

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_a_set_is_planted_by_ban_flags_alone(self, catalog):
        # Every simulation of a problem scans one fixed arc list: the view's
        # own, or a corridor of the view's arcs of real configs and
        # candidates in the view's order. Planting a set only clears its
        # fakes' ban flags, so a state bans exactly the fakes outside it.
        checked = folded = 0
        for seed in range(20):
            net = small_network(random.Random(9900 + seed), max_hosts=8, catalog=catalog)
            problem = PlacementProblem(net)
            view = problem.graph.indexed
            numbers = [problem._compiled.fakes[a] for a in problem.candidates]
            folded += any(view.fake[c] and c not in numbers for arcs in view.arcs for _, c, _ in arcs)
            for size in range(4):
                corridor = problem._corridor(size)
                assert len(corridor) == len(view.arcs)
                for arcs, full in zip(corridor, view.arcs):
                    assert all(not view.fake[c] or c in numbers for _, c, _ in arcs)
                    assert [arc for arc in full if arc in arcs] == list(arcs)
                for combo in combinations(numbers, size):
                    expected = [fake and c not in combo for c, fake in enumerate(view.fake)]
                    for state in (problem._state(combo), problem._state(combo, size)):
                        assert list(map(bool, state.banned)) == expected
                        assert state.costs == list(view.cost)
                    assert problem._state(combo).arcs is view.arcs
                    assert problem._state(combo, size).arcs is corridor
                    checked += 1
            assert bytes(problem._state(()).banned) == bytes(view.fake)
        assert checked >= 5_000
        assert folded >= 10, "too few networks have folded pairs for the corridor to leave out"

    @pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])
    def test_each_exploit_grants_one_privilege(self, catalog):
        # Lemmas D and G assume it: every exploit of the compiled graph
        # appears in exactly one arc, so it requires one privilege and grants
        # one, and all exploits of a config grant the same privilege, so a
        # chain pays each config once. A generator that breaks this must
        # fail here.
        networks = [small_network(random.Random(9800 + seed), catalog=catalog) for seed in range(20)]
        networks += [generate_network(hosts, catalog or default_catalog(), seed) for hosts, seed in ((20, 11), (60, 1))]
        for net in networks:
            view = PlacementProblem(net).graph.indexed
            exploits = sorted(e for arcs in view.arcs for e, _, _ in arcs)
            assert exploits == list(range(len(view.exploits)))
            grants: dict[int, set[int]] = {}
            for arcs in view.arcs:
                for _, c, q in arcs:
                    grants.setdefault(c, set()).add(q)
            assert all(len(privileges) == 1 for privileges in grants.values())


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

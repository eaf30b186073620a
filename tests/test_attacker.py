from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import weakref
from itertools import combinations

import pytest

from decoygraph import attacker
from decoygraph.aggraph import AttackGraph, apply_assignments, build_attack_graph, config_id
from decoygraph.attacker import evaluate_placement, simulate_attack
from decoygraph.errors import Unreachable, ValidationError
from decoygraph import placement_search
from decoygraph.netmodel import Assignment, Host, compatible_pairs, compatible_vulns, default_catalog, generate_network
from decoygraph.placement_random import draw_budget_placement, draw_placement, random_placement
from decoygraph.placement_search import (
    PlacementProblem,
    astar,
    build_path_index,
    dfbnb,
    enumerate_candidates,
    exhaustive_best,
)
from decoygraph.planner import PlanningState, optimal_cost, optimal_plan, plan_with_stats
from helpers import cut_network, cvss3_catalog, memo_networks, reference_report, small_network

CATALOGS = pytest.mark.parametrize("catalog", [None, cvss3_catalog()], ids=["dyadic", "cvss3"])

H1_FAKES = (
    Assignment(host_id="f1", vuln_id="fv-1"),
    Assignment(host_id="f2", vuln_id="fv-2"),
)
CHAIN_FAKES = (
    Assignment(host_id="h1", vuln_id="w1"),
    Assignment(host_id="h2", vuln_id="w2"),
    Assignment(host_id="h3", vuln_id="w3"),
)


class TestLureTrace:
    """The two-lure network drives the attacker through both dead ends."""

    @pytest.fixture(autouse=True)
    def _trace(self, lure_net):
        self.net = lure_net
        self.trace = simulate_attack(apply_assignments(lure_net, H1_FAKES))

    def test_payment_sequence(self):
        paid = tuple(it.paid_prefix_cost for it in self.trace.iterations)
        assert paid == (6.0, 7.0, 9.0)
        assert self.trace.total_cost == 22.0
        assert self.trace.recalculations == 3

    def test_discovery_order(self):
        found = [it.discovered_fake for it in self.trace.iterations]
        assert found[0] == Assignment(host_id="f1", vuln_id="fv-1")
        assert found[1] == Assignment(host_id="f2", vuln_id="fv-2")
        assert found[2] is None

    def test_zeroed_configs_grow_along_the_paid_ground(self):
        first, second, last = (it.zeroed_configs for it in self.trace.iterations)
        assert len(first) == 5
        assert all("|h:b0" in c for c in first)
        assert first < second
        assert sum(1 for c in second if "|h:c0" in c) == 6
        assert last == frozenset()

    def test_final_plan_avoids_fakes(self):
        last = self.trace.iterations[-1].plan
        graph = apply_assignments(self.net, H1_FAKES)
        assert not any(graph.fake_flag.get(n, False) for n in last.node_set)

    def test_trace_serializes(self):
        blob = json.dumps(self.trace.to_dict())
        assert '"total_cost": 22.0' in blob


class TestLureReport:
    def test_metrics(self, lure_net):
        rep = evaluate_placement(lure_net, H1_FAKES)
        assert rep.baseline_cost == 10.0
        assert rep.total_cost == 22.0
        assert rep.p1 == 3
        assert rep.p3 == 2.2
        assert rep.p4 == 1.0
        assert not rep.p4_by_convention
        assert rep.n_assignments == 2

    def test_report_serializes_planner_stats(self, lure_net):
        d = evaluate_placement(lure_net, H1_FAKES).to_dict()
        assert "p2_states" in d and "p2_ms" in d
        json.dumps(d)


class TestChainUtilities:
    def test_all_singletons(self, chain_net):
        for a in CHAIN_FAKES:
            assert evaluate_placement(chain_net, [a]).total_cost == 3.5

    def test_all_pairs(self, chain_net):
        for pair in combinations(CHAIN_FAKES, 2):
            assert evaluate_placement(chain_net, pair).total_cost == 4.0


class TestConventions:
    def test_empty_placement(self, chain_net):
        rep = evaluate_placement(chain_net, [])
        assert rep.p1 == 1
        assert rep.p3 == 1.0
        assert rep.p4 == 1.0
        assert rep.p4_by_convention
        assert rep.n_assignments == 0
        assert rep.total_cost == rep.baseline_cost == 3.0

    def test_duplicate_assignments_collapse(self, chain_net):
        a = CHAIN_FAKES[0]
        rep = evaluate_placement(chain_net, [a, a, a])
        assert rep.n_assignments == 1
        assert rep.total_cost == 3.5

    def test_invalid_assignment_rejected(self, chain_net):
        bogus = Assignment(host_id="h1", vuln_id="rv-hi")
        with pytest.raises(ValidationError):
            evaluate_placement(chain_net, [bogus])


class TestUnreachable:
    def test_goal_behind_fake_only(self):
        # the only config feeding the goal is a planted one; once the
        # attacker trips it and bans it, nothing derives the goal
        fake = Assignment(host_id="x", vuln_id="w")
        g = AttackGraph(
            privilege_nodes=frozenset({"p0", "p1"}),
            exploit_nodes=frozenset({"e1"}),
            config_nodes=frozenset({"cf"}),
            edges=frozenset({("p1", "e1"), ("e1", "p0"), ("e1", "cf")}),
            goal="p1",
            source="p0",
            config_cost={"cf": 0.5},
            fake_flag={"cf": True},
            provenance={"cf": fake},
        )
        with pytest.raises(Unreachable):
            simulate_attack(g)


class TestFakeFreeIdentity:
    def test_fixture_graphs(self, lure_graph, chain_graph):
        for g in (lure_graph, chain_graph):
            tr = simulate_attack(g)
            assert tr.recalculations == 1
            assert tr.total_cost == optimal_cost(g)
            assert tr.iterations[0].discovered_fake is None

    def test_random_networks(self):
        for seed in range(25):
            rng = random.Random(seed)
            net = small_network(rng)
            g = build_attack_graph(net)
            tr = simulate_attack(g)
            assert tr.total_cost == optimal_cost(g)
            assert tr.recalculations == 1


class TestBounds:
    """Cost inflation laws over seeded random placements."""

    def test_lemma_battery(self):
        checked = 0
        for seed in range(60):
            rng = random.Random(1000 + seed)
            net = small_network(rng)
            base = optimal_cost(build_attack_graph(net))
            fakes, decorated = random_placement(net, 0.5, seed=seed)
            tr = simulate_attack(decorated)
            n = len(fakes)
            assert base <= tr.total_cost <= (n + 1) * base, f"seed {seed}"
            assert tr.recalculations <= n + 1
            assert tr.total_cost == sum(
                it.paid_prefix_cost for it in tr.iterations
            )
            checked += 1
        assert checked == 60

    def test_single_fake_never_helps_the_attacker(self, chain_net, lure_net):
        from decoygraph.netmodel import compatible_vulns

        for net in (chain_net, lure_net):
            base = evaluate_placement(net, []).total_cost
            for host in sorted(net.hosts):
                for vuln_id in compatible_vulns(net.catalog, net.hosts[host]):
                    one = Assignment(host_id=host, vuln_id=vuln_id)
                    assert evaluate_placement(net, [one]).total_cost >= base


class TestCaching:
    def test_replay_is_semantically_identical(self, chain_net):
        a = evaluate_placement(chain_net, CHAIN_FAKES[:2])
        b = evaluate_placement(chain_net, CHAIN_FAKES[:2])
        assert a.trace.iterations == b.trace.iterations
        assert a.total_cost == b.total_cost
        assert a.p1 == b.p1


def test_simulation_reads_only_the_plans_steps():
    """Each round walks its plan's step configs, so a generated graph derives
    no string-keyed adjacency while it is attacked, fakes tripped or not."""
    replanned = 0
    for seed in range(20):
        net = small_network(random.Random(9000 + seed))
        _, graph = random_placement(net, 1.0, seed=seed)
        trace = simulate_attack(graph)
        assert not {"requirements", "grants", "edges"} & graph.__dict__.keys(), f"seed {seed}"
        replanned += trace.recalculations > 1
    assert replanned >= 5


class TestBanSetOracle:
    """Evaluation by ban set on one graph against graphs regenerated from the
    network with exactly the planted fakes, which stay the reference."""

    @CATALOGS
    def test_search_utilities_match_regenerated_graphs(self, catalog):
        checked = 0
        for seed in range(20):
            net = small_network(random.Random(7000 + seed), catalog=catalog)
            problem = PlacementProblem(net)
            exhaustive_best(net, budget=2, problem=problem)
            assignments = sorted(problem.candidates)
            for size in range(3):
                for combo in combinations(assignments, size):
                    subset = frozenset(combo)
                    expected = simulate_attack(apply_assignments(net, subset)).total_cost
                    assert problem.value(subset) == expected, f"seed {seed}, {sorted(subset)}"
                    checked += 1
        assert checked >= 500

    @CATALOGS
    def test_rounds_match_planning_on_regenerated_graphs(self, catalog, monkeypatch):
        rounds = []

        def recording(*args, **kwargs):
            rounds.append(plan_with_stats(*args, **kwargs))
            return rounds[-1]

        monkeypatch.setattr(attacker, "plan_with_stats", recording)
        replanned = 0
        for seed in range(30):
            net = small_network(random.Random(8000 + seed), catalog=catalog)
            placement, graph = random_placement(net, 1.0, seed=seed)
            rounds.clear()
            trace = simulate_attack(graph)
            assert len(rounds) == trace.recalculations
            found: set[Assignment] = set()
            zeroed: set[str] = set()
            for it, (_, stats) in zip(trace.iterations, rounds):
                reference = apply_assignments(net, placement - found)
                costs = {**reference.config_cost, **dict.fromkeys(zeroed, 0.0)}
                plan, ref_stats = plan_with_stats(reference, PlanningState.of(reference, costs))
                assert it.plan == plan, f"seed {seed}"
                assert stats.expanded_states == ref_stats.expanded_states, f"seed {seed}"
                if it.discovered_fake is not None:
                    found.add(it.discovered_fake)
                zeroed |= it.zeroed_configs
            replanned += trace.recalculations > 1
        assert replanned >= 10


def _report_without_timings(report) -> dict:
    payload = report.to_dict()
    payload.pop("p2_ms")
    payload["trace"]["planning_effort"].pop("elapsed_ms")
    return payload


def _with_unreached_host(net):
    """`net` plus a host h99 with an edge out to h03 and none in, on h03's OS:
    its pairs are compatible, but the attacker never reaches it."""
    h03 = net.hosts["h03"]
    return dataclasses.replace(
        net,
        hosts={**net.hosts, "h99": Host("h99", h03.os, layer=h03.layer)},
        reachability=net.reachability | {("h99", "h03")},
    )


class TestSharedEvaluation:
    """evaluate_placement, by ban set on the network's one compiled graph,
    against `helpers.reference_report`, which builds a graph per placement
    and stays the reference."""

    NETWORKS = ((8, 3), (12, 7), (20, 11), (30, 3))

    @CATALOGS
    def test_reports_match_evaluate_placement(self, catalog):
        compared = outside = discovered = 0
        for hosts, net_seed in self.NETWORKS:
            net = generate_network(hosts, catalog or default_catalog(), net_seed)
            classes = set(enumerate_candidates(net))
            placements = [frozenset()]
            for seed in range(8):
                placements.append(draw_budget_placement(net, 1 + seed % 4, seed))
                placements.append(draw_placement(net, 0.5, seed))
            for seed, placement in enumerate(placements):
                report = evaluate_placement(net, placement, seed=seed)
                reference = reference_report(net, placement, seed=seed)
                assert _report_without_timings(report) == _report_without_timings(reference), (hosts, seed)
                for it in report.trace.iterations:
                    if it.discovered_fake is not None:
                        assert it.discovered_fake in placement
                        discovered += 1
                outside += bool(placement - classes)
                compared += 1
        assert compared == len(self.NETWORKS) * 17
        assert outside >= 10 and discovered >= 10, (outside, discovered)

    def test_invalid_placements_raise_the_same_errors(self):
        net = generate_network(12, default_catalog(), seed=7)
        host = net.hosts["h03"]
        installed = sorted(host.installed_vulns)[0]
        compatible = compatible_vulns(net.catalog, host)[0]
        incompatible = next(v for v in sorted(net.catalog) if host.os not in net.catalog[v].affected_os)
        valid = draw_budget_placement(net, 2, seed=1)
        for placement in (
            [Assignment("h03", incompatible)],
            [Assignment("nowhere", compatible)],
            [Assignment("h03", "CVE-0000-0000")],
            [Assignment("h03", installed)],
            [*valid, Assignment("h03", installed), Assignment("h03", incompatible)],
        ):
            with pytest.raises(ValidationError) as reference:
                apply_assignments(net, placement)
            with pytest.raises(ValidationError) as shared:
                evaluate_placement(net, placement)
            assert str(shared.value) == str(reference.value)

    def test_a_pair_the_attacker_never_reaches_opens_nothing(self):
        net = _with_unreached_host(generate_network(12, default_catalog(), seed=7))
        lonely = [a for a in compatible_pairs(net) if a.host_id == "h99"]
        assert lonely and not set(lonely) & set(attacker._compiled(net).fakes)
        placements = [frozenset(lonely[:1]), frozenset(lonely)]
        placements += [frozenset(lonely[:2]) | draw_budget_placement(net, 1 + seed % 3, seed) for seed in range(6)]
        reports = [evaluate_placement(net, placement, seed=seed) for seed, placement in enumerate(placements)]
        for seed, (placement, report) in enumerate(zip(placements, reports)):
            reference = reference_report(net, placement, seed=seed)
            assert _report_without_timings(report) == _report_without_timings(reference), seed
        # the lone host's pairs trip nothing, and some mixed placements trip a reached fake
        assert [report.p4 for report in reports[:2]] == [0.0, 0.0]
        assert sum(report.p1 > 1 for report in reports) >= 2

    @CATALOGS
    def test_compiled_fakes_number_the_reached_pairs(self, catalog):
        # keys: the compatible pairs whose config the compiled graph holds, in
        # pair order; values: the view's number for that config
        nets = [generate_network(hosts, catalog or default_catalog(), seed) for hosts, seed in self.NETWORKS]
        nets.append(_with_unreached_host(generate_network(12, catalog or default_catalog(), 7)))
        unreached = 0
        for net in nets:
            compiled = attacker._compiled(net)
            configs = [config_id(a.host_id, a.vuln_id) for a in compatible_pairs(net)]
            reached = [(a, c) for a, c in zip(compatible_pairs(net), configs) if c in compiled.graph.config_nodes]
            assert list(compiled.fakes) == [a for a, _ in reached], net.n_hosts
            names = compiled.graph.indexed.configs
            assert [names[i] for i in compiled.fakes.values()] == [c for _, c in reached], net.n_hosts
            unreached += len(configs) - len(reached)
        assert unreached >= 3, unreached

    def test_one_graph_per_problem(self, monkeypatch):
        # evaluations, searches on a shared problem or on their own, and the
        # path index share the network's compiled graph and its undefended plan
        nets = [generate_network(12, default_catalog(), seed=7), generate_network(8, cvss3_catalog(), seed=3)]
        builds, baselines, indexes = [], [], []

        def counted_build(*args, **kwargs):
            builds.append(args)
            return apply_assignments(*args, **kwargs)

        def counted_plan(graph, banned_configs=frozenset()):
            if banned_configs == graph.fake_configs():
                baselines.append(graph)
            return optimal_plan(graph, banned_configs=banned_configs)

        def counted_index(*args, **kwargs):
            indexes.append(args)
            return build_path_index(*args, **kwargs)

        monkeypatch.setattr(attacker, "apply_assignments", counted_build)
        monkeypatch.setattr(attacker, "optimal_plan", counted_plan)
        monkeypatch.setattr(placement_search, "build_path_index", counted_index)
        for net in nets:
            evaluate_placement(net, ())
            problem = PlacementProblem(net)
            searched = dfbnb(net, budget=2, problem=problem)
            assert astar(net, budget=2, ordering="shortest_path", problem=problem).best_utility == searched.best_utility
            for seed in range(5):
                evaluate_placement(net, draw_budget_placement(net, 3, seed))
            assert evaluate_placement(net, searched.best_assignments).total_cost == searched.best_utility
            for engine in (dfbnb, astar, exhaustive_best):
                assert engine(net, budget=2).best_utility == searched.best_utility
        assert (len(builds), len(baselines), len(indexes)) == (len(nets),) * 3


class TestBaselineMemo:
    """b, the deception-free optimum, is planned once per network, on the
    compiled graph, by whichever of evaluate_placement and PlacementProblem
    comes first, and read by every later one."""

    @pytest.mark.parametrize("first", ["evaluate_placement", "PlacementProblem"])
    def test_b_is_the_undecorated_optimum(self, first, monkeypatch):
        plans = []

        def counted_plan(graph, banned_configs=frozenset()):
            plans.append(graph)
            return optimal_plan(graph, banned_configs=banned_configs)

        monkeypatch.setattr(attacker, "optimal_plan", counted_plan)
        nets = memo_networks()
        for net in nets:
            expected = optimal_cost(build_attack_graph(dataclasses.replace(net))).hex()
            placement = draw_budget_placement(net, 3, 0)
            calls = [lambda: evaluate_placement(net, placement), lambda: PlacementProblem(net)]
            if first == "PlacementProblem":
                calls.reverse()
            for call in (*calls, *calls):
                assert call().baseline_cost.hex() == expected
        assert len(plans) == len(nets)

    def test_an_unreachable_goal_keeps_nothing(self):
        net = cut_network()
        for call in (lambda: evaluate_placement(net, ()), lambda: PlacementProblem(net)) * 2:
            with pytest.raises(Unreachable):
                call()
        assert set(vars(net)) == {f.name for f in dataclasses.fields(net)}


def test_a_dropped_network_frees_its_compiled_graph():
    # The compiled part holds no reference to its network, and the reports'
    # plans hold at most the graph's integer view, so dropping the network and
    # its reports frees the graph without the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        net = generate_network(20, default_catalog(), 11)
        reports = [evaluate_placement(net, draw_budget_placement(net, 3, seed)) for seed in range(4)]
        assert sum(r.trace.recalculations for r in reports) > len(reports)
        graph = vars(net)["_compiled"].graph
        refs = [weakref.ref(graph), weakref.ref(graph.indexed)]
        del net, reports, graph
        freed = [ref() for ref in refs]
    finally:
        gc.enable()
    assert freed == [None, None]


def _trace_line(trace) -> str:
    payload = trace.to_dict()
    payload["planning_effort"].pop("elapsed_ms")
    return json.dumps(payload, sort_keys=True)


class TestPinnedTraces:
    """Exact simulation traces, pinned to digests recorded before the attacker
    and the planner moved to numbered configs.

    Each digest covers, on generated networks over both catalogs, the traces
    of random placements on their own graphs, of random ban sets of up to
    three candidates on the problem's graph (through the path `value`
    simulates by), and the reports of `evaluate_placement`; wall times are
    left out.
    """

    NETWORKS = ((8, 3), (12, 7), (20, 11), (30, 1))

    @pytest.mark.parametrize(
        "catalog, digest",
        [
            (None, "c532069fd51e8deb83e24892cf271b524b60f3ec213ec5bb903a657170bd2ba2"),
            (cvss3_catalog(), "cffe874d756cd8f470cba2d96f8900a3a7e8ecab530462ad4cd37c223b430fa2"),
        ],
        ids=["dyadic", "cvss3"],
    )
    def test_traces(self, catalog, digest, monkeypatch):
        lines: list[str] = []

        def recording(*args, **kwargs):
            trace = simulate_attack(*args, **kwargs)
            lines.append(_trace_line(trace))
            return trace

        for hosts, net_seed in self.NETWORKS:
            net = generate_network(hosts, catalog or default_catalog(), net_seed)
            placements = []
            for seed in range(6):
                placements.append(draw_placement(net, (0.25, 0.5, 1.0)[seed % 3], seed))
                placements.append(draw_budget_placement(net, 1 + seed % 4, seed))
            for placement in placements:
                lines.append(_trace_line(simulate_attack(apply_assignments(net, placement))))
            problem = PlacementProblem(net)
            rng = random.Random(f"pinned:{hosts}:{net_seed}")
            assignments = sorted(problem.candidates)
            subsets = {frozenset()} | {
                frozenset(rng.sample(assignments, rng.randint(1, min(3, len(assignments))))) for _ in range(30)
            }
            with monkeypatch.context() as patched:
                patched.setattr(placement_search, "simulate_attack", recording)
                for subset in sorted(subsets, key=sorted):
                    problem._value(problem._mask(subset), inherit=False)
            for seed, placement in enumerate(placements):
                lines.append(json.dumps(_report_without_timings(evaluate_placement(net, placement, seed=seed)), sort_keys=True))
        replanned = sum(line.count('"discovered_fake": {') > 0 for line in lines)
        assert len(lines) > len(self.NETWORKS) * 50 and replanned > len(lines) // 4, (len(lines), replanned)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

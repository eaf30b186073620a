from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decoygraph import aggraph
from decoygraph.aggraph import (
    AttackGraph,
    NodeKind,
    apply_assignments,
    build_attack_graph,
    config_id,
    config_owner,
    exploit_id,
    load_graph,
    priv_id,
    save_graph,
    validate_graph,
)
from decoygraph.errors import Unreachable, ValidationError
from decoygraph.netmodel import (
    EXTERNAL,
    Assignment,
    Goal,
    Host,
    NetworkModel,
    compatible_pairs,
    default_catalog,
    generate_network,
)
from decoygraph.placement_random import random_placement
from decoygraph.planner import PlanningState, _bestfirst_plan, _dijkstra_plan
from helpers import (
    COST_PALETTE,
    CVSS3_PALETTE,
    _vuln,
    cvss3_catalog,
    memo_networks,
    random_attack_graph,
    random_unit_rule_graph,
)


def test_node_id_helpers_round_trip():
    assert config_owner(config_id("h7", "CVE-1")) == ("h7", "CVE-1")
    assert priv_id("h7") != exploit_id("h7", "CVE-1", "h6")


class TestBuild:
    def test_kinds_are_disjoint(self, chain_graph):
        g = chain_graph
        assert not (g.privilege_nodes & g.exploit_nodes)
        assert not (g.privilege_nodes & g.config_nodes)
        assert not (g.exploit_nodes & g.config_nodes)

    def test_edges_point_to_requirements(self, chain_graph):
        g = chain_graph
        for exploit in g.exploit_nodes:
            priv_req, cfg_req = g.requirements[exploit]
            # the one remote rule: one privilege plus one config per exploit
            assert len(priv_req) == 1 and len(cfg_req) == 1
            assert priv_req[0] in g.privilege_nodes
            assert cfg_req[0] in g.config_nodes

    def test_goal_and_source_present(self, chain_graph):
        assert chain_graph.goal in chain_graph.privilege_nodes
        assert chain_graph.source in chain_graph.privilege_nodes

    def test_costs_in_unit_interval(self, lure_graph):
        assert set(lure_graph.config_cost) == lure_graph.config_nodes
        assert all(0.0 <= c <= 1.0 for c in lure_graph.config_cost.values())

    def test_baseline_has_no_fakes(self, lure_graph):
        assert not lure_graph.fake_configs()
        assert lure_graph.provenance == {}

    def test_unreachable_branches_are_absent(self, lure_graph):
        # f1/f2 have no real vulnerabilities, so the baseline graph must not
        # materialize privileges for them
        assert priv_id("f1") not in lure_graph.privilege_nodes
        assert priv_id("f2") not in lure_graph.privilege_nodes

    def test_validates_clean(self, chain_graph, lure_graph):
        assert validate_graph(chain_graph) == []
        assert validate_graph(lure_graph) == []

    def test_deterministic(self, chain_net):
        assert build_attack_graph(chain_net).to_json() == build_attack_graph(chain_net).to_json()


class TestApplyAssignments:
    def test_fake_configs_flagged_with_provenance(self, lure_net):
        both = [Assignment("f1", "fv-1"), Assignment("f2", "fv-2")]
        g = apply_assignments(lure_net, both)
        fakes = g.fake_configs()
        assert fakes == {config_id("f1", "fv-1"), config_id("f2", "fv-2")}
        assert {g.provenance[c] for c in fakes} == set(both)
        assert validate_graph(g) == []

    def test_duplicates_collapse(self, lure_net):
        a = Assignment("f1", "fv-1")
        assert apply_assignments(lure_net, [a, a]) == apply_assignments(lure_net, [a])

    def test_downstream_nodes_inherit_the_enabling_assignment(self, lure_net):
        # d1 is only reachable through the fake on f2, so its exploit and
        # config exist because of that assignment and vanish with it
        both = [Assignment("f1", "fv-1"), Assignment("f2", "fv-2")]
        g = apply_assignments(lure_net, both)
        d1_cfg = config_id("d1", "rv-d1")
        assert d1_cfg in g.config_nodes
        assert g.provenance[d1_cfg] == Assignment("f2", "fv-2")
        assert not g.fake_flag[d1_cfg]

    def test_invalid_assignment_rejected(self, lure_net):
        with pytest.raises(ValidationError):
            apply_assignments(lure_net, [Assignment("a01", "fv-1")])

    def test_assignment_that_is_not_fake_refused(self):
        # files write "fake": true; an absent flag reads as true, any other value is refused
        pair = {"host_id": "f1", "vuln_id": "fv-1"}
        assert Assignment.from_dict(pair) == Assignment.from_dict({**pair, "fake": True}) == ("f1", "fv-1")
        for fake in (False, 0, 1, "true", None):
            with pytest.raises(ValueError, match="fake must be true"):
                Assignment.from_dict({**pair, "fake": fake})


class TestSerialization:
    def test_round_trip(self, lure_net, tmp_path):
        g = apply_assignments(lure_net, [Assignment("f1", "fv-1")])
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_to_dot_markers(self, lure_net):
        g = apply_assignments(lure_net, [Assignment("f1", "fv-1")])
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert "dashed" in dot  # fake config
        assert "penwidth" in dot  # goal highlight

    def test_json_is_stable(self, lure_graph):
        assert lure_graph.to_json() == lure_graph.to_json()


class TestValidateCatchesTampering:
    def test_cost_out_of_range(self, chain_graph):
        costs = dict(chain_graph.config_cost)
        costs[sorted(costs)[0]] = 1.5
        bad = dataclasses.replace(chain_graph, config_cost=costs)
        assert any("cost" in issue for issue in validate_graph(bad))

    def test_fake_flag_without_provenance(self, chain_graph):
        flags = dict(chain_graph.fake_flag)
        flags[sorted(flags)[0]] = True
        bad = dataclasses.replace(chain_graph, fake_flag=flags)
        assert validate_graph(bad)

    def test_missing_goal(self, chain_graph):
        bad = dataclasses.replace(chain_graph, goal="p|h:ghost")
        assert any("goal" in issue for issue in validate_graph(bad))

    def test_dangling_edge(self, chain_graph):
        edges = set(chain_graph.edges)
        edges.add((chain_graph.goal, "c|h:ghost|v:x"))
        bad = dataclasses.replace(chain_graph, edges=frozenset(edges))
        assert validate_graph(bad)


# chain_graph's nodes: the chain internet -> h1 -> h2 -> h3 (the goal), one exploit and one config per step
_P1, _P2, _C1 = priv_id("h1"), priv_id("h2"), config_id("h1", "rv-h1")
_E1, _E2 = exploit_id("h1", "rv-h1", "internet"), exploit_id("h2", "rv-h2", "h1")
# a config and an exploit that chain_graph does not have
_GHOST, _E9 = config_id("ghost", "x"), exploit_id("h9", "x", "h1")


# name -> (per field, a callable giving chain_graph's new value; the exact violations, in order)
_TAMPERINGS = {
    "privilege/exploit overlap": (
        dict(exploit_nodes=lambda g: g.exploit_nodes | {_P1}),
        [
            "node sets privilege/exploit overlap: ['p|h:h1']",
            f"edge ({_P1}, {_E1}): exploit may only require privilege or config",
        ],
    ),
    "privilege/config overlap": (
        dict(
            config_nodes=lambda g: g.config_nodes | {_P1},
            config_cost=lambda g: {**g.config_cost, _P1: 0.5},
            fake_flag=lambda g: {**g.fake_flag, _P1: False},
        ),
        [
            "node sets privilege/config overlap: ['p|h:h1']",
            f"edge ({_P1}, {_E1}): config nodes have no requirements",
        ],
    ),
    "exploit/config overlap": (
        dict(
            config_nodes=lambda g: g.config_nodes | {_E1},
            config_cost=lambda g: {**g.config_cost, _E1: 0.5},
            fake_flag=lambda g: {**g.fake_flag, _E1: False},
        ),
        [
            f"node sets exploit/config overlap: ['{_E1}']",
            f"edge ({_E1}, {_C1}): config nodes have no requirements",
            f"edge ({_E1}, p|h:internet): config nodes have no requirements",
        ],
    ),
    "goal": (dict(goal=lambda g: "p|h:ghost"), ["goal p|h:ghost is not a privilege node"]),
    # the old source becomes a privilege like any other, with no supporting exploit
    "source": (
        dict(source=lambda g: "p|h:ghost"),
        ["source p|h:ghost is not a privilege node", "privilege p|h:internet has no supporting exploit"],
    ),
    "unknown node": (
        dict(edges=lambda g: g.edges | {(_E1, _GHOST)}),
        [f"edge ({_E1}, {_GHOST}) references an unknown node"],
    ),
    "privilege requires a non-exploit": (
        dict(edges=lambda g: g.edges | {(_P1, _C1)}),
        [f"edge ({_P1}, {_C1}): privilege may only require an exploit"],
    ),
    "exploit requires an exploit": (
        dict(edges=lambda g: g.edges | {(_E1, _E2)}),
        [f"edge ({_E1}, {_E2}): exploit may only require privilege or config"],
    ),
    "config has requirements": (
        dict(edges=lambda g: g.edges | {(_C1, _P1)}),
        [f"edge ({_C1}, {_P1}): config nodes have no requirements"],
    ),
    "exploit without requirements": (
        dict(exploit_nodes=lambda g: g.exploit_nodes | {_E9}),
        [f"exploit {_E9} has no requirements"],
    ),
    # an edge to an unknown node still counts as a requirement
    "exploit requiring only an unknown node": (
        dict(exploit_nodes=lambda g: g.exploit_nodes | {_E9}, edges=lambda g: g.edges | {(_E9, _GHOST)}),
        [f"edge ({_E9}, {_GHOST}) references an unknown node"],
    ),
    "privilege without a supporting exploit": (
        dict(edges=lambda g: g.edges - {(_P2, _E2)}),
        [f"privilege {_P2} has no supporting exploit"],
    ),
    # only an edge to an exploit supports a privilege
    "privilege requiring only a config": (
        dict(edges=lambda g: g.edges - {(_P2, _E2)} | {(_P2, _C1)}),
        [f"edge ({_P2}, {_C1}): privilege may only require an exploit", f"privilege {_P2} has no supporting exploit"],
    ),
    "config_cost domain": (
        dict(config_cost=lambda g: {c: v for c, v in g.config_cost.items() if c != _C1}),
        ["config_cost domain differs from the config node set"],
    ),
    "cost range": (
        dict(config_cost=lambda g: {**g.config_cost, _C1: 1.5}),
        [f"config {_C1} cost 1.5 outside [0, 1]"],
    ),
    "fake_flag domain": (
        dict(fake_flag=lambda g: {c: v for c, v in g.fake_flag.items() if c != _C1}),
        ["fake_flag domain differs from the config node set"],
    ),
    "fake flag without provenance": (
        dict(fake_flag=lambda g: {**g.fake_flag, _C1: True}),
        [f"config {_C1}: fake flag and provenance disagree"],
    ),
    "provenance of an unknown node": (
        dict(provenance=lambda g: {"p|h:ghost": Assignment("ghost", "x")}),
        ["provenance references unknown node p|h:ghost"],
    ),
}


@pytest.mark.parametrize("name", _TAMPERINGS)
def test_validate_graph_names_each_violation(chain_graph, name):
    changes, expected = _TAMPERINGS[name]
    assert validate_graph(chain_graph) == []
    bad = dataclasses.replace(chain_graph, **{field: change(chain_graph) for field, change in changes.items()})
    assert validate_graph(bad) == expected


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=30))
def test_generated_graphs_always_validate(n, seed):
    net = generate_network(n, default_catalog(), seed=seed)
    g = build_attack_graph(net)
    assert validate_graph(g) == []
    assert set(g.config_cost) == g.config_nodes
    assert set(g.fake_flag) == g.config_nodes


@given(st.integers(min_value=0, max_value=40))
def test_apply_then_remove_all_is_identity(seed):
    rng = random.Random(seed)
    net = generate_network(rng.randint(3, 7), default_catalog(), seed=seed)
    baseline = build_attack_graph(net)
    from decoygraph.placement_random import random_budget_placement

    _, g = random_budget_placement(net, 3, seed=seed)
    assert validate_graph(g) == []
    assert apply_assignments(net, ()) == baseline


def _pinned_networks():
    for hosts, seed in ((8, 1), (12, 7), (20, 11), (30, 3), (60, 1)):
        yield generate_network(hosts, default_catalog(), seed=seed)
    yield generate_network(12, cvss3_catalog(), seed=7)


def test_generated_graphs_are_pinned():
    """Generated graphs, byte for byte, against a digest recorded before generation
    stopped rebuilding the network to plant fakes.

    Per network: the baseline graph, seeded random placements at three host
    fractions, and the graph with every compatible (host, vuln) pair planted.
    """
    digest = hashlib.sha256()
    for net in _pinned_networks():
        digest.update(build_attack_graph(net).to_json().encode())
        for seed in range(6):
            _, graph = random_placement(net, (0.25, 0.5, 1.0)[seed % 3], seed)
            digest.update(graph.to_json().encode())
        digest.update(apply_assignments(net, compatible_pairs(net)).to_json().encode())
    assert digest.hexdigest() == "b070f60c19fe0a9ff15bfd0bc44254f737f78367af93e0c9338aca28f3c68ccd"


def _prefix_ids_network():
    """Host h1 next to h10, and vuln v1 next to v1x: ids whose string order is not their parts' order."""
    catalog = {v: _vuln(v, "os", subscore) for v, subscore in (("v1", 10.0), ("v1x", 5.0), ("w", 2.5))}
    hosts = {
        "h1": Host(host_id="h1", os="os", installed_vulns=frozenset({"v1"})),
        "h10": Host(host_id="h10", os="os", installed_vulns=frozenset({"v1", "v1x"})),
        "h2": Host(host_id="h2", os="os", installed_vulns=frozenset({"w"})),
    }
    reach = {(EXTERNAL, "h1"), (EXTERNAL, "h10"), ("h1", "h10"), ("h10", "h1"), ("h1", "h2"), ("h10", "h2")}
    return NetworkModel(
        hosts=hosts, reachability=frozenset(reach), attacker_entry=EXTERNAL, goal=Goal("h2"), catalog=catalog
    )


def test_generated_and_loaded_graphs_agree():
    """A generated graph equals its serialized copy, and generates the view the copy scans from its edges."""
    checked = 0
    prefix_net = _prefix_ids_network()
    # string order: "h10|" before "h1|", and "v1x|" before "v1|"; all three are in the baseline graph
    baseline_exploits = build_attack_graph(prefix_net).exploit_nodes
    for first, second in (
        (exploit_id("h10", "v1", "h1"), exploit_id("h1", "v1", "h10")),
        (exploit_id("h10", "v1x", "h1"), exploit_id("h10", "v1", "h1")),
    ):
        assert first < second and {first, second} <= baseline_exploits
    for net in (*_pinned_networks(), prefix_net):
        graphs = [build_attack_graph(net), apply_assignments(net, compatible_pairs(net))]
        graphs += [random_placement(net, (0.25, 0.5, 1.0)[seed % 3], seed)[1] for seed in range(6)]
        for graph in graphs:
            born = graph.indexed
            assert "requirements" not in vars(graph)
            loaded = AttackGraph.from_dict(json.loads(graph.to_json()))
            assert graph == loaded and loaded == graph
            assert "indexed" not in loaded.__dict__
            assert loaded.indexed == born
            checked += 1
    assert checked == 7 * 8
    # a copy made by dataclasses.replace scans its own edges
    moved = dataclasses.replace(build_attack_graph(prefix_net), goal=priv_id(EXTERNAL))
    assert moved.indexed.goal == moved.indexed.source


def _graph_fields(graph: AttackGraph) -> list:
    """Everything a graph holds: its nine fields, then its integer view."""
    return [getattr(graph, f.name) for f in dataclasses.fields(AttackGraph)] + [graph.indexed]


class TestGenerateOnFirstRead:
    """A graph is generated on the first read of any part, once, and then lets
    its network go; a build on a used network equals the build on a fresh copy."""

    def test_builds_on_a_used_network_equal_fresh_ones(self):
        fake_reached = 0
        for net in memo_networks():
            pairs = compatible_pairs(net)
            placements = [(), pairs] + [draw for draw, _ in (random_placement(net, 0.5, seed) for seed in range(3))]
            # A, B, A for each neighbouring pair, so that a build that changed the network shows on the next one
            for a, b in zip(placements, placements[1:]):
                for placement in (a, b, a):
                    fresh = apply_assignments(dataclasses.replace(net), placement)
                    assert _graph_fields(apply_assignments(net, placement)) == _graph_fields(fresh)
            assert set(vars(net)) == {f.name for f in dataclasses.fields(net)}
            # hosts whose privilege only a fake enables
            planted, bare = apply_assignments(net, pairs), build_attack_graph(net)
            fake_reached += bool(planted.privilege_nodes - bare.privilege_nodes)
        assert fake_reached == 8

    @pytest.mark.parametrize("part", [f.name for f in dataclasses.fields(AttackGraph)] + ["indexed", "requirements"])
    def test_the_first_read_generates_once(self, part, monkeypatch):
        calls = []
        generate = aggraph._generate
        monkeypatch.setattr(aggraph, "_generate", lambda *args: calls.append(args) or generate(*args))
        net = generate_network(12, default_catalog(), seed=7)
        graph = apply_assignments(net, compatible_pairs(net))
        assert random_placement(net, 0.5, 0)[0] and build_attack_graph(net)
        assert calls == []
        getattr(graph, part)
        assert len(calls) == 1
        assert _graph_fields(graph) and graph.requirements and graph.grants and graph.to_json()
        assert len(calls) == 1

    def test_a_read_graph_holds_no_network(self):
        net = generate_network(12, default_catalog(), seed=7)
        graph = apply_assignments(net, compatible_pairs(net))
        network = weakref.ref(net)
        del net
        gc.collect()
        assert network() is not None
        assert graph.provenance
        gc.collect()
        assert network() is None


def test_equality_reads_every_field(lure_net):
    graph = apply_assignments(lure_net, [Assignment("f1", "fv-1")])
    config = min(graph.config_nodes)
    changes = {
        "privilege_nodes": graph.privilege_nodes | {priv_id("x")},
        "exploit_nodes": graph.exploit_nodes - {min(graph.exploit_nodes)},
        "config_nodes": graph.config_nodes | {config_id("x", "y")},
        "edges": graph.edges - {min(graph.edges)},
        "goal": graph.source,
        "source": graph.goal,
        "config_cost": {**graph.config_cost, config: -1.0},
        "fake_flag": {**graph.fake_flag, config: not graph.fake_flag[config]},
        "provenance": {},
    }
    assert set(changes) == {f.name for f in dataclasses.fields(AttackGraph)}
    for name, value in changes.items():
        changed = dataclasses.replace(graph, **{name: value})
        assert graph != changed and changed != graph, name
    assert graph == dataclasses.replace(graph)


def _scanned_adjacency(graph):
    """requirements and grants read off the edges, the definition the properties must match."""
    reqs = {e: ([], []) for e in graph.exploit_nodes}
    grants = {e: [] for e in graph.exploit_nodes}
    for a, b in graph.edges:
        if a in graph.exploit_nodes:
            reqs[a][0 if b in graph.privilege_nodes else 1].append(b)
        elif b in graph.exploit_nodes:
            grants[b].append(a)
    requirements = {e: (tuple(sorted(p)), tuple(sorted(c))) for e, (p, c) in reqs.items()}
    return requirements, {e: tuple(sorted(g)) for e, g in grants.items()}


def _steps_match_requirements(graph, max_bestfirst_exploits=120):
    """Assert that each engine's plan lists, per step, the configs `requirements` gives its exploit.

    Dijkstra runs on unit-rule graphs only. Best-first search is exponential
    in the worst case, so it runs on graphs of at most `max_bestfirst_exploits`
    exploits. Returns the number of plans checked; an unreachable goal has none.
    """
    engines = [_dijkstra_plan] if graph.unit_rule else []
    if len(graph.exploit_nodes) <= max_bestfirst_exploits:
        engines.append(_bestfirst_plan)
    checked = 0
    for engine in engines:
        try:
            plan = engine(graph, PlanningState.of(graph))[0]
        except Unreachable:
            continue
        assert plan.step_configs == tuple(graph.requirements[e][1] for e in plan.exec_order)
        checked += 1
    return checked


class TestAdjacency:
    def test_generated_graphs(self):
        checked = 0
        for net in _pinned_networks():
            for graph in (build_attack_graph(net), apply_assignments(net, compatible_pairs(net))):
                assert graph.indexed is not None
                assert (graph.requirements, graph.grants) == _scanned_adjacency(graph)
                checked += _steps_match_requirements(graph)
        assert checked == 19

    def test_random_unit_rule_graphs(self):
        checked = 0
        for seed in range(60):
            palette = CVSS3_PALETTE if seed % 2 else COST_PALETTE
            graph = random_unit_rule_graph(random.Random(seed), palette=palette)
            assert graph.indexed is not None
            assert (graph.requirements, graph.grants) == _scanned_adjacency(graph)
            checked += _steps_match_requirements(graph)
        assert checked > 60

    def test_graphs_without_an_integer_view_are_scanned(self):
        scanned = checked = 0
        for seed in range(60):
            graph = random_attack_graph(random.Random(seed))
            if graph.indexed is None:
                scanned += 1
                assert (graph.requirements, graph.grants) == _scanned_adjacency(graph)
            checked += _steps_match_requirements(graph)
        assert scanned > 30
        assert checked > 30


def test_node_kind_values():
    assert (NodeKind.PRIVILEGE, NodeKind.EXPLOIT, NodeKind.CONFIG) == (
        "privilege",
        "exploit",
        "config",
    )

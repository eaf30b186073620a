"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a PASS line with its headline numbers; the pytest verdict
line is the pass/fail record. Networks and planner caches are shared across
criteria through module fixtures, so the expensive 50-host searches pay for
their simulations once.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean

import pytest

from decoygraph.aggraph import apply_assignments, build_attack_graph
from decoygraph.attacker import evaluate_placement, simulate_attack
from decoygraph.fixtures import build_h1_counterexample, build_searchspace_k2
from decoygraph.netmodel import Assignment, default_catalog, generate_network
from decoygraph.placement_random import random_budget_placement, random_placement
from decoygraph.placement_search import (
    PlacementProblem,
    SearchNode,
    astar,
    compute_singleton_utilities,
    dfbnb,
    enumerate_candidates,
    exhaustive_best,
    expand,
    h1,
    h2,
)
from decoygraph.planner import brute_force_plan, derivable, optimal_cost, optimal_plan
from helpers import (
    COST_PALETTE,
    CVSS3_PALETTE,
    cvss3_catalog,
    eight_candidate_net,
    random_attack_graph,
    small_network,
)

LURE_FAKES = (
    Assignment(host_id="f1", vuln_id="fv-1"),
    Assignment(host_id="f2", vuln_id="fv-2"),
)


def _planted(net):
    """The graph of `net` with every search candidate planted."""
    return apply_assignments(net, [c.assignment for c in enumerate_candidates(net)])


class _Instance:
    """A network plus the placement problem every criterion shares for it."""

    def __init__(self, name, network):
        self.name = name
        self.network = network

    @functools.cached_property
    def problem(self):
        return PlacementProblem(self.network)

    def search(self, engine, budget, **kwargs):
        return engine(self.network, budget=budget, problem=self.problem, **kwargs)

    def evaluate(self, assignments):
        return evaluate_placement(self.network, assignments)


@pytest.fixture(scope="module")
def suite():
    catalog = default_catalog()
    return {
        "net10": _Instance("net10", generate_network(10, catalog, seed=2)),
        "net20": _Instance("net20", generate_network(20, catalog, seed=4)),
        "net50": _Instance("net50", generate_network(50, catalog, seed=2)),
    }


def test_criterion_1_planner_matches_brute_force():
    """Optimal plans agree with subset enumeration on 200+ random graphs per
    cost palette: dyadic, and CVSS v3 (x/3.9), whose sums are inexact."""
    t0 = time.perf_counter()
    counts = []
    for name, palette in (("dyadic", COST_PALETTE), ("cvss3", CVSS3_PALETTE)):
        solvable = 0
        seed = 0
        while solvable < 200:
            rng = random.Random(seed)
            graph = random_attack_graph(rng, palette=palette)
            seed += 1
            assert len(graph.config_nodes) <= 12
            if not derivable(graph):
                continue
            fast = optimal_plan(graph)
            slow = brute_force_plan(graph)
            assert fast.cost == slow.cost, f"{name} graph seed {seed - 1}: {fast.cost} != {slow.cost}"
            solvable += 1
        counts.append(f"{solvable} {name}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 1: {' + '.join(counts)} graphs, exact cost agreement, {elapsed:.1f}s")


def test_criterion_2_lure_fixture_worked_values():
    """The two-lure network reproduces its five hand-derived quantities."""
    net = build_h1_counterexample()
    baseline = build_attack_graph(net)
    assert optimal_cost(baseline) == 10.0
    decorated = apply_assignments(net, LURE_FAKES)
    assert optimal_cost(decorated) == 9.0
    actual = simulate_attack(decorated).total_cost
    assert actual == 22.0
    candidates = tuple(compute_singleton_utilities(_planted(net), enumerate_candidates(net)))
    root = SearchNode(
        chosen=(),
        remaining=candidates,
        utility=10.0,
        heuristic=0.0,
        budget=2,
        baseline_cost=10.0,
    )
    assert h1(root) == 20.0
    assert h1(root) < actual
    assert h2(root) == 30.0
    assert h2(root) >= actual
    print("PASS criterion 2: baseline 10.0, decorated 9.0, replanned 22.0, h1 20.0 < 22, h2 30.0 >= 22")


def test_criterion_3_cost_inflation_laws():
    """Plan-cost laws hold on 500+ randomly obfuscated networks."""
    instances = 0
    t0 = time.perf_counter()
    for seed in range(250):
        rng = random.Random(40_000 + seed)
        net = small_network(rng)
        graph = build_attack_graph(net)
        base = optimal_cost(graph)
        # fake-free identity
        trace = simulate_attack(graph)
        assert trace.total_cost == base
        assert trace.recalculations == 1
        placements = [
            random_placement(net, 0.5, seed=seed)[0],
            random_budget_placement(net, 2, seed=seed)[0],
        ]
        for fakes in placements:
            decorated = apply_assignments(net, fakes)
            total = simulate_attack(decorated).total_cost
            n = len(fakes)
            assert base <= total <= (n + 1) * base, f"seed {seed}, n={n}"
            instances += 1
        # one planted lure never lowers the attacker's bill
        for fakes in placements:
            if fakes:
                one = frozenset({min(fakes)})
                single = simulate_attack(apply_assignments(net, one)).total_cost
                assert single >= base, f"seed {seed}"
                break
    assert instances >= 500
    print(f"PASS criterion 3: {instances} obfuscated instances, zero violations, {time.perf_counter() - t0:.1f}s")


def _full_tree_heuristic_violations(net, budget, trippable=False):
    """Walk the whole placement tree; count h1/h2 drops below the true
    remaining reward max(U(A∪E)) - U(A). With `trippable`, the tree is the one
    dfbnb and astar search: only the candidates the budget can trip."""
    base_cost = optimal_cost(build_attack_graph(net))
    ucache: dict = {}

    def utility(assignments):
        key = frozenset(assignments)
        if key not in ucache:
            ucache[key] = simulate_attack(apply_assignments(net, key)).total_cost
        return ucache[key]

    if trippable:
        problem = PlacementProblem(net)
        candidates = problem.trippable(min(budget, len(problem.candidates)))
    else:
        candidates = compute_singleton_utilities(
            _planted(net), enumerate_candidates(net), utility_cache=ucache
        )
    budget = min(budget, len(candidates))
    ordered = tuple(sorted(candidates, key=lambda c: (-c.singleton_utility, c.assignment)))
    root = SearchNode(
        chosen=(),
        remaining=ordered,
        utility=utility(()),
        heuristic=0.0,
        budget=budget,
        baseline_cost=base_cost,
    )
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if len(node.chosen) >= budget or not node.remaining:
            continue
        left, right = expand(node, utility, h2)
        stack.extend(child for child in (left, right) if child is not None)
    h1_violations = h2_violations = 0
    for node in nodes:
        slots = budget - len(node.chosen)
        accrued = utility(node.chosen)
        open_assignments = [c.assignment for c in node.remaining]
        best = accrued
        for size in range(slots + 1):
            for extension in itertools.combinations(open_assignments, size):
                best = max(best, utility(frozenset(node.chosen) | frozenset(extension)))
        remaining_reward = best - accrued
        if h1(node) < remaining_reward:
            h1_violations += 1
        if h2(node) < remaining_reward:
            h2_violations += 1
    return len(nodes), h1_violations, h2_violations


def test_criterion_4_heuristic_bound_sweep():
    """h2 never undershoots the remaining reward on any fully enumerated
    tree, over all candidates and over the trippable ones the engines search;
    h1 provably does on the engineered lure network."""
    cases = [
        ("two-lure", build_h1_counterexample(), 2),
        ("three-chain K2", build_searchspace_k2(), 2),
        ("three-chain K3", build_searchspace_k2(), 3),
        ("eight-candidate", eight_candidate_net(), 3),
        # CVSS v3 costs; 3 of its 13 candidates are untrippable at K=3
        ("v3 random-10", small_network(random.Random(10), max_hosts=5, catalog=cvss3_catalog()), 3),
    ]
    for seed in (0, 1, 2, 4):
        net = small_network(random.Random(seed), max_hosts=4)
        if len(enumerate_candidates(net)) <= 8:
            cases.append((f"random-{seed}", net, 3))
    total_nodes = 0
    lure_h1_violations = 0
    for name, net, budget in cases:
        for trippable in (False, True):
            nodes, v1, v2 = _full_tree_heuristic_violations(net, budget, trippable)
            total_nodes += nodes
            assert v2 == 0, f"{name} (trippable={trippable}): h2 undershot at {v2} of {nodes} nodes"
            if name == "two-lure" and not trippable:
                lure_h1_violations = v1
    assert lure_h1_violations >= 1
    print(
        f"PASS criterion 4: {len(cases)} instances, full and trippable trees, {total_nodes} nodes, "
        f"h2 clean, h1 violations on the lure: {lure_h1_violations}"
    )


def test_criterion_5_optimizer_equivalence(suite):
    """Both search engines reproduce the exhaustive optimum exactly, on the
    default catalog and on a CVSS v3 catalog, whose costs are not dyadic."""
    t0 = time.perf_counter()
    v3_net10 = _Instance("v3-net10", generate_network(10, cvss3_catalog(), seed=2))
    v3_net20 = _Instance("v3-net20", generate_network(20, cvss3_catalog(), seed=4))
    local = [
        ("three-chain", _Instance("three-chain", build_searchspace_k2()), 2),
        ("two-lure", _Instance("two-lure", build_h1_counterexample()), 2),
        ("eight-candidate", _Instance("eight-candidate", eight_candidate_net()), 3),
        ("net10 K2", suite["net10"], 2),
        ("net10 K3", suite["net10"], 3),
        ("net20 K2", suite["net20"], 2),
        ("v3-net10 K2", v3_net10, 2),
        ("v3-net10 K3", v3_net10, 3),
        ("v3-net20 K2", v3_net20, 2),
    ]
    import math

    checked = []
    for name, inst, budget in local:
        m = len(enumerate_candidates(inst.network))
        subsets = sum(math.comb(m, size) for size in range(budget + 1))
        assert subsets <= 10_000, f"{name}: {subsets} subsets"
        truth = exhaustive_best(
            inst.network,
            budget=budget,
            max_subsets=10_000,
            problem=inst.problem,
        )
        for engine in (dfbnb, astar):
            found = inst.search(engine, budget)
            assert found.best_utility == truth.best_utility, name
            assert found.best_assignments == truth.best_assignments, name
        checked.append(f"{name}={truth.best_utility}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 5: {'; '.join(checked)}; {elapsed:.1f}s")


def test_criterion_6_directional_claims(suite):
    """Node counts and quality track the expected direction on the
    synthetic 10/20/50-host suite."""
    t0 = time.perf_counter()
    budgets = {"net10": 3, "net20": 2, "net50": 2}
    cells = []  # (net, ordering, seed, dfbnb expanded, astar expanded)
    quality = []
    for name, inst in suite.items():
        budget = budgets[name]
        counts = {}
        for ordering, seeds in (("utility", (0,)), ("shortest_path", (0,)), ("random", (0, 1, 2, 3, 4))):
            for seed in seeds:
                d = inst.search(dfbnb, budget, ordering=ordering, seed=seed)
                a = inst.search(astar, budget, ordering=ordering, seed=seed)
                assert a.best_utility == d.best_utility
                cells.append((name, ordering, seed, d.expanded_nodes, a.expanded_nodes))
                counts[(ordering, seed, "dfbnb")] = d.expanded_nodes
                counts[(ordering, seed, "astar")] = a.expanded_nodes
        # (b) informed orderings expand no more than random, on average
        for engine in ("dfbnb", "astar"):
            random_total = sum(counts[("random", s, engine)] for s in range(5))
            for ordering in ("utility", "shortest_path"):
                assert counts[(ordering, 0, engine)] * 5 <= random_total, (name, engine, ordering)
        # (c) the optimizer beats the mean random placement at equal budget
        best = inst.search(dfbnb, budget)
        report = inst.evaluate(best.best_assignments)
        random_p3 = [
            inst.evaluate(random_budget_placement(inst.network, budget, seed=s)[0]).p3
            for s in range(5)
        ]
        assert report.p3 >= mean(random_p3), name
        # (d) every reported assignment gets tripped
        assert best.budget_used == len(best.best_assignments)
        assert report.p4 == 1.0, name
        quality.append(f"{name}: p3 {report.p3:.2f} vs random {mean(random_p3):.2f}")
    # (a) best-first expands no more than branch and bound on >=90% of cells
    wins = sum(1 for _, _, _, d, a in cells if a <= d)
    assert wins >= 0.9 * len(cells), f"{wins}/{len(cells)}"
    print(
        f"PASS criterion 6: astar<=dfbnb on {wins}/{len(cells)} cells; "
        f"{'; '.join(quality)}; {time.perf_counter() - t0:.1f}s"
    )


def test_criterion_7_random_baseline_trend():
    """More decorated hosts never lowers mean attacker cost or replans."""
    catalog = default_catalog()
    trend = []
    for hosts, net_seed in ((10, 2), (20, 11)):
        net = generate_network(hosts, catalog, seed=net_seed)
        means = []
        for fraction in (0.1, 0.3, 0.5):
            reports = [
                evaluate_placement(net, random_placement(net, fraction, seed=s)[0])
                for s in range(5)
            ]
            means.append((mean(r.p3 for r in reports), mean(r.p1 for r in reports)))
        for prev, cur in zip(means, means[1:]):
            assert cur[0] >= prev[0], f"{hosts}-host p3 trend {means}"
            assert cur[1] >= prev[1], f"{hosts}-host p1 trend {means}"
        trend.append(f"{hosts}h p3 {'->'.join(f'{m[0]:.3f}' for m in means)}")
    print(f"PASS criterion 7: {'; '.join(trend)}")


SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of each criterion-8 artifact as written before placements were
# evaluated by ban set on one graph per search; that change kept every byte.
# search.json, sweep.csv and summary.json were re-pinned when dfbnb and astar
# began dropping untrippable candidates, and again when they began dropping
# fakes that cost more than the real route to their host: each time only
# their node counts (expanded_nodes, generated_nodes, mean_expanded_nodes) moved.
ARTIFACT_SHA256 = {
    "net.json": "c1dc3a251fc7b1a84136e7e2ad5afcb5ef0d73d65313e229be20abd7f5737928",
    "search.json": "b334e3596576595b7bf3a4b117a2e1789f70ab938098b9efd84a244e9459e831",
    "eval.json": "70baaa0681dccc38f2f7a8b7d0750bdf2eed82b9fa758547b07a2557747a8937",
    "sweep.csv": "2a7ed0fd6c7f1fa293145d8fe9aceaafc4fd958b7fd01c3ae47421d3b8767e67",
    "summary.json": "ebbb894c7479276771f6c4989d26ebf19f163c6deb0058685ce3325b688988b4",
}


def _run_cli(args, cwd, hashseed):
    # The child runs in a temporary cwd, where a relative PYTHONPATH such as
    # "src" no longer resolves; put this checkout's src first, as an absolute path.
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "decoygraph.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"decoygraph {' '.join(args)} failed:\n{proc.stderr}"
    return proc


def test_criterion_8_cli_byte_determinism(tmp_path):
    """Fixed seeds give byte-identical artifacts, even across interpreter
    hash-randomization settings, and the artifacts match their recorded digests."""
    spec = {
        "networks": [{"hosts": 8, "seed": 5, "id": "n8"}],
        "budgets": [1, 2],
        "approaches": [
            {"name": "random"},
            {"name": "search", "algorithm": "dfbnb"},
            {"name": "search", "algorithm": "astar", "ordering": "shortest-path"},
        ],
        "trials": 2,
        "base_seed": 3,
    }
    outputs = []
    for run, hashseed in (("one", "1"), ("two", "2")):
        work = tmp_path / run
        work.mkdir()
        (work / "spec.json").write_text(json.dumps(spec))
        _run_cli(["generate", "--hosts", "12", "--seed", "7", "--out", "net.json"], work, hashseed)
        _run_cli(
            ["obfuscate", "search", "--network", "net.json", "--budget", "2", "--out", "search.json"],
            work,
            hashseed,
        )
        _run_cli(
            ["evaluate", "--network", "net.json", "--assignments", "search.json", "--out", "eval.json"],
            work,
            hashseed,
        )
        _run_cli(
            ["sweep", "--spec", "spec.json", "--out", "sweep.csv", "--summary", "summary.json"],
            work,
            hashseed,
        )
        outputs.append(
            {name: (work / name).read_bytes() for name in ("net.json", "search.json", "eval.json", "sweep.csv", "summary.json")}
        )
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
        assert hashlib.sha256(outputs[0][name]).hexdigest() == ARTIFACT_SHA256[name], f"{name} changed"
    print("PASS criterion 8: 5 artifacts byte-identical across hash-seed 1 and 2 runs, digests match")

"""Shared test utilities: random graph and network builders.

The random attack-graph builder produces general AND/OR structure directly
(multi-requirement exploits, shared configs, zero costs, occasional cycles),
independent of the network-model rules, so the planner is exercised beyond
the shapes the generator emits. `random_unit_rule_graph` keeps the generator's
one-privilege, one-config exploit shape, which the Dijkstra engine handles,
and varies everything else. Costs come from a dyadic palette, so equal
plan costs compare exactly as floats, or from a CVSS v3 palette (subscore /
3.9), whose sums round differently in different orders.
"""

from __future__ import annotations

import dataclasses
import random

from decoygraph.aggraph import AttackGraph, apply_assignments, build_attack_graph
from decoygraph.attacker import EvaluationReport, simulate_attack
from decoygraph.fixtures import build_h1_counterexample
from decoygraph.netmodel import (
    EXTERNAL,
    CvssVersion,
    Goal,
    Host,
    Layer,
    NetworkModel,
    VulnerabilityRecord,
    default_catalog,
    generate_network,
)
from decoygraph.planner import optimal_cost

# dyadic values with repeats to encourage cost ties
COST_PALETTE = [0.0, 0.125, 0.25, 0.25, 0.375, 0.5, 0.5, 0.75, 1.0]
# CVSS v3 exploitability subscores; normalized costs x/3.9 are not dyadic
CVSS3_SUBSCORES = (0.5, 0.9, 1.2, 1.6, 1.8, 2.2, 2.8, 3.9)
# the same shape of palette: zero, then every cost, the three cheapest twice
CVSS3_PALETTE = [0.0] + [x / 3.9 for x in CVSS3_SUBSCORES + CVSS3_SUBSCORES[:3]]


def random_attack_graph(
    rng: random.Random,
    max_privs: int = 7,
    max_exploits: int = 12,
    max_configs: int = 10,
    palette: list[float] = COST_PALETTE,
) -> AttackGraph:
    """Build a random fake-free AND/OR graph, not necessarily solvable."""
    n_p = rng.randint(2, max_privs)
    n_e = rng.randint(2, max_exploits)
    n_c = rng.randint(2, max_configs)
    privs = [f"pv{i}" for i in range(n_p)]
    configs = [f"cf{i}" for i in range(n_c)]
    exploits = [f"ex{i}" for i in range(n_e)]
    source = privs[0]
    goal = privs[-1]
    grantable = privs[1:]
    edges: set[tuple[str, str]] = set()
    for ex in exploits:
        n_priv_req = rng.randint(0, 2)
        priv_req = rng.sample(privs, min(n_priv_req, len(privs)))
        n_cfg_req = rng.randint(0 if priv_req else 1, 2)
        cfg_req = rng.sample(configs, min(n_cfg_req, len(configs)))
        for p in priv_req:
            edges.add((ex, p))
        for c in cfg_req:
            edges.add((ex, c))
        target = rng.choice(grantable)
        edges.add((target, ex))
        # occasionally grant a second privilege
        if rng.random() < 0.25:
            edges.add((rng.choice(grantable), ex))
    # every non-source privilege needs at least one granting exploit
    for p in grantable:
        if not any(src == p for src, dst in edges if dst in set(exploits)):
            edges.add((p, rng.choice(exploits)))
    return AttackGraph(
        privilege_nodes=frozenset(privs),
        exploit_nodes=frozenset(exploits),
        config_nodes=frozenset(configs),
        edges=frozenset(edges),
        goal=goal,
        source=source,
        config_cost={c: rng.choice(palette) for c in configs},
        fake_flag={c: False for c in configs},
        provenance={},
    )


def random_unit_rule_graph(
    rng: random.Random,
    max_privs: int = 9,
    max_exploits: int = 20,
    max_configs: int = 10,
    palette: list[float] = COST_PALETTE,
) -> AttackGraph:
    """Build a random graph whose exploits each require one privilege and one config.

    Most exploits lead one or two privileges further along pv0 .. pvN, so
    plans are chains of several exploits; the rest grant a random privilege,
    which makes cycles. Configs are shared between exploits, about one
    exploit in five grants two privileges, and the goal need not be reachable.
    """
    n_p = rng.randint(2, max_privs)
    n_e = rng.randint(n_p - 1, max_exploits)
    n_c = rng.randint(1, max_configs)
    privs = [f"pv{i}" for i in range(n_p)]
    configs = [f"cf{i}" for i in range(n_c)]
    exploits = [f"ex{i}" for i in range(n_e)]
    edges: set[tuple[str, str]] = set()
    for ex in exploits:
        i = rng.randrange(n_p - 1)
        edges.add((ex, privs[i]))
        edges.add((ex, rng.choice(configs)))
        for _ in range(2 if rng.random() < 0.2 else 1):
            j = min(i + rng.randint(1, 2), n_p - 1) if rng.random() < 0.8 else rng.randrange(1, n_p)
            edges.add((privs[j], ex))
    return AttackGraph(
        privilege_nodes=frozenset(privs),
        exploit_nodes=frozenset(exploits),
        config_nodes=frozenset(configs),
        edges=frozenset(edges),
        goal=privs[-1],
        source=privs[0],
        config_cost={c: rng.choice(palette) for c in configs},
        fake_flag={c: False for c in configs},
        provenance={},
    )


def small_network(rng: random.Random, max_hosts: int = 8, catalog=None) -> NetworkModel:
    n = rng.randint(3, max_hosts)
    return generate_network(n, catalog or default_catalog(), seed=rng.randrange(10**6))


def cvss3_catalog() -> dict[str, VulnerabilityRecord]:
    """The default catalog's ids and operating systems with CVSS v3 subscores.

    Subscores cycle through CVSS3_SUBSCORES in id order, so every cost is
    x/3.9 and hosts still see several distinct costs.
    """
    return {
        vuln_id: VulnerabilityRecord(
            vuln_id=vuln_id,
            cvss_version=CvssVersion.V3,
            exploitability_subscore=CVSS3_SUBSCORES[i % len(CVSS3_SUBSCORES)],
            affected_os=record.affected_os,
        )
        for i, (vuln_id, record) in enumerate(sorted(default_catalog().items()))
    }


def _vuln(vuln_id: str, os: str, subscore: float) -> VulnerabilityRecord:
    return VulnerabilityRecord(
        vuln_id=vuln_id,
        cvss_version=CvssVersion.V2,
        exploitability_subscore=subscore,
        affected_os=frozenset({os}),
    )


def eight_candidate_net() -> NetworkModel:
    """Four-host chain with two differently priced lures per host.

    Eight plantable candidates survive dedup (distinct costs per host), small
    enough for full search-tree enumeration at budget 3.
    """
    hosts: dict[str, Host] = {}
    catalog: dict[str, VulnerabilityRecord] = {}
    edges: set[tuple[str, str]] = set()
    layers = (Layer.DMZ, Layer.INTERNAL, Layer.INTERNAL, Layer.SECURED)
    prev = EXTERNAL
    for i, layer in zip(range(1, 5), layers):
        hid = f"g{i}"
        os = f"os-{hid}"
        rv = f"rv-{hid}"
        catalog[rv] = _vuln(rv, os, 10.0)
        catalog[f"wa-{hid}"] = _vuln(f"wa-{hid}", os, 5.0)
        catalog[f"wb-{hid}"] = _vuln(f"wb-{hid}", os, 2.5)
        hosts[hid] = Host(host_id=hid, os=os, installed_vulns=frozenset({rv}), layer=layer)
        edges.add((prev, hid))
        prev = hid
    return NetworkModel(
        hosts=hosts,
        reachability=frozenset(edges),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="g4"),
        catalog=catalog,
    )


def _dormant_fake_net(second_fake: bool) -> NetworkModel:
    """Fakes that stay dormant until a lure's round pays their shared prefix.

    Each cost is a V2 subscore / 10, and each host runs its own OS. Routes
    to the goal t: entry -> r (0.90) -> t (0.10), the undefended attack,
    b = 1.0; entry -> a1 (0.35) -> d -> m (0.30) -> t, where d has real vuln
    rd (0.35) and takes the lure a (0.05); and a1 -> h (0.30) -> x -> t,
    where host x has no real vuln and takes fake x (0.30). With
    `second_fake`, host y, also without a real vuln, takes fake x2 (0.60)
    on h -> y -> t.
    """
    costs = {"a1": 3.5, "d": 3.5, "m": 3.0, "t": 1.0, "h": 3.0, "r": 9.0}
    fakes = {"x": ("x", 3.0), "d": ("a", 0.5)}
    edges = {(EXTERNAL, "a1"), ("a1", "d"), ("d", "m"), ("m", "t"), ("a1", "h"), ("h", "x"), ("x", "t")}
    edges |= {(EXTERNAL, "r"), ("r", "t")}
    if second_fake:
        fakes["y"] = ("x2", 6.0)
        edges |= {("h", "y"), ("y", "t")}
    catalog = {f"r{host}": _vuln(f"r{host}", f"os-{host}", subscore) for host, subscore in costs.items()}
    catalog.update({vuln: _vuln(vuln, f"os-{host}", subscore) for host, (vuln, subscore) in fakes.items()})
    hosts = {
        host: Host(host_id=host, os=f"os-{host}", installed_vulns=frozenset({f"r{host}"} if host in costs else ()))
        for host in sorted(set(costs) | set(fakes))
    }
    return NetworkModel(
        hosts=hosts, reachability=frozenset(edges), attacker_entry=EXTERNAL, goal=Goal(host_id="t"), catalog=catalog
    )


def dormant_fake_net_n1() -> NetworkModel:
    """N1: value({x}) = 1.0, since the route through x costs 1.05 > b, but
    value({x, a}) = 1.75. Round 1 pays 0.40 for a1 and trips a; a1 is then
    free, so round 2 takes h and x for 0.60 and trips x; round 3 pays 0.75
    through d. Adding a gains 0.75, more than min(b, the real route to d) = 0.70."""
    return _dormant_fake_net(second_fake=False)


def dormant_fake_net_n2() -> NetworkModel:
    """N2, N1 with fake x2 on y: value({x, x2}) = 1.0 and value({x, x2, a}) = 2.35
    (rounds 0.40, 0.60, 0.60, 0.75). Adding a gains 1.35, more than b."""
    return _dormant_fake_net(second_fake=True)


def cut_network() -> NetworkModel:
    """A network whose goal host t no exploit can reach: only u is reachable."""
    rv = VulnerabilityRecord(
        vuln_id="rv",
        cvss_version=CvssVersion.V2,
        exploitability_subscore=10.0,
        affected_os=frozenset({"os-t"}),
    )
    hosts = {
        "t": Host(host_id="t", os="os-t", installed_vulns=frozenset({"rv"}), layer=Layer.SECURED),
        "u": Host(host_id="u", os="os-t", installed_vulns=frozenset({"rv"}), layer=Layer.DMZ),
    }
    return NetworkModel(
        hosts=hosts,
        reachability=frozenset({(EXTERNAL, "u")}),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="t"),
        catalog={"rv": rv},
    )


def memo_networks() -> list[NetworkModel]:
    """Fresh networks for the per-network memos, none yet used.

    Generated networks in the default and the CVSS v3 catalog, some with dead
    hosts (no real vuln, so reached only through a fake planted on them),
    plus the lure network, whose host d1 is reached only through the fake on
    f2, and N2, whose hosts x and y are reached only through their fakes.
    """
    nets = [
        generate_network(hosts, catalog, seed=seed, dead_hosts=dead)
        for catalog in (default_catalog(), cvss3_catalog())
        for hosts, seed, dead in ((8, 3, 0), (12, 7, 0), (10, 4, 3), (20, 11, 4), (30, 1, 2))
    ]
    return [*nets, build_h1_counterexample(), dormant_fake_net_n2()]


def reference_report(net: NetworkModel, placement, seed: int = 0) -> EvaluationReport:
    """`evaluate_placement`'s report by an independent path, the oracle for its ban sets.

    The attack runs on a graph built with exactly the placement planted, and
    b is the optimum of the undecorated graph of a fresh copy of `net`, so
    neither reads the network's compiled part.
    """
    placement = frozenset(placement)
    trace = simulate_attack(apply_assignments(net, placement))
    baseline = optimal_cost(build_attack_graph(dataclasses.replace(net)))
    return EvaluationReport.from_trace(trace, len(placement), baseline, seed)

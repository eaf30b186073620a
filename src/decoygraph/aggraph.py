"""Logical attack graphs: generation, fake-vulnerability application, serialization.

A graph is the five-part structure (privilege nodes, exploit nodes, config
nodes, edges, goal). Edges point from a node to its logical requirements:
an exploit requires a privilege on some attacking host plus the vulnerable
configuration on the target (AND); a privilege is granted by any one of its
supporting exploits (OR). Costs live only on config nodes.

Generation uses a single remote-exploit rule evaluated to a least fixpoint:
whenever a privilege exists on x, (x, h) is reachable, and vulnerability v is
installed on h, the exploit "v on h attacked from x" exists, requiring the
privilege on x and the config (v, h), and granting the privilege on h. The
rule makes generation a pure function of the network and the planted
assignments, so a graph with fake vulnerabilities applied is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import json

from .errors import ValidationError
from .netmodel import Assignment, NetworkModel, check_assignment, normalize_cost


class NodeKind:
    PRIVILEGE = "privilege"
    EXPLOIT = "exploit"
    CONFIG = "config"


# ---------------------------------------------------------------------------
# Node identity. Deterministic ids keep provenance and golden files stable.
# ---------------------------------------------------------------------------


def priv_id(host: str) -> str:
    return f"p|h:{host}"


def exploit_id(dst: str, vuln: str, src: str) -> str:
    return f"e|h:{dst}|v:{vuln}|from:{src}"


def config_id(host: str, vuln: str) -> str:
    return f"c|h:{host}|v:{vuln}"


def config_owner(node_id: str) -> tuple[str, str]:
    """(host, vuln) encoded in a config node id."""
    if not node_id.startswith("c|h:"):
        raise ValidationError(f"{node_id} is not a config node id")
    body = node_id[len("c|h:") :]
    host, sep, vuln = body.partition("|v:")
    if not sep:
        raise ValidationError(f"malformed config node id {node_id}")
    return host, vuln


@dataclass(frozen=True)
class IndexedView:
    """A unit-rule graph's privileges and exploits as integers.

    Both are numbered in sorted id order, so comparing two indices compares
    their ids. Configs keep their ids: cost tables and ban sets are keyed by them.
    """

    privileges: tuple[str, ...]
    exploits: tuple[str, ...]
    source: int
    goal: int
    # per privilege: (exploit, config, granted privileges) of each exploit requiring it, by exploit
    consumers: tuple[tuple[tuple[int, str, tuple[int, ...]], ...], ...]
    # per exploit: its one required privilege and its one config
    required: tuple[int, ...]
    config: tuple[str, ...]


@dataclass(frozen=True)
class AttackGraph:
    privilege_nodes: frozenset[str]
    exploit_nodes: frozenset[str]
    config_nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    goal: str
    source: str
    config_cost: dict[str, float]
    fake_flag: dict[str, bool]
    provenance: dict[str, Assignment]

    # -- derived adjacency, computed once ------------------------------------

    @cached_property
    def requirements(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """exploit -> (required privileges, required configs), each sorted."""
        privs: dict[str, list[str]] = {e: [] for e in self.exploit_nodes}
        confs: dict[str, list[str]] = {e: [] for e in self.exploit_nodes}
        for a, b in self.edges:
            if a in self.exploit_nodes:
                (privs if b in self.privilege_nodes else confs)[a].append(b)
        return {e: (tuple(sorted(privs[e])), tuple(sorted(confs[e]))) for e in self.exploit_nodes}

    @cached_property
    def grants(self) -> dict[str, tuple[str, ...]]:
        """exploit -> privileges it grants, sorted."""
        out: dict[str, list[str]] = {e: [] for e in self.exploit_nodes}
        for p, e in self.edges:
            if p in self.privilege_nodes and e in self.exploit_nodes:
                out[e].append(p)
        return {e: tuple(sorted(v)) for e, v in out.items()}

    @cached_property
    def indexed(self) -> IndexedView | None:
        """Integer-indexed view for the Dijkstra planner; None unless the graph is unit-rule.

        Unit-rule means every exploit requires exactly one privilege and one
        config. Built in one pass over the edges, without `requirements` or
        `grants`.
        """
        privileges = tuple(sorted(self.privilege_nodes))
        exploits = tuple(sorted(self.exploit_nodes))
        p_index = {p: i for i, p in enumerate(privileges)}
        e_index = {e: i for i, e in enumerate(exploits)}
        if self.source not in p_index or self.goal not in p_index:
            return None
        required: list[int | None] = [None] * len(exploits)
        config: list[str | None] = [None] * len(exploits)
        grants: list[list[int]] = [[] for _ in exploits]
        for a, b in self.edges:
            e = e_index.get(a)
            if e is None:
                e = e_index.get(b)
                if e is not None and a in p_index:
                    grants[e].append(p_index[a])
            elif b in p_index:
                if required[e] is not None:
                    return None
                required[e] = p_index[b]
            else:
                if config[e] is not None:
                    return None
                config[e] = b
        if None in required or None in config:
            return None
        consumers: list[list[tuple[int, str, tuple[int, ...]]]] = [[] for _ in privileges]
        for e, p in enumerate(required):
            consumers[p].append((e, config[e], tuple(sorted(grants[e]))))
        return IndexedView(
            privileges=privileges,
            exploits=exploits,
            source=p_index[self.source],
            goal=p_index[self.goal],
            consumers=tuple(tuple(c) for c in consumers),
            required=tuple(required),
            config=tuple(config),
        )

    @property
    def unit_rule(self) -> bool:
        """Whether every exploit requires exactly one privilege and one config."""
        return self.indexed is not None

    @property
    def nodes(self) -> frozenset[str]:
        return self.privilege_nodes | self.exploit_nodes | self.config_nodes

    def fake_configs(self) -> frozenset[str]:
        return frozenset(c for c in self.config_nodes if self.fake_flag.get(c, False))

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        nodes = []
        for node in sorted(self.nodes):
            if node in self.privilege_nodes:
                entry: dict = {"id": node, "kind": NodeKind.PRIVILEGE}
            elif node in self.exploit_nodes:
                entry = {"id": node, "kind": NodeKind.EXPLOIT}
            else:
                entry = {
                    "id": node,
                    "kind": NodeKind.CONFIG,
                    "cost": self.config_cost[node],
                    "fake": self.fake_flag.get(node, False),
                }
            if node in self.provenance:
                entry["provenance"] = self.provenance[node].to_dict()
            nodes.append(entry)
        return {
            "nodes": nodes,
            "edges": [{"from": a, "to": b} for a, b in sorted(self.edges)],
            "goal": self.goal,
            "source": self.source,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping) -> "AttackGraph":
        privs, exploits, configs = set(), set(), set()
        cost: dict[str, float] = {}
        fake: dict[str, bool] = {}
        provenance: dict[str, Assignment] = {}
        for entry in data["nodes"]:
            node, kind = entry["id"], entry["kind"]
            if kind == NodeKind.PRIVILEGE:
                privs.add(node)
            elif kind == NodeKind.EXPLOIT:
                exploits.add(node)
            elif kind == NodeKind.CONFIG:
                configs.add(node)
                cost[node] = float(entry["cost"])
                fake[node] = bool(entry.get("fake", False))
            else:
                raise ValidationError(f"unknown node kind {kind!r}")
            if "provenance" in entry:
                provenance[node] = Assignment.from_dict(entry["provenance"])
        return cls(
            privilege_nodes=frozenset(privs),
            exploit_nodes=frozenset(exploits),
            config_nodes=frozenset(configs),
            edges=frozenset((e["from"], e["to"]) for e in data["edges"]),
            goal=data["goal"],
            source=data["source"],
            config_cost=cost,
            fake_flag=fake,
            provenance=provenance,
        )

    def to_dot(self) -> str:
        """Graphviz rendering: diamonds=privilege, ovals=exploit, boxes=config.

        Fake configs are dashed.
        """
        lines = ["digraph attackgraph {"]
        for node in sorted(self.nodes):
            if node in self.privilege_nodes:
                shape, extra, label = "diamond", "", node
            elif node in self.exploit_nodes:
                shape, extra, label = "ellipse", "", node
            else:
                shape = "box"
                extra = ", style=dashed" if self.fake_flag.get(node, False) else ""
                label = f"{node}\\ncost={self.config_cost[node]}"
            marker = ""
            if node == self.goal:
                marker = ", penwidth=2"
            lines.append(f'  "{node}" [shape={shape}, label="{label}"{extra}{marker}];')
        for a, b in sorted(self.edges):
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def build_attack_graph(network: NetworkModel) -> AttackGraph:
    """Generate the baseline graph (no fake assignments applied)."""
    return _generate(network, ())


def apply_assignments(network: NetworkModel, assignments: Iterable[Assignment]) -> AttackGraph:
    """Regenerate the graph with the fake assignments planted.

    Nodes absent from the baseline graph carry provenance pointing at the
    assignment that first enabled them; configs matching an assignment's own
    (host, vuln) are flagged fake. apply_assignments(network, ()) equals
    build_attack_graph(network).
    """
    ordered = tuple(sorted(set(assignments)))
    for a in ordered:
        check_assignment(network, a)
    return _generate(network, ordered)


def _generate(network: NetworkModel, assignments: tuple[Assignment, ...]) -> AttackGraph:
    applied = network.with_assignments(assignments) if assignments else network
    fake_pairs = {(a.host_id, a.vuln_id): a for a in assignments}
    catalog = applied.catalog
    children: dict[str, list[str]] = {}
    for src, dst in sorted(applied.reachability):
        children.setdefault(src, []).append(dst)
    installed = {h.host_id: sorted(h.installed_vulns) for h in applied.sorted_hosts()}

    privs: set[str] = set()
    exploits: set[str] = set()
    configs: set[str] = set()
    edges: set[tuple[str, str]] = set()
    cost: dict[str, float] = {}
    fake: dict[str, bool] = {}
    cause: dict[str, Assignment | None] = {}
    priv_host: dict[str, str] = {}  # privilege node id -> host/entry label

    entry = applied.attacker_entry
    source = priv_id(entry)
    privs.add(source)
    cause[source] = None
    priv_host[source] = entry

    def sweep(allow_fakes: bool) -> None:
        # Breadth-first waves over privilege hosts; sorted order at every level
        # keeps first-cause attribution deterministic.
        frontier = sorted(priv_host[p] for p in privs)
        seen_frontier = set(frontier)
        while frontier:
            fresh: list[str] = []
            for x in frontier:
                px = priv_id(x)
                for dst in children.get(x, ()):
                    for vuln in installed.get(dst, ()):
                        is_fake = (dst, vuln) in fake_pairs
                        if is_fake and not allow_fakes:
                            continue
                        eid = exploit_id(dst, vuln, x)
                        if eid in exploits:
                            continue
                        exploits.add(eid)
                        cause[eid] = fake_pairs[(dst, vuln)] if is_fake else cause[px]
                        edges.add((eid, px))
                        cid = config_id(dst, vuln)
                        if cid not in configs:
                            configs.add(cid)
                            cost[cid] = normalize_cost(catalog[vuln])
                            fake[cid] = is_fake
                            cause[cid] = fake_pairs[(dst, vuln)] if is_fake else cause[eid]
                        edges.add((eid, cid))
                        pd = priv_id(dst)
                        if pd not in privs:
                            privs.add(pd)
                            cause[pd] = cause[eid]
                            priv_host[pd] = dst
                            if dst not in seen_frontier:
                                fresh.append(dst)
                                seen_frontier.add(dst)
                        edges.add((pd, eid))
            if not fresh:
                # Re-scan everything once per wave only when new privileges
                # appeared; otherwise the fixpoint is reached.
                break
            frontier = sorted(fresh)

    sweep(allow_fakes=False)
    baseline_nodes = privs | exploits | configs
    goal_node = priv_id(network.goal.host_id)
    baseline_nodes = baseline_nodes | {goal_node}
    if fake_pairs:
        # Second phase: fakes join the rule base. Every privilege may now fire
        # previously impossible exploits, so re-seed the frontier with all of them.
        sweep(allow_fakes=True)

    if goal_node not in privs:
        # The goal privilege always exists, supported or not; derivability is
        # the planner's concern.
        privs.add(goal_node)
        cause[goal_node] = None
        priv_host[goal_node] = network.goal.host_id

    provenance = {
        node: node_cause
        for node, node_cause in cause.items()
        if node_cause is not None and node not in baseline_nodes
    }
    return AttackGraph(
        privilege_nodes=frozenset(privs),
        exploit_nodes=frozenset(exploits),
        config_nodes=frozenset(configs),
        edges=frozenset(edges),
        goal=goal_node,
        source=source,
        config_cost=cost,
        fake_flag=fake,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_graph(graph: AttackGraph) -> list[str]:
    """Collect invariant violations. Empty list means the graph is well-formed."""
    violations: list[str] = []
    np, ne, nc = graph.privilege_nodes, graph.exploit_nodes, graph.config_nodes
    for a, b, label in ((np, ne, "privilege/exploit"), (np, nc, "privilege/config"), (ne, nc, "exploit/config")):
        overlap = a & b
        if overlap:
            violations.append(f"node sets {label} overlap: {sorted(overlap)}")
    if graph.goal not in np:
        violations.append(f"goal {graph.goal} is not a privilege node")
    if graph.source not in np:
        violations.append(f"source {graph.source} is not a privilege node")
    all_nodes = np | ne | nc
    for a, b in sorted(graph.edges):
        if a not in all_nodes or b not in all_nodes:
            violations.append(f"edge ({a}, {b}) references an unknown node")
        elif a in np and b not in ne:
            violations.append(f"edge ({a}, {b}): privilege may only require an exploit")
        elif a in ne and b not in np | nc:
            violations.append(f"edge ({a}, {b}): exploit may only require privilege or config")
        elif a in nc:
            violations.append(f"edge ({a}, {b}): config nodes have no requirements")
    outgoing: dict[str, set[str]] = {n: set() for n in all_nodes}
    for a, b in graph.edges:
        if a in outgoing:
            outgoing[a].add(b)
    for e in sorted(ne):
        if not outgoing[e]:
            violations.append(f"exploit {e} has no requirements")
    for p in sorted(np):
        # The source is an axiom; the goal may exist unsupported in networks
        # where it is simply not attackable.
        if p in (graph.source, graph.goal):
            continue
        if not any(t in ne for t in outgoing[p]):
            violations.append(f"privilege {p} has no supporting exploit")
    if set(graph.config_cost) != set(nc):
        violations.append("config_cost domain differs from the config node set")
    for c in sorted(nc):
        value = graph.config_cost.get(c)
        if value is not None and not 0.0 <= value <= 1.0:
            violations.append(f"config {c} cost {value} outside [0, 1]")
    if set(graph.fake_flag) != set(nc):
        violations.append("fake_flag domain differs from the config node set")
    for c in sorted(nc):
        entry = graph.provenance.get(c)
        own = entry is not None and (entry.host_id, entry.vuln_id) == config_owner(c)
        if graph.fake_flag.get(c, False) != own:
            violations.append(f"config {c}: fake flag and provenance disagree")
    for node, assignment in sorted(graph.provenance.items()):
        if node not in all_nodes:
            violations.append(f"provenance references unknown node {node}")
        if not assignment.fake:
            violations.append(f"provenance for {node} carries a non-fake assignment")
    return violations


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def load_graph(path: str | Path) -> AttackGraph:
    return AttackGraph.from_dict(json.loads(Path(path).read_text()))


def save_graph(graph: AttackGraph, path: str | Path) -> None:
    Path(path).write_text(graph.to_json())

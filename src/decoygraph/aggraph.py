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

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

import json

from .errors import ValidationError
from .netmodel import Assignment, NetworkModel, check_placement, malformed, normalize_cost


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
    """A unit-rule graph's privileges, exploits and configs as integers.

    Privileges and exploits are numbered in sorted id order, so comparing two
    indices compares their ids. Configs are numbered in order of first use
    along the exploits, then those no exploit requires, in sorted id order;
    the costs and fake flags are listed by that number. Per privilege, the
    arcs are (exploit, config, granted privilege) for each exploit requiring
    it, one per privilege the exploit grants, in exploit order and then in
    privilege order. The planner's Dijkstra scans these arcs and never reads
    a config id. Its plans keep their chain of arcs and this view, and read
    their exploit, config and privilege ids off the view on first use.
    """

    privileges: tuple[str, ...]
    exploits: tuple[str, ...]
    configs: tuple[str, ...]
    source: int
    goal: int
    arcs: tuple[tuple[tuple[int, int, int], ...], ...]
    # per config: its face cost and whether it is fake
    cost: tuple[float, ...]
    fake: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class AttackGraph:
    """An attack graph; graphs equal when their nine fields do.

    Loaded and hand-built graphs are given all nine fields and scan `edges`
    for their integer view. Generated graphs (`_generate`) are born with the
    view, and derive the string-keyed node sets, edges and provenance from it
    on first read.
    """

    privilege_nodes: frozenset[str]
    exploit_nodes: frozenset[str]
    config_nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    goal: str
    source: str
    config_cost: dict[str, float]
    fake_flag: dict[str, bool]
    provenance: dict[str, Assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttackGraph):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name) for f in fields(AttackGraph))

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
        config node. Generated graphs are born with it; other graphs build it
        in one pass over the edges, numbering their configs by the same rule,
        so a loaded copy of a generated graph has the view it was born with.
        `requirements` and `grants` are not read off it: they scan the edges,
        for the general planner and the oracles.
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
        if None in required or None in config or not self.config_nodes.issuperset(config):
            return None
        c_index: dict[str, int] = {}
        for c in config:
            c_index.setdefault(c, len(c_index))
        for c in sorted(self.config_nodes - c_index.keys()):
            c_index[c] = len(c_index)
        configs = tuple(c_index)
        arcs: list[list[tuple[int, int, int]]] = [[] for _ in privileges]
        for e, p in enumerate(required):
            arcs[p].extend((e, c_index[config[e]], q) for q in sorted(grants[e]))
        return IndexedView(
            privileges=privileges,
            exploits=exploits,
            configs=configs,
            source=p_index[self.source],
            goal=p_index[self.goal],
            arcs=tuple(map(tuple, arcs)),
            cost=tuple(self.config_cost[c] for c in configs),
            fake=tuple(self.fake_flag.get(c, False) for c in configs),
        )

    @property
    def unit_rule(self) -> bool:
        """Whether every exploit requires exactly one privilege and one config."""
        return self.indexed is not None

    @property
    def nodes(self) -> frozenset[str]:
        return self.privilege_nodes | self.exploit_nodes | self.config_nodes

    def fake_configs(self) -> frozenset[str]:
        """The configs flagged fake (`validate_graph` checks that `fake_flag` covers exactly the configs)."""
        return frozenset(compress(self.fake_flag, self.fake_flag.values()))

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
                raise ValueError(f"unknown node kind {kind!r}")
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
    return _generate(network, [])


def apply_assignments(network: NetworkModel, assignments: Iterable[Assignment]) -> AttackGraph:
    """Regenerate the graph with the fake assignments planted.

    Nodes absent from the baseline graph carry provenance pointing at the
    assignment that first enabled them; configs matching an assignment's own
    (host, vuln) are flagged fake. apply_assignments(network, ()) equals
    build_attack_graph(network). Each distinct assignment must pass
    `check_assignment`.
    """
    return _generate(network, check_placement(network, assignments))


def _generate(network: NetworkModel, planted: list[Assignment]) -> AttackGraph:
    """Least fixpoint of the remote rule, real vulns first, then with `planted` added.

    `planted` holds the distinct assignments, sorted.
    """
    catalog = network.catalog
    # an assignment is its (host, vuln) pair, so this finds the planted object by pair
    planted_at = {a: a for a in planted}
    children: dict[str, list[str]] = {}
    for src, dst in sorted(network.reachability):
        children.setdefault(src, []).append(dst)
    real = {h.host_id: sorted(h.installed_vulns) for h in network.sorted_hosts()}

    # one row per exploit: (id, attacking host, target host, config, first cause)
    rows: list[tuple[str, str, str, str, Assignment | None]] = []
    # reached host -> the assignment that first enabled its privilege
    host_cause: dict[str, Assignment | None] = {}
    cost: dict[str, float] = {}
    # a config costs what its vuln costs, so each vuln is priced (and checked) once
    costs_by_vuln: dict[str, float] = {}
    fake: dict[str, bool] = {}
    config_cause: dict[str, Assignment] = {}

    def wave(frontier: list[str], vulns: Mapping[str, list[str]]) -> list[str]:
        # One breadth-first wave: fire every rule from the frontier's hosts onto
        # `vulns`, and return the hosts first reached, sorted. Sorted order at
        # every level keeps first-cause attribution deterministic.
        fresh: list[str] = []
        for x in frontier:
            x_cause = host_cause[x]
            for dst in children.get(x, ()):
                for vuln in vulns.get(dst, ()):
                    assignment = planted_at.get((dst, vuln))
                    cause = x_cause if assignment is None else assignment
                    cid = config_id(dst, vuln)
                    rows.append((exploit_id(dst, vuln, x), x, dst, cid, cause))
                    if cid not in cost:
                        vuln_cost = costs_by_vuln.get(vuln)
                        if vuln_cost is None:
                            vuln_cost = costs_by_vuln[vuln] = normalize_cost(catalog[vuln])
                        cost[cid] = vuln_cost
                        fake[cid] = assignment is not None
                        if cause is not None:
                            config_cause[cid] = cause
                    if dst not in host_cause:
                        host_cause[dst] = cause
                        fresh.append(dst)
        fresh.sort()
        return fresh

    # A host enters a frontier once per phase, so no exploit is created twice.
    # Every node the real phase creates has no cause, and every node the fake
    # phase creates has one, so the causes are the provenance (the goal aside).
    entry = network.attacker_entry
    host_cause[entry] = None
    frontier = [entry]
    while frontier:
        frontier = wave(frontier, real)
    if planted:
        # Second phase: fakes join the rule base. The real phase is a complete
        # fixpoint, so the hosts it reached have fired every real rule already;
        # they only fire onto planted vulns. Hosts first reached from here on
        # fire onto everything.
        fakes: dict[str, list[str]] = {}
        for host, vuln in planted:
            fakes.setdefault(host, []).append(vuln)
        # check_placement keeps planted vulns off the installed lists, so no duplicates
        every = {**real, **{h: sorted(real[h] + vulns) for h, vulns in fakes.items()}}
        frontier = wave(sorted(host_cause), fakes)
        while frontier:
            frontier = wave(frontier, every)
    goal_host = network.goal.host_id
    # The goal privilege always exists, supported or not (derivability is the
    # planner's concern), and never has provenance: it belongs to the baseline.
    host_cause[goal_host] = None

    # Exploits numbered in sorted id order, which is not the order of their
    # (host, vuln, host) parts: "h1|" sorts after "h10", "v1|" after "v1x".
    rows.sort(key=itemgetter(0))
    # privilege ids share the prefix "p|h:", so they sort as their hosts do
    hosts = sorted(host_cause)
    p_index = {h: i for i, h in enumerate(hosts)}
    # configs numbered in order of first use along the sorted exploits
    c_index: dict[str, int] = {}
    arcs: list[list[tuple[int, int, int]]] = [[] for _ in hosts]
    for e, (_, x, dst, cid, _) in enumerate(rows):
        arcs[p_index[x]].append((e, c_index.setdefault(cid, len(c_index)), p_index[dst]))
    configs = tuple(c_index)
    view = IndexedView(
        privileges=tuple(map(priv_id, hosts)),
        exploits=tuple(map(itemgetter(0), rows)),
        configs=configs,
        source=p_index[entry],
        goal=p_index[goal_host],
        arcs=tuple(map(tuple, arcs)),
        cost=tuple(map(cost.__getitem__, configs)),
        fake=tuple(map(fake.__getitem__, configs)),
    )
    return _GeneratedGraph._born(view, cost, fake, rows, host_cause, config_cause)


class _GeneratedGraph(AttackGraph):
    """A graph from `_generate`, born with its integer view.

    The planner and the attacker read only the view (costs and fake flags
    included) and, when a fake is discovered, the provenance. The string-keyed
    fields are derived on first read, and `requirements` and `grants`, which
    only the general planner and the oracles read, are scanned from the
    derived edges. `dataclasses.replace` builds a copy through
    `AttackGraph.__init__`, with all nine fields given and the view scanned
    from its edges.
    """

    @classmethod
    def _born(
        cls,
        view: IndexedView,
        cost: dict[str, float],
        fake: dict[str, bool],
        rows: list[tuple[str, str, str, str, Assignment | None]],
        host_cause: dict[str, Assignment | None],
        config_cause: dict[str, Assignment],
    ) -> "_GeneratedGraph":
        graph = cls.__new__(cls)
        vars(graph).update(
            goal=view.privileges[view.goal],
            source=view.privileges[view.source],
            config_cost=cost,
            fake_flag=fake,
            indexed=view,
            _rows=rows,
            _host_cause=host_cause,
            _config_cause=config_cause,
        )
        return graph

    @cached_property
    def privilege_nodes(self) -> frozenset[str]:
        return frozenset(self.indexed.privileges)

    @cached_property
    def exploit_nodes(self) -> frozenset[str]:
        return frozenset(self.indexed.exploits)

    @cached_property
    def config_nodes(self) -> frozenset[str]:
        return frozenset(self.config_cost)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        out: set[tuple[str, str]] = set()
        for eid, x, dst, cid, _ in self._rows:
            out.add((eid, priv_id(x)))
            out.add((eid, cid))
            out.add((priv_id(dst), eid))
        return frozenset(out)

    @cached_property
    def provenance(self) -> dict[str, Assignment]:
        out = {eid: cause for eid, _, _, _, cause in self._rows if cause is not None}
        out.update(self._config_cause)
        out.update((priv_id(h), cause) for h, cause in self._host_cause.items() if cause is not None)
        return out


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
        if graph.fake_flag.get(c, False) != (entry is not None and entry == config_owner(c)):
            violations.append(f"config {c}: fake flag and provenance disagree")
    for node in sorted(graph.provenance):
        if node not in all_nodes:
            violations.append(f"provenance references unknown node {node}")
    return violations


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def load_graph(path: str | Path) -> AttackGraph:
    """Read a graph file; ValidationError, naming every violation, if it is malformed."""
    data = json.loads(Path(path).read_text())
    with malformed(path, "graph"):
        graph = AttackGraph.from_dict(data)
    violations = validate_graph(graph)
    if violations:
        raise ValidationError(f"{path}: invalid attack graph: " + "; ".join(violations))
    return graph


def save_graph(graph: AttackGraph, path: str | Path) -> None:
    Path(path).write_text(graph.to_json())

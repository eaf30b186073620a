"""Command-line surface for the toolkit.

Artifacts (JSON/CSV) are byte-stable for fixed seeds: wall-clock timings are
left out of outputs unless --timings is given, since they would differ
between otherwise identical runs. Exit codes: 0 on success, 2 on validation
or configuration errors, 3 when the goal is unreachable.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import click

from .aggraph import apply_assignments, load_graph, save_graph
from .attacker import EvaluationReport, evaluate_placement, simulate_attack
from .errors import ConfigurationError, Unreachable, ValidationError
from .fixtures import EXPECTED, FIXTURES
from .netmodel import (
    Assignment,
    Catalog,
    NetworkModel,
    default_catalog,
    generate_network,
    load_catalog,
    load_network,
    malformed,
    network_bundle,
    network_to_json,
)
from .placement_random import draw_budget_placement, draw_placement
from .placement_search import PlacementProblem, SearchResult, astar, dfbnb, exhaustive_best
from .planner import optimal_plan

_CSV_COLUMNS = [
    "network_id",
    "n_hosts",
    "approach",
    "budget",
    "n_assignments",
    "p1",
    "p2_states",
    "p2_ms",
    "p3",
    "p4",
    "seed",
    "trial",
    "expanded_nodes",
    "budget_used",
    "search_ms",
    "p4_budget",
    "error",
]


# What `obfuscate search` and a sweep's search approach use for a field not given.
_SEARCH_DEFAULTS = dict(algorithm="dfbnb", ordering="utility", heuristic="h2", pool_size=100, max_subsets=10_000)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError, ConfigurationError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)
        except Unreachable as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)

    return wrapper


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _catalog_from_option(catalog_path: str | None) -> Catalog:
    if catalog_path:
        return load_catalog(catalog_path)
    return default_catalog()


def _load_network_file(path: str, catalog_path: str | None) -> NetworkModel:
    """Read a network file, bare or bundled; `--catalog`, when given, replaces a bundle's catalog."""
    return load_network(path, load_catalog(catalog_path) if catalog_path else None)


def _load_assignments(path: str) -> tuple[Assignment, ...]:
    with malformed(path, "assignments"):
        data = json.loads(Path(path).read_text())
        if isinstance(data, dict):
            data = data["assignments"]
        return tuple(sorted(Assignment.from_dict(item) for item in data))


def _assignments_payload(assignments) -> list[dict]:
    return [a.to_dict() for a in sorted(assignments)]


def _untime_trace(trace: dict) -> None:
    """Drop the planner's wall time from a simulation trace's dict."""
    trace["planning_effort"].pop("elapsed_ms", None)


def _report_payload(report: EvaluationReport, timings: bool) -> dict:
    payload = report.to_dict()
    if not timings:
        payload["p2_ms"] = None
        _untime_trace(payload["trace"])
    return payload


def _row(network_id: str, network: NetworkModel, approach: str, budget: int | str, seed: int, trial: int) -> dict:
    """A CSV row with its identifying columns set and every other column empty."""
    return {
        **dict.fromkeys(_CSV_COLUMNS, ""),
        "network_id": network_id,
        "n_hosts": network.n_hosts,
        "approach": approach,
        "budget": budget,
        "seed": seed,
        "trial": trial,
    }


def _report_columns(report: EvaluationReport, timings: bool) -> dict:
    """The CSV columns that come from an evaluation report."""
    return {
        "n_assignments": report.n_assignments,
        "p1": report.p1,
        "p2_states": report.p2.expanded_states,
        "p2_ms": report.p2.elapsed_ms if timings else "",
        "p3": report.p3,
        "p4": report.p4,
    }


def _search_payload(result: SearchResult, timings: bool) -> dict:
    payload = result.to_dict()
    if not timings:
        payload.pop("elapsed_ms", None)
    return payload


@click.group()
def main() -> None:
    """Model networks, plant fake vulnerabilities, and measure attacker cost."""


@main.command()
@click.option("--hosts", type=int, required=True, help="Number of hosts to generate.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dead-hosts", type=int, default=0, show_default=True, help="Hosts with no vulnerabilities.")
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None, help="Output path (stdout when omitted).")
@_guarded
def generate(hosts: int, seed: int, dead_hosts: int, catalog_path: str | None, out: str | None) -> None:
    """Generate a synthetic layered network with its catalog."""
    catalog = _catalog_from_option(catalog_path)
    network = generate_network(hosts, catalog, seed, dead_hosts=dead_hosts)
    _emit(network_to_json(network), out)


@main.command("build-graph")
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None)
@click.option("--assignments", "assignments_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
@_guarded
def build_graph_cmd(
    network_path: str, catalog_path: str | None, assignments_path: str | None, out: str | None
) -> None:
    """Build the attack graph, with fakes applied when assignments are given.

    With no assignments the placement is empty, and `apply_assignments`
    gives the baseline graph.
    """
    network = _load_network_file(network_path, catalog_path)
    assignments = _load_assignments(assignments_path) if assignments_path else ()
    _emit(apply_assignments(network, assignments).to_json(), out)


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_guarded
def plan(graph_path: str, fmt: str, out: str | None) -> None:
    """Compute the cheapest attack plan on a graph, at face value."""
    graph = load_graph(graph_path)
    result = optimal_plan(graph)
    if fmt == "json":
        _emit(_dumps(result.to_dict()), out)
        return
    lines = [f"cost: {result.cost}"]
    lines += [f"{i + 1}. {exploit}" for i, exploit in enumerate(result.exec_order)]
    _emit("\n".join(lines) + "\n", out)


def _search(
    network: NetworkModel,
    budget: int,
    seed: int,
    problem: Callable[[], PlacementProblem] | None,
    algorithm: str,
    ordering: str,
    heuristic: str,
    pool_size: int,
    max_subsets: int,
) -> SearchResult:
    """One placement search; `problem` returns a shared PlacementProblem, or is None to build one."""
    if algorithm not in ("dfbnb", "astar", "exhaustive"):
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; expected dfbnb, astar or exhaustive")
    shared = problem() if problem else None
    if algorithm == "exhaustive":
        return exhaustive_best(network, budget, max_subsets, shared)
    engine = dfbnb if algorithm == "dfbnb" else astar
    return engine(network, budget, ordering, heuristic, seed, pool_size, shared)


def _reads_seed(algorithm, ordering) -> bool:
    """Whether `_search` with these settings reads its seed: only dfbnb and astar do, under the random ordering."""
    return algorithm != "exhaustive" and ordering == "random"


@main.group()
def obfuscate() -> None:
    """Plant fake vulnerabilities."""


@obfuscate.command("random")
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None)
@click.option("--fraction", type=float, default=None, help="Fraction of hosts to decorate.")
@click.option("--count", type=int, default=None, help="Exact number of hosts to decorate.")
@click.option("--budget", type=int, default=None, help="Exact number of fakes, drawn network-wide.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--out-graph", type=click.Path(), default=None, help="Also write the decorated graph.")
@_guarded
def obfuscate_random_cmd(
    network_path: str,
    catalog_path: str | None,
    fraction: float | None,
    count: int | None,
    budget: int | None,
    seed: int,
    out: str | None,
    out_graph: str | None,
) -> None:
    """Place fakes at random (host-fraction, host-count, or flat budget)."""
    network = _load_network_file(network_path, catalog_path)
    modes = [m for m in (fraction, count, budget) if m is not None]
    if len(modes) != 1:
        raise ConfigurationError("give exactly one of --fraction, --count, --budget")
    if budget is not None:
        assignments = draw_budget_placement(network, budget, seed)
    else:
        assignments = draw_placement(network, fraction if count is None else count, seed)
    payload = {
        "assignments": _assignments_payload(assignments),
        "n_assignments": len(assignments),
        "seed": seed,
    }
    _emit(_dumps(payload), out)
    if out_graph:
        save_graph(apply_assignments(network, assignments), out_graph)


@obfuscate.command("search")
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None)
@click.option("--budget", type=int, required=True)
@click.option(
    "--algorithm",
    type=click.Choice(["dfbnb", "astar", "exhaustive"]),
    default=_SEARCH_DEFAULTS["algorithm"],
    show_default=True,
)
@click.option(
    "--ordering",
    type=click.Choice(["utility", "shortest-path", "random"]),
    default=_SEARCH_DEFAULTS["ordering"],
    show_default=True,
)
@click.option(
    "--heuristic", type=click.Choice(["h1", "h2"]), default=_SEARCH_DEFAULTS["heuristic"], show_default=True
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--pool-size", type=int, default=_SEARCH_DEFAULTS["pool_size"], show_default=True)
@click.option("--max-subsets", type=int, default=_SEARCH_DEFAULTS["max_subsets"], show_default=True)
@click.option("--timings", is_flag=True, help="Include wall-clock fields (breaks byte-stability).")
@click.option("--out", type=click.Path(), default=None)
@click.option("--out-graph", type=click.Path(), default=None)
@_guarded
def obfuscate_search_cmd(
    network_path: str,
    catalog_path: str | None,
    budget: int,
    algorithm: str,
    ordering: str,
    heuristic: str,
    seed: int,
    pool_size: int,
    max_subsets: int,
    timings: bool,
    out: str | None,
    out_graph: str | None,
) -> None:
    """Search for the placement that maximizes the attacker's cost."""
    network = _load_network_file(network_path, catalog_path)
    result = _search(network, budget, seed, None, algorithm, ordering, heuristic, pool_size, max_subsets)
    payload = {
        "search": _search_payload(result, timings),
        "assignments": _assignments_payload(result.best_assignments),
        "seed": seed,
    }
    _emit(_dumps(payload), out)
    if out_graph:
        save_graph(apply_assignments(network, result.best_assignments), out_graph)


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), default=None)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None)
@click.option("--assignments", "assignments_path", type=click.Path(exists=True), default=None)
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--timings", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@_guarded
def simulate(
    network_path: str | None,
    catalog_path: str | None,
    assignments_path: str | None,
    graph_path: str | None,
    timings: bool,
    out: str | None,
) -> None:
    """Replay the attacker's plan/fail/replan loop and emit the trace."""
    if graph_path and (network_path or catalog_path or assignments_path):
        raise ConfigurationError("--graph goes alone; --catalog and --assignments go with --network")
    if network_path:
        network = _load_network_file(network_path, catalog_path)
        assignments = _load_assignments(assignments_path) if assignments_path else ()
        graph = apply_assignments(network, assignments)
    elif graph_path:
        graph = load_graph(graph_path)
    else:
        raise ConfigurationError("give --network (with optional --assignments) or --graph")
    trace = simulate_attack(graph)
    payload = trace.to_dict()
    if not timings:
        _untime_trace(payload)
    _emit(_dumps(payload), out)


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True), default=None)
@click.option("--assignments", "assignments_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--timings", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@_guarded
def evaluate(
    network_path: str,
    catalog_path: str | None,
    assignments_path: str,
    seed: int,
    fmt: str,
    timings: bool,
    out: str | None,
) -> None:
    """Evaluate a placement: recalculations, effort, cost ratio, precision."""
    network = _load_network_file(network_path, catalog_path)
    assignments = _load_assignments(assignments_path)
    report = evaluate_placement(network, assignments, seed=seed)
    if fmt == "json":
        _emit(_dumps(_report_payload(report, timings)), out)
        return
    row = {**_row(Path(network_path).stem, network, "evaluate", "", seed, 0), **_report_columns(report, timings)}
    _emit(_rows_to_csv([row]), out)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


_SPEC_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string"}


def _spec(value, kind: type, name: str):
    """A sweep spec value that must have the JSON type `kind`; a bool is not an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigurationError(f"sweep spec {name} must be {_SPEC_KINDS[kind]}, got {value!r}")
    return value


def _count(value, name: str) -> int:
    """A sweep spec value that must be a non-negative integer."""
    if _spec(value, int, name) < 0:
        raise ConfigurationError(f"sweep spec {name} must be a non-negative integer, got {value!r}")
    return value


def _network_spec(value) -> dict:
    """A sweep spec network entry: a path or hosts, string path and id, and a
    generated network's integer hosts, seed and dead_hosts, where given."""
    net_spec = _spec(value, dict, "network")
    if "path" not in net_spec and "hosts" not in net_spec:
        raise ConfigurationError(f"network spec {net_spec!r} needs a path or hosts")
    for name in ("path", "id"):
        if name in net_spec:
            _spec(net_spec[name], str, f"network {name}")
    if "path" not in net_spec:
        for name in ("hosts", "seed", "dead_hosts"):
            if name in net_spec:
                _spec(net_spec[name], int, name)
    return net_spec


def _approach_label(approach: dict) -> str:
    """The row's approach column; any field value prints, valid or not."""
    name = approach.get("name", "")
    if name == "random-hosts":
        return f"random-hosts:{approach.get('fraction')}"
    if name == "search":
        given = {**_SEARCH_DEFAULTS, **approach}
        return f"search:{given['algorithm']}:{given['heuristic']}:{given['ordering']}"
    return name


# Errors that turn a sweep row into an error row instead of ending the sweep.
_ROW_ERRORS = (ValidationError, ConfigurationError, Unreachable)


def _sweep_network(net_spec: dict, catalog: Catalog | None, spec_path: str) -> tuple[str, NetworkModel]:
    """A sweep spec network entry's id and network, read from its file or
    generated; a generator error names the entry and the spec.

    `catalog` is the spec's, read once for every entry, or None: a file then
    keeps its bundled catalog, and a network is generated on the built-in one.
    """
    if "path" in net_spec:
        network = load_network(net_spec["path"], catalog)
        return net_spec.get("id", Path(net_spec["path"]).stem), network
    hosts, seed = net_spec["hosts"], net_spec.get("seed", 0)
    try:
        network = generate_network(
            hosts, default_catalog() if catalog is None else catalog, seed, dead_hosts=net_spec.get("dead_hosts", 0)
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"network spec {net_spec!r}: {exc} (in {spec_path})") from None
    return net_spec.get("id", f"gen-{hosts}-{seed}"), network


def _sweep_cell(
    network_id: str,
    network: NetworkModel,
    problem: Callable[[], PlacementProblem],
    evaluated: dict[frozenset, dict],
    approach: dict,
    budget: int,
    trial: int,
    seed: int,
    timings: bool,
) -> dict:
    """One sweep row; `problem()` returns the network's shared PlacementProblem.

    `evaluated` holds the network's report columns by placement: a placement
    is evaluated once, and later rows with it copy its columns.
    """
    name = approach.get("name", "")
    row = _row(network_id, network, _approach_label(approach), budget, seed, trial)
    try:
        result = None
        if name == "random":
            assignments = draw_budget_placement(network, budget, seed)
        elif name == "random-hosts":
            if "fraction" not in approach:
                raise ConfigurationError("approach random-hosts needs a fraction")
            fraction = approach["fraction"]
            # a JSON integer is a fraction too (1 is every host), never a host count
            assignments = draw_placement(network, float(fraction) if type(fraction) is int else fraction, seed)
        elif name == "search":
            settings = {k: _spec(approach.get(k, v), type(v), k) for k, v in _SEARCH_DEFAULTS.items()}
            result = _search(network, budget, seed, problem, **settings)
            assignments = result.best_assignments
        else:
            raise ConfigurationError(f"unknown approach {name!r}")
        placement = frozenset(assignments)  # evaluate reads the distinct assignments, in any order
        columns = evaluated.get(placement)
        if columns is None:
            report = evaluate_placement(network, placement, seed=seed)
            columns = evaluated[placement] = _report_columns(report, timings)
        row.update(columns)
        if budget:
            row["p4_budget"] = (columns["p1"] - 1) / budget
        if result is not None:
            row["expanded_nodes"] = result.expanded_nodes
            row["budget_used"] = result.budget_used
            row["search_ms"] = result.elapsed_ms if timings else ""
    except _ROW_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _summarize(rows: list[dict]) -> dict:
    cells: dict[tuple, dict] = {}
    for row in rows:
        key = (row["network_id"], row["approach"], row["budget"])
        cell = cells.setdefault(
            key,
            {
                "network_id": row["network_id"],
                "approach": row["approach"],
                "budget": row["budget"],
                "trials": 0,
                "errors": 0,
                "_ok": [],
            },
        )
        cell["trials"] += 1
        if row["error"]:
            cell["errors"] += 1
        else:
            cell["_ok"].append(row)
    out = []
    for key in sorted(cells, key=lambda k: (str(k[0]), str(k[1]), str(k[2]))):
        cell = cells[key]
        ok = cell.pop("_ok")
        for field in ("p1", "p3", "p4", "p2_states", "n_assignments", "expanded_nodes"):
            values = [float(r[field]) for r in ok if r[field] != ""]
            cell[f"mean_{field}"] = math.fsum(values) / len(values) if values else None
        out.append(cell)
    return {"cells": out}


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True, help="Results CSV path.")
@click.option("--summary", "summary_path", type=click.Path(), default=None, help="Summary JSON path.")
@click.option("--timings", is_flag=True)
@_guarded
def sweep(spec_path: str, out: str, summary_path: str | None, timings: bool) -> None:
    """Run an experiment grid: networks x approaches x budgets x trials.

    The spec JSON carries: networks (generator specs {hosts, seed} or file
    refs {path}), optional catalog path, budgets, approaches, trials, and
    base_seed; trial seeds are base_seed + trial index. Every network entry
    is read or generated before the first row, so a bad one, or two with one
    id, ends the sweep before any work, and a network is held only while its
    rows are computed.
    Every search on a network shares one PlacementProblem, built when the
    first one needs it, and every row is evaluated by `evaluate_placement` on
    the same compiled graph. A network whose goal is unreachable gives an
    error row per cell; each of its search rows tries the build again.

    A search that reads no seed (exhaustive, or not under the random ordering)
    has its row computed at the first trial; later trials copy it with their
    own seed and trial. Each distinct placement is evaluated once per network;
    rows that share it share its report columns, p2_ms included under --timings.
    """
    with malformed(spec_path, "sweep spec"):
        spec = json.loads(Path(spec_path).read_text())
    try:
        spec = _spec(spec, dict, "file")
        catalog_path = spec.get("catalog")
        if catalog_path is not None:
            _spec(catalog_path, str, "catalog")
        networks = [_network_spec(net_spec) for net_spec in _spec(spec.get("networks", []), list, "networks")]
        budgets = [_count(budget, "budget") for budget in _spec(spec.get("budgets", [1]), list, "budgets")]
        approaches = [
            _spec(approach, dict, "approach")
            for approach in _spec(spec.get("approaches", [{"name": "random"}]), list, "approaches")
        ]
        trials = _count(spec.get("trials", 1), "trials")
        base_seed = _spec(spec.get("base_seed", 0), int, "base_seed")
    except ConfigurationError as exc:
        raise ConfigurationError(f"{exc} (in {spec_path})") from None
    catalog = load_catalog(catalog_path) if catalog_path else None
    # every network before the first row, each let go once its rows are done
    loaded = collections.deque(_sweep_network(net_spec, catalog, spec_path) for net_spec in networks)
    shared = [network_id for network_id, n in collections.Counter(i for i, _ in loaded).items() if n > 1]
    if shared:
        raise ConfigurationError(f"network id {shared[0]!r} is given to more than one network (in {spec_path})")
    rows: list[dict] = []
    while loaded:
        network_id, network = loaded.popleft()
        problem, evaluated = functools.cache(functools.partial(PlacementProblem, network)), {}
        for approach in approaches:
            given = {**_SEARCH_DEFAULTS, **approach}
            seed_free = approach.get("name") == "search" and not _reads_seed(given["algorithm"], given["ordering"])
            for budget in budgets:
                for trial in range(trials):
                    seed = base_seed + trial
                    if trial and seed_free:
                        row = {**rows[-1], "seed": seed, "trial": trial}  # the previous trial's row
                    else:
                        row = _sweep_cell(
                            network_id, network, problem, evaluated, approach, budget, trial, seed, timings
                        )
                    rows.append(row)
    Path(out).write_text(_rows_to_csv(rows))
    summary_file = summary_path or str(Path(out).with_suffix(".summary.json"))
    Path(summary_file).write_text(_dumps(_summarize(rows)))
    click.echo(f"wrote {len(rows)} rows to {out}", err=True)


@main.command("export-fixture")
@click.argument("name", type=click.Choice(sorted(FIXTURES)))
@click.option("--out", type=click.Path(), default=None)
@_guarded
def export_fixture(name: str, out: str | None) -> None:
    """Write a built-in example network (with catalog and expected values)."""
    network = FIXTURES[name]()
    bundle = network_bundle(network)
    bundle["expected"] = EXPECTED[name]
    _emit(_dumps(bundle), out)


@main.command("to-dot")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None)
@_guarded
def to_dot(graph_path: str, out: str | None) -> None:
    """Render an attack graph as Graphviz DOT."""
    graph = load_graph(graph_path)
    _emit(graph.to_dot(), out)


if __name__ == "__main__":
    main()

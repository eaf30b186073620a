"""One benchmark workload in a fresh process; started by run.py.

The process sets the workload up (networks, baseline graphs and costs,
placement draws), reports how long that took since it was spawned, then
repeats passes over the workload's operation list for the requested number of
seconds and checks every output. With --trace 1 it runs a few passes
untraced and the rest under the span recorder in spans.py instead.

All inputs come from the workload seed. Networks are the named generator
instances (hosts, network seed) with their host labels permuted by the
workload seed, so each seed gets different inputs but the same amount of
work; the default seed leaves the labels as generated.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from decoygraph import aggraph, attacker, cli, netmodel, placement_random, placement_search, planner  # noqa: E402

import spans  # noqa: E402

DEFAULT_SEED = 0
# per-layer self times reported to the driver: layers every workload calls
TIMED_LAYERS = (
    "aggraph.build",
    "aggraph.adjacency",
    "planner.plan",
    "planner.derivable",
    "attacker.simulate",
)


def network(hosts: int, net_seed: int, seed: int) -> netmodel.NetworkModel:
    """Generated network with its host labels permuted by the workload seed."""
    net = netmodel.generate_network(hosts, netmodel.default_catalog(), net_seed)
    if seed == DEFAULT_SEED:
        return net
    ids = sorted(net.hosts)
    shuffled = list(ids)
    random.Random(f"relabel:{seed}:{hosts}:{net_seed}").shuffle(shuffled)
    new = dict(zip(ids, shuffled))
    return netmodel.NetworkModel(
        hosts={new[h]: replace(host, host_id=new[h]) for h, host in net.hosts.items()},
        reachability=frozenset((new.get(a, a), new[b]) for a, b in net.reachability),
        attacker_entry=net.attacker_entry,
        goal=replace(net.goal, host_id=new[net.goal.host_id]),
        catalog=net.catalog,
    )


def baseline_cost(net: netmodel.NetworkModel) -> float:
    return planner.optimal_cost(aggraph.build_attack_graph(net))


def config_owner(node_id: str) -> tuple[str, str] | None:
    """(host, vuln) of a config node id `c|h:<host>|v:<vuln>`, else None.

    Parsed here rather than with the program's own helper, so that the check
    does not lean on the code it checks.
    """
    if not node_id.startswith("c|h:"):
        return None
    host, _, vuln = node_id[4:].partition("|v:")
    return host, vuln


class Search:
    """dfbnb and astar, utility ordering, h2, fresh caches per search."""

    # (hosts, network seed, K)
    CELLS = ((20, 11, 2), (12, 7, 3))
    ENGINES = ("dfbnb", "astar")
    # exhaustive_best optimum of each cell at the default seed
    OPTIMUM = {(20, 11, 2): 2.0, (12, 7, 3): 2.0}
    op_name = "searches"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.nets = {}
        for hosts, net_seed, budget in self.CELLS:
            net = network(hosts, net_seed, seed)
            self.nets[(hosts, net_seed, budget)] = (net, baseline_cost(net))
        self.ops = [(cell, engine) for cell in self.nets for engine in self.ENGINES]
        self.n_ops = len(self.ops)
        self.first: list = []

    def run_pass(self, span=lambda layer: nullcontext()):
        timed = []
        for cell, engine in self.ops:
            started = time.perf_counter()
            try:
                result = getattr(placement_search, engine)(
                    self.nets[cell][0], budget=cell[2], ordering="utility", heuristic="h2"
                )
            except Exception as exc:
                result = exc
            timed.append((time.perf_counter() - started, result))
        return timed

    def check(self, results) -> tuple[int, object]:
        """Re-simulate each returned set, and dfbnb and astar must agree."""
        failed = 0
        utilities: dict = {}
        signature = []
        for (cell, engine), result in zip(self.ops, results):
            if isinstance(result, Exception):
                failed += 1
                signature.append(repr(result))
                continue
            net, base = self.nets[cell]
            resim = attacker.simulate_attack(aggraph.apply_assignments(net, result.best_assignments))
            ok = (
                resim.total_cost == result.best_utility
                and result.best_utility >= base
                and len(result.best_assignments) <= cell[2]
                and utilities.setdefault(cell, result.best_utility) == result.best_utility
            )
            if self.seed == DEFAULT_SEED:
                ok = ok and result.best_utility == self.OPTIMUM[cell]
            failed += not ok
            signature.append(
                (result.best_assignments, result.best_utility, result.expanded_nodes, result.generated_nodes)
            )
        self.first = self.first or signature
        return failed, signature

    def final_check(self) -> int:
        return 0

    def report(self, latencies: list[list[float]]) -> list[str]:
        lines = []
        for i, ((hosts, net_seed, budget), engine) in enumerate(self.ops):
            result = self.first[i]
            detail = result if isinstance(result, str) else (
                f"expanded {result[2]} generated {result[3]} utility {result[1]}"
            )
            lines.append(
                f"  {engine:6s} {hosts}h/seed {net_seed} K={budget}: "
                f"median {statistics.median(p[i] for p in latencies):.3f} s; {detail}"
            )
        return lines


class Replay:
    """evaluate_placement, no shared caches, over an interleaved list of random placements."""

    # (hosts, network seed, host fraction)
    NETWORKS = ((20, 11, 1.0), (60, 1, 0.3))
    PER_NETWORK = 100
    # sha256 of the (p1, total_cost) sequence at the default seed
    DIGEST = "e8513bae31d67634233a4bc7263b131bf09cb73e705d9d626b0c9ebe9296f316"
    op_name = "evaluations"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(f"replay:{seed}")
        nets = [(network(hosts, net_seed, seed), fraction) for hosts, net_seed, fraction in self.NETWORKS]
        self.nets = [(net, baseline_cost(net)) for net, _ in nets]
        self.items = []
        for _ in range(self.PER_NETWORK):
            for index, (net, fraction) in enumerate(nets):
                placement, _ = placement_random.random_placement(net, fraction, rng.randrange(2**31))
                self.items.append((index, placement))
        self.n_ops = len(self.items)
        self.rounds: list[int] = []

    def run_pass(self, span=lambda layer: nullcontext()):
        timed = []
        for index, placement in self.items:
            started = time.perf_counter()
            try:
                report = attacker.evaluate_placement(self.nets[index][0], placement)
            except Exception as exc:
                report = exc
            timed.append((time.perf_counter() - started, report))
        return timed

    def check(self, reports) -> tuple[int, object]:
        """Trace invariants for every seed; the outcome digest at the default seed."""
        failed = 0
        outcomes = []
        for report, (index, placement) in zip(reports, self.items):
            if isinstance(report, Exception):
                failed += 1
                outcomes.append(repr(report))
                continue
            failed += not self._trace_ok(report, placement, self.nets[index][1])
            outcomes.append(f"{report.p1}:{report.total_cost.hex()}")
        digest = hashlib.sha256(",".join(outcomes).encode()).hexdigest()
        if self.seed == DEFAULT_SEED and digest != self.DIGEST:
            failed = len(reports)
        if not self.rounds:
            self.rounds = [r.p1 for r in reports if not isinstance(r, Exception)]
        return failed, digest

    @staticmethod
    def _trace_ok(report, placement, base: float) -> bool:
        iterations = report.trace.iterations
        total = 0.0
        for it in iterations:
            total += it.paid_prefix_cost
        found = [it.discovered_fake for it in iterations[:-1]]
        fakes = {(a.host_id, a.vuln_id) for a in placement}
        last = iterations[-1] if iterations else None
        return (
            last is not None
            and report.p1 == len(iterations)
            and report.total_cost == report.trace.total_cost == total
            and report.baseline_cost == base
            and last.discovered_fake is None
            and all(config_owner(node) not in fakes for node in last.plan.node_set)
            and None not in found
            and len(set(found)) == len(found)
            and set(found) <= placement
        )

    def final_check(self) -> int:
        return 0

    def report(self, latencies: list[list[float]]) -> list[str]:
        samples = sorted(dt * 1000.0 for p in latencies for dt in p)
        q = statistics.quantiles(samples, n=100)
        fakes = [len(placement) for _, placement in self.items]
        return [
            f"  eval_ms_p50 {q[49]:.3f} ms, eval_ms_p99 {q[98]:.3f} ms over {len(samples)} evaluations "
            f"({sum(x > q[98] for x in samples)} beyond p99)",
            f"  {len(self.items)} placements per pass, {min(fakes)}-{max(fakes)} fakes, "
            f"rounds mean {statistics.mean(self.rounds):.2f} max {max(self.rounds)}",
        ]


class Sweep:
    """The CLI `sweep` command, in-process, on benchmark-written network files."""

    NETWORKS = ((12, 7), (20, 11))
    APPROACHES = (
        {"name": "random"},
        {"name": "random-hosts", "fraction": 0.5},
        {"name": "search", "algorithm": "dfbnb"},
        {"name": "search", "algorithm": "astar", "ordering": "shortest-path"},
    )
    BUDGETS = (1, 2)
    TRIALS = 2
    op_name = "sweep rows"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.nets = {}
        networks = []
        for hosts, net_seed in self.NETWORKS:
            net = network(hosts, net_seed, seed)
            network_id = f"n{hosts}-{net_seed}"
            path = workdir / f"{network_id}.json"
            bundle = {
                "catalog": [net.catalog[k].to_dict() for k in sorted(net.catalog)],
                "network": net.to_dict(),
            }
            path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
            self.nets[network_id] = (net, baseline_cost(net))
            networks.append({"path": str(path), "id": network_id})
        spec = {
            "networks": networks,
            "budgets": list(self.BUDGETS),
            "approaches": list(self.APPROACHES),
            "trials": self.TRIALS,
            "base_seed": seed,
        }
        self.spec = workdir / "spec.json"
        self.spec.write_text(json.dumps(spec, indent=2) + "\n")
        self.n_ops = len(self.NETWORKS) * len(self.APPROACHES) * len(self.BUDGETS) * self.TRIALS
        self.rows: list[dict] = []

    def run_pass(self, span=lambda layer: nullcontext()):
        out, summary = self.workdir / "sweep.csv", self.workdir / "summary.json"
        started = time.perf_counter()
        try:
            with span("cli.sweep"):
                cli.main(
                    ["sweep", "--spec", str(self.spec), "--out", str(out), "--summary", str(summary)],
                    standalone_mode=False,
                )
            result = (out.read_text(), summary.read_text())
        except (Exception, SystemExit) as exc:
            result = exc
        return [(time.perf_counter() - started, result)]

    def check(self, results) -> tuple[int, object]:
        """No error cells; the CSV and summary repeat byte for byte between passes."""
        result = results[0]
        if isinstance(result, BaseException):
            return self.n_ops, repr(result)
        rows = list(csv.DictReader(io.StringIO(result[0])))
        self.rows = self.rows or rows
        return max(0, self.n_ops - len(rows)) + sum(row["error"] != "" for row in rows), result

    def final_check(self) -> int:
        """Search rows reach the exhaustive optimum p3 of their (network, budget).

        Run after the measurement so exhaustive enumeration's memory does not
        count towards the sweep's peak RSS.
        """
        optimum = {}
        for network_id, (net, _) in self.nets.items():
            for budget in self.BUDGETS:
                best = placement_search.exhaustive_best(net, budget=budget)
                optimum[(network_id, str(budget))] = best.best_utility / best.baseline_cost
        return sum(
            row["error"] == "" and float(row["p3"]) != optimum[(row["network_id"], row["budget"])]
            for row in self.rows
            if row["approach"].startswith("search:")
        )

    def report(self, latencies: list[list[float]]) -> list[str]:
        search = [r for r in self.rows if r["approach"].startswith("search:")]
        return [f"  {len(self.rows)} rows per sweep ({len(search)} search rows)"]


WORKLOADS = {"search": Search, "replay": Replay, "sweep": Sweep}


def candidate_count(net) -> int:
    enumerate_candidates = getattr(placement_search, "enumerate_candidates", None)
    return 0 if enumerate_candidates is None or net is None else len(enumerate_candidates(net))


class Passes:
    """Runs and checks passes; outputs and counters must repeat exactly between passes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.first = None

    def run(self, tracer: spans.Tracer | None = None) -> tuple[float, list[float]]:
        """One pass, traced when a tracer is given; checked after the tracer is removed."""
        if tracer:
            tracer.reset()
            tracer.install()
        started = time.perf_counter()
        try:
            timed = self.workload.run_pass(tracer.span) if tracer else self.workload.run_pass()
        finally:
            wall = time.perf_counter() - started
            if tracer:
                tracer.restore()
        bad, signature = self.workload.check([output for _, output in timed])
        if self.first is None:
            self.first = signature
        elif signature != self.first:
            bad = self.workload.n_ops
        self.attempted += self.workload.n_ops
        self.failed += bad
        return wall, [dt for dt, _ in timed]

    def result(self, metrics: dict, report: list[str]) -> dict:
        self.failed += self.workload.final_check()
        return {"attempted": self.attempted, "failed": self.failed, "metrics": metrics, "report": report}


def measure(workload, seconds: float) -> dict:
    """Untraced passes for `seconds`; every end-to-end metric but setup_s.

    Each operation's time is its fastest over the run's passes. On a shared
    machine the speed of one core can drift by a fifth over tens of seconds;
    the fastest of several repeats of the same work filters that out far
    better than a median does.
    """
    passes = Passes(workload)
    deadline = time.perf_counter() + seconds
    walls, latencies = [], []
    while not walls or time.perf_counter() < deadline:
        wall, lat = passes.run()
        walls.append(wall)
        latencies.append(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = [min(op) for op in zip(*latencies)]
    p90 = statistics.quantiles(best, n=10, method="inclusive")[-1] if len(best) > 1 else best[0]
    metrics = {
        "pass_s": {"value": sum(best), "unit": "s"},
        "op_ms_p50": {"value": statistics.median(best) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    report = [
        f"{len(walls)} passes of {workload.n_ops} {workload.op_name}; fastest-of-{len(walls)} per operation: "
        f"pass {sum(best):.3f} s, op p50 {statistics.median(best) * 1000:.3f} ms, p90 {p90 * 1000:.3f} ms, "
        f"max {max(best) * 1000:.3f} ms",
        f"  wall per pass: median {statistics.median(walls):.3f} s, min {min(walls):.3f}, max {max(walls):.3f}; "
        f"{passes.attempted / sum(walls):.3f} {workload.op_name}/s",
    ] + workload.report(latencies)
    result = passes.result(metrics, report)
    metrics["success_rate"] = {"value": (passes.attempted - passes.failed) / passes.attempted, "unit": "ratio"}
    return result


def measure_traced(workload, seconds: float, tracer: spans.Tracer, setup_layers: dict, trace_file: Path) -> dict:
    """A third of the time untraced, the rest traced; the per-layer metrics."""
    passes = Passes(workload)
    started = time.perf_counter()
    untraced, traced, layer_runs = [], [], []
    counters = first_spans = None
    while not untraced or time.perf_counter() - started < seconds / 3:
        untraced.append(passes.run()[0])
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        traced.append(passes.run(tracer)[0])
        layer_runs.append(tracer.layers())
        pass_counters = tracer.counters(candidate_count)
        if counters is None:
            counters, first_spans = pass_counters, tracer.spans
        elif pass_counters != counters:
            passes.failed += workload.n_ops  # effort counters must repeat exactly

    def self_s(layer: str, runs) -> float:
        return statistics.median(run.get(layer, {}).get("self_s", 0.0) for run in runs)

    metrics = {
        name: {"value": value, "unit": "ratio" if name in spans.RATIOS else "count"}
        for name, value in counters.items()
    }
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = {"value": self_s(layer, layer_runs), "unit": "s"}
    metrics["netmodel.generate.self_s"] = {"value": self_s("netmodel.generate", [setup_layers]), "unit": "s"}
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}

    lines = [
        f"traced {len(traced)} passes, untraced {len(untraced)}; overhead {overhead:.3f}x; "
        f"medians per traced pass; spans in {trace_file.relative_to(ROOT)}",
        f"  {'layer':24s} {'calls':>8s} {'self_s':>9s} {'total_s':>9s}",
    ]
    for layer in sorted(set().union(*layer_runs)):
        calls = layer_runs[0].get(layer, {}).get("calls", 0)
        total = statistics.median(run.get(layer, {}).get("total_s", 0.0) for run in layer_runs)
        lines.append(f"  {layer:24s} {calls:8d} {self_s(layer, layer_runs):9.4f} {total:9.4f}")
    lines.append("  set-up: " + ", ".join(
        f"{layer} {entry['calls']} calls {entry['self_s']:.4f} s self" for layer, entry in sorted(setup_layers.items())
    ))
    lines += [f"  {name} = {value}" for name, value in counters.items()]

    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({
        "layers_per_pass": layer_runs,
        "setup_layers": setup_layers,
        "counters": counters,
        "spans": first_spans,
    }) + "\n")
    return passes.result(metrics, lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            workload = WORKLOADS[args.workload](args.seed, workdir)
        finally:
            if tracer:
                tracer.restore()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            trace_file = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
            result = measure_traced(workload, args.seconds, tracer, tracer.layers(), trace_file)
        else:
            result = measure(workload, args.seconds)
        result["setup_s"] = setup_s
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another child's directory is still there


if __name__ == "__main__":
    sys.exit(main())

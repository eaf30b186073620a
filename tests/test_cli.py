from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from decoygraph import cli
from decoygraph.cli import main
from decoygraph.netmodel import catalog_to_json, default_catalog, generate_network, save_network
from decoygraph.placement_search import PlacementProblem, build_path_index
from helpers import cut_network


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def chain_bundle(tmp_path, runner):
    path = tmp_path / "chain.json"
    res = runner.invoke(main, ["export-fixture", "searchspace-k2", "--out", str(path)])
    assert res.exit_code == 0, res.output
    return path


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestGeneratePlanRoundTrip:
    def test_pipeline(self, tmp_path, runner):
        net = tmp_path / "net.json"
        graph = tmp_path / "graph.json"
        res = runner.invoke(main, ["generate", "--hosts", "6", "--seed", "3", "--out", str(net)])
        assert res.exit_code == 0, res.output
        bundle = json.loads(net.read_text())
        assert set(bundle) == {"catalog", "network"}

        res = runner.invoke(main, ["build-graph", "--network", str(net), "--out", str(graph)])
        assert res.exit_code == 0, res.output

        res = runner.invoke(main, ["plan", "--graph", str(graph)])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("cost: ")

        res = runner.invoke(main, ["plan", "--graph", str(graph), "--format", "json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["cost"] > 0
        assert payload["exec_order"]

    def test_generate_is_deterministic(self, tmp_path, runner):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            res = runner.invoke(main, ["generate", "--hosts", "5", "--seed", "9", "--out", str(path)])
            assert res.exit_code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_to_dot(self, tmp_path, runner, chain_bundle):
        graph = tmp_path / "graph.json"
        res = runner.invoke(main, ["build-graph", "--network", str(chain_bundle), "--out", str(graph)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["to-dot", "--graph", str(graph)])
        assert res.exit_code == 0
        assert res.output.startswith("digraph")


class TestObfuscateRandom:
    def test_budget_mode(self, tmp_path, runner, chain_bundle):
        out_graph = tmp_path / "decorated.json"
        res = runner.invoke(
            main,
            [
                "obfuscate", "random",
                "--network", str(chain_bundle),
                "--budget", "2",
                "--seed", "1",
                "--out-graph", str(out_graph),
            ],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["n_assignments"] == 2
        assert len(payload["assignments"]) == 2

        from decoygraph.aggraph import load_graph

        decorated = load_graph(out_graph)
        assert len(decorated.fake_configs()) == 2

    def test_modes_are_mutually_exclusive(self, runner, chain_bundle):
        res = runner.invoke(
            main,
            ["obfuscate", "random", "--network", str(chain_bundle), "--budget", "1", "--fraction", "0.5"],
        )
        assert res.exit_code == 2
        assert "exactly one" in res.output

        res = runner.invoke(main, ["obfuscate", "random", "--network", str(chain_bundle)])
        assert res.exit_code == 2

    def test_fraction_and_count_modes(self, runner, chain_bundle):
        res = runner.invoke(
            main, ["obfuscate", "random", "--network", str(chain_bundle), "--fraction", "0.5"]
        )
        assert res.exit_code == 0, res.output
        res = runner.invoke(
            main, ["obfuscate", "random", "--network", str(chain_bundle), "--count", "2"]
        )
        assert res.exit_code == 0, res.output


class TestObfuscateSearch:
    def test_finds_the_fixture_optimum(self, runner, chain_bundle):
        res = runner.invoke(
            main,
            ["obfuscate", "search", "--network", str(chain_bundle), "--budget", "2"],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["search"]["best_utility"] == 4.0
        assert payload["search"]["baseline_cost"] == 3.0
        assert [a["host_id"] for a in payload["assignments"]] == ["h1", "h2"]
        assert "elapsed_ms" not in payload["search"]

    def test_timings_flag_adds_wall_clock(self, runner, chain_bundle):
        res = runner.invoke(
            main,
            ["obfuscate", "search", "--network", str(chain_bundle), "--budget", "2", "--timings"],
        )
        payload = json.loads(res.output)
        assert "elapsed_ms" in payload["search"]

    def test_all_algorithms(self, runner, chain_bundle, tmp_path):
        for algo in ("dfbnb", "astar", "exhaustive"):
            res = runner.invoke(
                main,
                [
                    "obfuscate", "search",
                    "--network", str(chain_bundle),
                    "--budget", "2",
                    "--algorithm", algo,
                ],
            )
            assert res.exit_code == 0, res.output
            assert json.loads(res.output)["search"]["best_utility"] == 4.0

    def test_out_graph_carries_the_fakes(self, runner, chain_bundle, tmp_path):
        out_graph = tmp_path / "g.json"
        res = runner.invoke(
            main,
            [
                "obfuscate", "search",
                "--network", str(chain_bundle),
                "--budget", "2",
                "--out-graph", str(out_graph),
            ],
        )
        assert res.exit_code == 0
        from decoygraph.aggraph import load_graph

        assert len(load_graph(out_graph).fake_configs()) == 2

    @pytest.mark.parametrize("pool_size", ["0", "-3"])
    def test_shortest_path_ordering_needs_a_pool(self, runner, chain_bundle, pool_size):
        res = runner.invoke(
            main,
            [
                "obfuscate", "search",
                "--network", str(chain_bundle),
                "--budget", "2",
                "--ordering", "shortest-path",
                "--pool-size", pool_size,
            ],
        )
        assert res.exit_code == 2, res.output
        assert f"error: the shortest-path ordering needs a pool size of at least 1, got {pool_size}" in res.output


class TestSimulate:
    def test_network_plus_assignments(self, tmp_path, runner, chain_bundle):
        assignments = tmp_path / "fakes.json"
        assignments.write_text(
            json.dumps([{"host_id": "h1", "vuln_id": "w1"}, {"host_id": "h2", "vuln_id": "w2"}])
        )
        res = runner.invoke(
            main,
            ["simulate", "--network", str(chain_bundle), "--assignments", str(assignments)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["total_cost"] == 4.0
        assert "elapsed_ms" not in payload["planning_effort"]

    def test_fake_free_graph_is_accepted(self, tmp_path, runner, chain_bundle):
        graph = tmp_path / "graph.json"
        runner.invoke(main, ["build-graph", "--network", str(chain_bundle), "--out", str(graph)])
        res = runner.invoke(main, ["simulate", "--graph", str(graph)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["total_cost"] == 3.0

    def test_decorated_graph_replays_like_its_placement(self, tmp_path, runner, chain_bundle):
        graph, placement = tmp_path / "g.json", tmp_path / "placement.json"
        res = runner.invoke(
            main,
            [
                "obfuscate", "search",
                "--network", str(chain_bundle),
                "--budget", "2",
                "--out", str(placement),
                "--out-graph", str(graph),
            ],
        )
        assert res.exit_code == 0, res.output
        from_graph = runner.invoke(main, ["simulate", "--graph", str(graph)])
        from_network = runner.invoke(
            main,
            ["simulate", "--network", str(chain_bundle), "--assignments", str(placement)],
        )
        assert from_graph.exit_code == 0, from_graph.output
        assert from_graph.output == from_network.output
        trace = json.loads(from_graph.output)
        assert any(it["discovered_fake"] for it in trace["iterations"])

    def test_no_input_is_an_error(self, runner):
        res = runner.invoke(main, ["simulate"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("given", [["--network"], ["--catalog"], ["--assignments"], ["--network", "--assignments"]])
    def test_a_graph_with_other_inputs_is_an_error(self, tmp_path, runner, chain_bundle, given):
        graph, catalog, assignments = tmp_path / "g.json", tmp_path / "cat.json", tmp_path / "fakes.json"
        res = runner.invoke(
            main, ["obfuscate", "random", "--network", str(chain_bundle), "--budget", "2", "--out-graph", str(graph)]
        )
        assert res.exit_code == 0, res.output
        catalog.write_text(catalog_to_json(default_catalog()))
        assignments.write_text(json.dumps([{"host_id": "h1", "vuln_id": "w1"}]))
        paths = {"--network": chain_bundle, "--catalog": catalog, "--assignments": assignments}
        res = runner.invoke(main, ["simulate", "--graph", str(graph), *(x for o in given for x in (o, str(paths[o])))])
        assert res.exit_code == 2, res.output
        assert res.output == "error: --graph goes alone; --catalog and --assignments go with --network\n"


class TestEvaluate:
    def test_json_report(self, tmp_path, runner, chain_bundle):
        assignments = tmp_path / "fakes.json"
        assignments.write_text(json.dumps({"assignments": [{"host_id": "h1", "vuln_id": "w1"}]}))
        res = runner.invoke(
            main,
            ["evaluate", "--network", str(chain_bundle), "--assignments", str(assignments)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["p3"] == 3.5 / 3.0
        assert payload["p1"] == 2
        assert payload["p2_ms"] is None

    def test_csv_report(self, tmp_path, runner, chain_bundle):
        assignments = tmp_path / "fakes.json"
        assignments.write_text(json.dumps([{"host_id": "h1", "vuln_id": "w1"}]))
        res = runner.invoke(
            main,
            [
                "evaluate",
                "--network", str(chain_bundle),
                "--assignments", str(assignments),
                "--format", "csv",
            ],
        )
        assert res.exit_code == 0, res.output
        rows = _rows(res.output)
        assert len(rows) == 1
        assert rows[0]["approach"] == "evaluate"
        assert float(rows[0]["p1"]) == 2
        assert rows[0]["p2_ms"] == ""


def _write_cut_network(tmp_path):
    """Write a network whose goal host no exploit can reach; return its path."""
    path = tmp_path / "cut.json"
    save_network(cut_network(), path)
    return path


# option -> (command line, with {bad} the fed file and {net} a good network, and structurally malformed content)
_FILE_OPTIONS = {
    "network-bare": (["build-graph", "--network", "{bad}"], {"hosts": [{"host_id": "h"}]}),
    "network-bundle": (["build-graph", "--network", "{bad}"], {"catalog": [], "network": {"hosts": []}}),
    "catalog": (["build-graph", "--network", "{net}", "--catalog", "{bad}"], [{"vuln_id": "x"}]),
    "assignments": (["evaluate", "--network", "{net}", "--assignments", "{bad}"], [5]),
    "graph": (["plan", "--graph", "{bad}"], {"nodes": []}),
    "spec": (["sweep", "--spec", "{bad}", "--out", "{out}"], {"budgets": 2}),
}


class TestExitCodes:
    @pytest.mark.parametrize("content", ["not-json", "not-utf8", "malformed"])
    @pytest.mark.parametrize("option", sorted(_FILE_OPTIONS))
    def test_a_bad_file_exits_2_and_names_it(self, tmp_path, runner, chain_bundle, option, content):
        command, structure = _FILE_OPTIONS[option]
        bad = tmp_path / "bad.json"
        if content == "not-json":
            bad.write_text("{not json")
        elif content == "not-utf8":
            bad.write_bytes(b"\xff\xfe")
        else:
            bad.write_text(json.dumps(structure))
        paths = {"bad": bad, "net": chain_bundle, "out": tmp_path / "rows.csv"}
        res = runner.invoke(main, [arg.format(**paths) for arg in command])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and str(bad) in res.output, res.output

    def test_malformed_json(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["build-graph", "--network", str(bad)])
        assert res.exit_code == 2

    def test_malformed_graph_files(self, tmp_path, runner):
        for path, violation in _tampered_graph_files(tmp_path, runner):
            for command in ("plan", "simulate", "to-dot"):
                res = runner.invoke(main, [command, "--graph", str(path)])
                assert res.exit_code == 2, (command, path.name, res.output)
                assert "error:" in res.output and violation in res.output

    @pytest.mark.parametrize(
        "assignments",
        [
            [{"host_id": "h01"}],
            5,
            [{"host_id": "h01", "vuln_id": "v", "fake": False}],
            [5],
            ["h1"],
            [["h1", "w1"]],
            [{"host_id": ["a"], "vuln_id": "v"}],
            [{"host_id": "h01", "vuln_id": 7}],
            {"assignment": [{"host_id": "h1", "vuln_id": "w1"}]},
        ],
        ids=[
            "no-vuln-id", "not-a-list", "not-fake", "int-entry", "string-entry", "pair-entry", "list-id", "int-id",
            "no-assignments-key",
        ],
    )
    def test_malformed_assignments_file(self, tmp_path, runner, chain_bundle, assignments):
        path = tmp_path / "fakes.json"
        path.write_text(json.dumps(assignments))
        res = runner.invoke(main, ["evaluate", "--network", str(chain_bundle), "--assignments", str(path)])
        assert res.exit_code == 2, res.output
        assert f"error: {path}: malformed assignments file" in res.output

    def test_graph_whose_provenance_is_not_fake(self, tmp_path, runner, chain_bundle):
        graph = tmp_path / "decorated.json"
        res = runner.invoke(
            main,
            ["obfuscate", "random", "--network", str(chain_bundle), "--budget", "2", "--out-graph", str(graph)],
        )
        assert res.exit_code == 0, res.output
        data = json.loads(graph.read_text())
        provenance = [node["provenance"] for node in data["nodes"] if "provenance" in node]
        assert provenance and all(entry["fake"] is True for entry in provenance)
        provenance[0]["fake"] = False
        graph.write_text(json.dumps(data))
        for command in ("plan", "simulate", "to-dot"):
            res = runner.invoke(main, [command, "--graph", str(graph)])
            assert res.exit_code == 2, (command, res.output)
            assert f"error: {graph}: malformed graph file (ValueError: an assignment's fake must be true" in res.output

    @pytest.mark.parametrize(
        "breakage", ["no-hosts", "host-without-os", "one-element-pair", "catalog-entry-without-os"]
    )
    def test_malformed_network_file(self, tmp_path, runner, chain_bundle, breakage):
        bundle = json.loads(chain_bundle.read_text())
        if breakage == "no-hosts":
            bundle = {"network": {}}
        elif breakage == "host-without-os":
            del bundle["network"]["hosts"][0]["os"]
        elif breakage == "one-element-pair":
            bundle["network"]["reachability"][0] = bundle["network"]["reachability"][0][:1]
        else:
            del bundle["catalog"][0]["affected_os"]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(bundle))
        res = runner.invoke(main, ["build-graph", "--network", str(path)])
        assert res.exit_code == 2, res.output
        assert f"error: {path}: malformed network file" in res.output

    def test_network_file_that_fails_the_model_checks(self, tmp_path, runner, chain_bundle):
        bundle = json.loads(chain_bundle.read_text())
        host = bundle["network"]["hosts"][0]
        host["installed_vulns"].append("nope")
        path = tmp_path / "net.json"
        path.write_text(json.dumps(bundle))
        res = runner.invoke(main, ["build-graph", "--network", str(path)])
        assert res.exit_code == 2, res.output
        assert f"error: {path}: {host['host_id']}: installed vuln nope not in catalog" in res.output

    @pytest.mark.parametrize(
        "name, text, error",
        [
            ("cat.json", '[{"vuln_id": "x"}]', "KeyError: 'cvss_version'"),
            ("cat.csv", "vuln_id,exploitability_subscore,affected_os\nx,1.0,linux\n", "KeyError: 'cvss_version'"),
            ("short.csv", "vuln_id,cvss_version,exploitability_subscore,affected_os\nx,V2\n", "ValueError"),
        ],
        ids=["json-missing-field", "csv-missing-column", "csv-short-row"],
    )
    def test_malformed_catalog_file(self, tmp_path, runner, name, text, error):
        network = tmp_path / "n4.json"
        assert runner.invoke(main, ["generate", "--hosts", "4", "--seed", "1", "--out", str(network)]).exit_code == 0
        path = tmp_path / name
        path.write_text(text)
        res = runner.invoke(main, ["build-graph", "--network", str(network), "--catalog", str(path)])
        assert res.exit_code == 2, res.output
        assert f"error: {path}: malformed catalog file ({error}" in res.output

    def test_unreachable_goal(self, tmp_path, runner):
        path = _write_cut_network(tmp_path)
        res = runner.invoke(main, ["simulate", "--network", str(path)])
        assert res.exit_code == 3
        assert "error:" in res.output

    @pytest.mark.parametrize("vuln_id, code", [("wv", 2), ("fv", 3)], ids=["incompatible", "valid"])
    def test_evaluate_checks_the_placement_before_compiling(self, tmp_path, runner, vuln_id, code):
        # On a network whose goal is unreachable, an invalid placement is
        # refused (2) before the network is compiled, which raises Unreachable (3).
        net = cut_network()
        extra = {
            v: dataclasses.replace(net.catalog["rv"], vuln_id=v, affected_os=frozenset({os}))
            for v, os in (("fv", "os-t"), ("wv", "os-w"))
        }
        path = tmp_path / "cut.json"
        save_network(dataclasses.replace(net, catalog={**net.catalog, **extra}), path)
        assignments = tmp_path / "fakes.json"
        assignments.write_text(json.dumps([{"host_id": "t", "vuln_id": vuln_id, "fake": True}]))
        res = runner.invoke(main, ["evaluate", "--network", str(path), "--assignments", str(assignments)])
        assert res.exit_code == code, res.output
        expected = "incompatible: wv does not affect os-t" if code == 2 else "goal p|h:t is not derivable"
        assert expected in res.output


def _tampered_graph_files(tmp_path, runner) -> list:
    """A 6-host network's build-graph output, broken in two ways validate_graph names, missing its
    edges, with a node of unknown kind, and with a provenance that is not an object."""
    net, graph = tmp_path / "net.json", tmp_path / "graph.json"
    assert runner.invoke(main, ["generate", "--hosts", "6", "--seed", "3", "--out", str(net)]).exit_code == 0
    assert runner.invoke(main, ["build-graph", "--network", str(net), "--out", str(graph)]).exit_code == 0
    data = json.loads(graph.read_text())
    # every config flagged fake, with no provenance
    all_fake = copy.deepcopy(data)
    for node in all_fake["nodes"]:
        if node["kind"] == "config":
            node["fake"] = True
    # one exploit's config edge pointed at a config that does not exist
    dangling = copy.deepcopy(data)
    edge = next(e for e in dangling["edges"] if e["from"].startswith("e|") and e["to"].startswith("c|"))
    edge["to"] = "c|h:ghost|v:x"
    bad_kind, bad_provenance = copy.deepcopy(data), copy.deepcopy(data)
    bad_kind["nodes"][0]["kind"] = "bogus"
    next(node for node in bad_provenance["nodes"] if node["kind"] == "config")["provenance"] = 5
    paths = []
    for name, payload, violation in (
        ("all-fake.json", all_fake, "fake flag and provenance disagree"),
        ("dangling.json", dangling, "references an unknown node"),
        ("no-edges.json", {"nodes": data["nodes"], "goal": data["goal"], "source": data["source"]}, "malformed"),
        ("bad-kind.json", bad_kind, "malformed graph file (ValueError: unknown node kind 'bogus')"),
        ("bad-provenance.json", bad_provenance, "malformed graph file (TypeError: an assignment must be an object"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append((path, violation))
    return paths


class TestExportFixture:
    def test_bundle_shape(self, runner):
        res = runner.invoke(main, ["export-fixture", "h1-counterexample"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert set(payload) == {"catalog", "network", "expected"}
        assert payload["expected"]["baseline_cost"] == 10.0

    def test_unknown_name(self, runner):
        res = runner.invoke(main, ["export-fixture", "nope"])
        assert res.exit_code != 0


SWEEP_SPEC = {
    "networks": [{"hosts": 5, "seed": 2, "id": "n5"}],
    "budgets": [0, 2],
    "approaches": [
        {"name": "random"},
        {"name": "search", "algorithm": "dfbnb"},
    ],
    "trials": 2,
    "base_seed": 10,
}


class TestSweep:
    def _run(self, tmp_path, runner, name):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SWEEP_SPEC))
        out = tmp_path / f"{name}.csv"
        summary = tmp_path / f"{name}.summary.json"
        res = runner.invoke(
            main,
            ["sweep", "--spec", str(spec), "--out", str(out), "--summary", str(summary)],
        )
        assert res.exit_code == 0, res.output
        return out, summary

    def test_grid_and_header(self, tmp_path, runner):
        out, summary = self._run(tmp_path, runner, "first")
        text = out.read_text()
        header = text.splitlines()[0]
        assert header == (
            "network_id,n_hosts,approach,budget,n_assignments,p1,p2_states,p2_ms,"
            "p3,p4,seed,trial,expanded_nodes,budget_used,search_ms,p4_budget,error"
        )
        rows = _rows(text)
        # 1 network x 2 approaches x 2 budgets x 2 trials
        assert len(rows) == 8
        assert {r["approach"] for r in rows} == {"random", "search:dfbnb:h2:utility"}
        assert all(r["error"] == "" for r in rows)
        assert all(r["p2_ms"] == "" and r["search_ms"] == "" for r in rows)

    def test_budget_zero_rows_are_neutral(self, tmp_path, runner):
        out, _ = self._run(tmp_path, runner, "zero")
        for row in _rows(out.read_text()):
            if row["budget"] == "0":
                assert float(row["p3"]) == 1.0
                assert float(row["p4"]) == 1.0
                assert row["p4_budget"] == ""

    def test_search_rows_beat_or_match_random(self, tmp_path, runner):
        out, _ = self._run(tmp_path, runner, "directional")
        rows = [r for r in _rows(out.read_text()) if r["budget"] == "2"]
        random_p3 = [float(r["p3"]) for r in rows if r["approach"] == "random"]
        search_p3 = [float(r["p3"]) for r in rows if r["approach"].startswith("search")]
        assert min(search_p3) >= max(random_p3) - 1e-9

    def test_summary_means(self, tmp_path, runner):
        _, summary = self._run(tmp_path, runner, "means")
        cells = json.loads(summary.read_text())["cells"]
        assert len(cells) == 4
        for cell in cells:
            assert cell["trials"] == 2
            assert cell["errors"] == 0
            assert cell["mean_p3"] is not None

    def test_reruns_are_byte_identical(self, tmp_path, runner):
        out1, sum1 = self._run(tmp_path, runner, "one")
        out2, sum2 = self._run(tmp_path, runner, "two")
        assert out1.read_bytes() == out2.read_bytes()
        assert sum1.read_bytes() == sum2.read_bytes()

    def _sweep(self, tmp_path, runner, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "r.csv"
        res = runner.invoke(main, ["sweep", "--spec", str(spec_path), "--out", str(out)])
        return res, out

    def test_unknown_approach_becomes_an_error_row(self, tmp_path, runner):
        spec = {
            "networks": [{"hosts": 4, "seed": 1}],
            "budgets": [1],
            "approaches": [{"name": "psychic"}],
            "trials": 1,
        }
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert len(rows) == 1
        assert rows[0]["error"].startswith("ConfigurationError")
        summary = json.loads((tmp_path / "r.summary.json").read_text())
        assert summary["cells"][0]["errors"] == 1

    def test_random_hosts_without_fraction_becomes_an_error_row(self, tmp_path, runner):
        spec = {"networks": [{"hosts": 4, "seed": 1}], "approaches": [{"name": "random-hosts"}]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert len(rows) == 1
        assert rows[0]["error"].startswith("ConfigurationError")

    def test_unknown_algorithm_becomes_an_error_row(self, tmp_path, runner):
        spec = {"networks": [{"hosts": 4, "seed": 1}], "approaches": [{"name": "search", "algorithm": "bogus"}]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert len(rows) == 1
        assert rows[0]["error"].startswith("ConfigurationError: unknown algorithm 'bogus'")

    def test_string_fraction_becomes_an_error_row(self, tmp_path, runner):
        spec = {"networks": [{"hosts": 4, "seed": 1}], "approaches": [{"name": "random-hosts", "fraction": "0.5"}]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert [row["approach"] for row in rows] == ["random-hosts:0.5"]
        assert rows[0]["error"].startswith("ConfigurationError: host count must be an int or a fraction")

    def test_integer_fraction_is_a_fraction(self, tmp_path, runner):
        approaches = [{"name": "random-hosts", "fraction": fraction} for fraction in (1, 1.0, 0, 2)]
        spec = {"networks": [{"hosts": 12, "seed": 7}], "approaches": approaches}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert [row["approach"] for row in rows] == [f"random-hosts:{a['fraction']}" for a in approaches]
        assert rows[0]["n_assignments"] == rows[1]["n_assignments"] == "18"
        assert rows[2]["n_assignments"] == "0"
        assert rows[3]["error"] == "ConfigurationError: host fraction must lie in [0, 1], got 2.0"

    def test_search_field_the_algorithm_ignores_is_still_checked(self, tmp_path, runner):
        approach = {"name": "search", "algorithm": "exhaustive", "ordering": 5}
        res, out = self._sweep(tmp_path, runner, {"networks": [{"hosts": 4, "seed": 1}], "approaches": [approach]})
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert [row["error"] for row in rows] == ["ConfigurationError: sweep spec ordering must be a string, got 5"]

    @pytest.mark.parametrize("field", ["algorithm", "heuristic", "ordering"])
    def test_non_string_approach_field_becomes_an_error_row(self, tmp_path, runner, field):
        spec = {"networks": [{"hosts": 4, "seed": 1}], "approaches": [{"name": "search", field: 5}]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert len(rows) == 1
        assert "5" in rows[0]["approach"].split(":")
        assert rows[0]["error"] == f"ConfigurationError: sweep spec {field} must be a string, got 5"

    def test_non_integer_budget_is_a_configuration_error(self, tmp_path, runner):
        spec = {"networks": [{"hosts": 4, "seed": 1}], "budgets": ["x"]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 2, res.output
        assert "budget must be an integer" in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("budgets", [-1, 0], "budget must be a non-negative integer, got -1"),
            ("trials", -1, "trials must be a non-negative integer, got -1"),
            ("trials", "2", "trials must be an integer, got '2'"),
        ],
        ids=["negative-budget", "negative-trials", "string-trials"],
    )
    def test_budgets_and_trials_must_be_non_negative_integers(self, tmp_path, runner, field, value, message):
        spec = {"networks": [{"hosts": 12, "seed": 7}], "approaches": [{"name": "random"}], field: value}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 2, res.output
        assert f"error: sweep spec {message} (in {tmp_path / 'spec.json'})" in res.output
        assert not out.exists()

    def test_zero_budget_and_zero_trials_are_accepted(self, tmp_path, runner):
        spec = {"networks": [{"hosts": 4, "seed": 1}], "budgets": [0]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        assert [row["budget"] for row in _rows(out.read_text())] == ["0"]
        res, out = self._sweep(tmp_path, runner, {**spec, "trials": 0})
        assert res.exit_code == 0, res.output
        assert _rows(out.read_text()) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("budgets", 2, "budgets must be a list"),
            ("networks", [5], "network must be an object"),
            ("approaches", ["random"], "approach must be an object"),
            ("approaches", {"name": "random"}, "approaches must be a list"),
        ],
        ids=["budgets-int", "network-int", "approach-string", "approaches-object"],
    )
    def test_wrongly_typed_spec_field_is_a_configuration_error(self, tmp_path, runner, field, value, message):
        spec = {"networks": [{"hosts": 4, "seed": 1}], field: value}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 2, res.output
        assert f"error: sweep spec {message}" in res.output
        assert not out.exists()

    def test_spec_that_is_not_an_object_is_a_configuration_error(self, tmp_path, runner):
        res, out = self._sweep(tmp_path, runner, [{"hosts": 4, "seed": 1}])
        assert res.exit_code == 2, res.output
        assert "error: sweep spec file must be an object" in res.output
        assert not out.exists()

    def test_non_integer_pool_size_becomes_an_error_row(self, tmp_path, runner):
        approach = {"name": "search", "algorithm": "dfbnb", "ordering": "shortest-path", "pool_size": "5"}
        spec = {"networks": [{"hosts": 4, "seed": 1}], "approaches": [approach]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert len(rows) == 1
        assert rows[0]["error"].startswith("ConfigurationError: sweep spec pool_size must be an integer")

    def test_negative_pool_size_becomes_an_error_row(self, tmp_path, runner):
        approach = {"name": "search", "algorithm": "astar", "ordering": "shortest-path", "pool_size": -3}
        spec = {"networks": [{"hosts": 4, "seed": 1}], "approaches": [approach]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert [row["error"] for row in rows] == [
            "ConfigurationError: the shortest-path ordering needs a pool size of at least 1, got -3"
        ]

    def test_network_spec_without_path_or_hosts_is_a_configuration_error(self, tmp_path, runner):
        res, out = self._sweep(tmp_path, runner, {"networks": [{"seed": 1}]})
        assert res.exit_code == 2, res.output
        assert "error:" in res.output
        assert not out.exists()

    def test_unreachable_network_gives_error_rows(self, tmp_path, runner):
        spec = {
            "networks": [{"path": str(_write_cut_network(tmp_path))}],
            "approaches": [
                {"name": "random"},
                {"name": "search", "algorithm": "dfbnb"},
                {"name": "search", "algorithm": "exhaustive"},
                {"name": "search", "algorithm": "astar", "ordering": "shortest-path"},
            ],
        }
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert len(rows) == 4
        assert all(row["error"].startswith("Unreachable") for row in rows)

    def test_unreachable_network_rows_are_pinned(self, tmp_path, runner):
        labels = ["random", "random-hosts:1.0", "search:dfbnb:h2:utility", "search:astar:h2:shortest-path"]
        spec = {
            "networks": [{"path": str(_write_cut_network(tmp_path))}],
            "budgets": [0, 1],
            "approaches": [
                {"name": "random"},
                {"name": "random-hosts", "fraction": 1.0},
                {"name": "search", "algorithm": "dfbnb"},
                {"name": "search", "algorithm": "astar", "ordering": "shortest-path"},
            ],
        }
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        assert out.read_text().splitlines()[1:] == [
            f"cut,2,{label},{budget},,,,,,,0,0,,,,,Unreachable: goal p|h:t is not derivable"
            for label in labels
            for budget in (0, 1)
        ]

    def test_each_network_builds_its_problem_once(self, tmp_path, runner, monkeypatch):
        # a failed build is not remembered: each cut-network search row builds again and re-raises its error
        builds = []

        def counted(network):
            builds.append(network.n_hosts)
            return PlacementProblem(network)

        monkeypatch.setattr(cli, "PlacementProblem", counted)
        spec = {
            "networks": [{"path": str(_write_cut_network(tmp_path))}, {"hosts": 6, "seed": 1}],
            "budgets": [1, 2],
            "approaches": [
                {"name": "random"},
                {"name": "random-hosts", "fraction": 0.5},
                {"name": "search", "algorithm": "dfbnb"},
                {"name": "search", "algorithm": "astar", "ordering": "shortest-path"},
                {"name": "search", "algorithm": "exhaustive"},
            ],
        }
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert [row["error"].startswith("Unreachable") for row in rows] == [True] * 10 + [False] * 10
        assert builds == [2] * 6 + [6]

    # two networks, every kind of approach: seed-free searches, a seeded one and both random draws
    _TRIAL_SPEC = {
        "networks": [{"hosts": 8, "seed": 3}, {"hosts": 12, "seed": 7}],
        "budgets": [1, 2],
        "approaches": [
            {"name": "search", "algorithm": "dfbnb"},
            {"name": "search", "algorithm": "astar", "ordering": "shortest-path"},
            {"name": "search", "algorithm": "exhaustive"},
            {"name": "search", "algorithm": "dfbnb", "ordering": "random"},
            {"name": "random"},
            {"name": "random-hosts", "fraction": 0.5},
        ],
        "base_seed": 5,
    }

    def _grid(self, tmp_path, runner, name, *options, **fields):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({**self._TRIAL_SPEC, **fields}))
        out = tmp_path / f"{name}.csv"
        res = runner.invoke(main, ["sweep", "--spec", str(spec), "--out", str(out), *options])
        assert res.exit_code == 0, res.output
        rows = _rows(out.read_text())
        assert rows and all(row["error"] == "" for row in rows)
        return rows

    def test_trials_equal_one_trial_sweeps_at_their_seeds(self, tmp_path, runner):
        rows = self._grid(tmp_path, runner, "three", trials=3)
        singles = [self._grid(tmp_path, runner, f"one-{t}", trials=1, base_seed=5 + t) for t in range(3)]
        cells = len(singles[0])
        assert cells == 2 * 6 * 2 and len(rows) == 3 * cells
        assert rows == [dict(single[i], trial=str(t)) for i in range(cells) for t, single in enumerate(singles)]

    def test_engines_and_evaluations_run_once_per_distinct_input(self, tmp_path, runner, monkeypatch):
        searches, placements, evaluations = [], set(), []

        def recorded(name, engine):
            def run(network, budget, *args):
                result = engine(network, budget, *args)
                searches.append((network.n_hosts, name, budget, None if name == "exhaustive" else args[0]))
                placements.add((network.n_hosts, frozenset(result.best_assignments)))
                return result

            return run

        def drawn(draw):
            def run(network, *args):
                placement = draw(network, *args)
                placements.add((network.n_hosts, frozenset(placement)))
                return placement

            return run

        evaluate = cli.evaluate_placement

        def counted(network, assignments, seed=0):
            evaluations.append((network.n_hosts, frozenset(assignments)))
            return evaluate(network, assignments, seed)

        for name, engine in (("dfbnb", cli.dfbnb), ("astar", cli.astar), ("exhaustive", cli.exhaustive_best)):
            monkeypatch.setattr(cli, "exhaustive_best" if name == "exhaustive" else name, recorded(name, engine))
        for name in ("draw_budget_placement", "draw_placement"):
            monkeypatch.setattr(cli, name, drawn(getattr(cli, name)))
        monkeypatch.setattr(cli, "evaluate_placement", counted)
        rows = self._grid(tmp_path, runner, "counted", trials=3)
        runs = {("dfbnb", "utility"): 1, ("astar", "shortest-path"): 1, ("exhaustive", None): 1, ("dfbnb", "random"): 3}
        assert sorted(searches) == sorted(
            (hosts, name, budget, ordering)
            for hosts in (8, 12)
            for budget in (1, 2)
            for (name, ordering), count in runs.items()
            for _ in range(count)
        )
        assert sorted(evaluations, key=repr) == sorted(placements, key=repr)
        assert len(evaluations) < len(rows) // 2

    def test_an_exhaustive_search_reads_no_seed_under_the_random_ordering(self, tmp_path, runner, monkeypatch):
        approaches = [{"name": "search", "algorithm": "exhaustive", "ordering": "random"}]
        singles = [
            self._grid(tmp_path, runner, f"one-{t}", trials=1, base_seed=5 + t, approaches=approaches) for t in range(3)
        ]
        calls = []
        exhaustive = cli.exhaustive_best

        def counted(network, budget, *args):
            calls.append((network.n_hosts, budget))
            return exhaustive(network, budget, *args)

        monkeypatch.setattr(cli, "exhaustive_best", counted)
        rows = self._grid(tmp_path, runner, "three", trials=3, approaches=approaches)
        # one enumeration per (network, budget), not one per trial
        assert sorted(calls) == [(8, 1), (8, 2), (12, 1), (12, 2)]
        cells = len(singles[0])
        assert cells == 4
        assert rows == [dict(single[i], trial=str(t)) for i in range(cells) for t, single in enumerate(singles)]

    def test_a_copied_row_carries_the_timings_it_repeats(self, tmp_path, runner):
        approaches = [{"name": "search", "algorithm": "dfbnb"}, {"name": "search", "algorithm": "astar"}]
        rows = self._grid(tmp_path, runner, "timed", "--timings", trials=3, approaches=approaches)
        for first, *copies in zip(*[iter(rows)] * 3):
            assert first["trial"] == "0" and first["search_ms"] and first["p2_ms"]
            assert copies == [dict(first, seed=str(5 + t), trial=str(t)) for t in (1, 2)]

    def test_the_spec_catalog_is_read_once(self, tmp_path, runner, monkeypatch):
        reads, load = [], cli.load_catalog
        monkeypatch.setattr(cli, "load_catalog", lambda path: reads.append(path) or load(path))
        bundle, catalog = tmp_path / "net.json", tmp_path / "cat.json"
        save_network(generate_network(8, default_catalog(), seed=5), bundle)
        catalog.write_text(catalog_to_json(default_catalog()))
        networks = [{"hosts": 8, "seed": 3}, {"hosts": 10, "seed": 4, "dead_hosts": 2}, {"hosts": 12, "seed": 7}]
        spec = {"networks": [*networks, {"path": str(bundle)}], "approaches": [{"name": "random"}, {"name": "search"}]}
        rows = []
        # the built-in catalog, named in a file, given as "" or left out
        for given in ({"catalog": str(catalog)}, {"catalog": ""}, {}):
            res, out = self._sweep(tmp_path, runner, {**spec, **given})
            assert res.exit_code == 0, res.output
            rows.append(out.read_text())
        assert reads == [str(catalog)]
        assert rows[0] == rows[1] == rows[2] and len(_rows(rows[0])) == 8

    def test_non_string_catalog_is_a_configuration_error(self, tmp_path, runner):
        res, out = self._sweep(tmp_path, runner, {"networks": [{"hosts": 4, "seed": 1}], "catalog": 5})
        assert res.exit_code == 2, res.output
        assert "error: sweep spec catalog must be a string, got 5" in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "network, message",
        [
            ({"hosts": 4, "seed": 2, "id": ["a"]}, "sweep spec network id must be a string, got ['a']"),
            ({"path": 3}, "sweep spec network path must be a string, got 3"),
            ({"seed": 2}, "network spec {'seed': 2} needs a path or hosts"),
            ({"hosts": "4"}, "sweep spec hosts must be an integer, got '4'"),
        ],
        ids=["id-list", "path-int", "no-path-or-hosts", "hosts-string"],
    )
    def test_malformed_network_spec_fails_before_any_row(self, tmp_path, runner, monkeypatch, network, message):
        cells = []
        monkeypatch.setattr(cli, "_sweep_cell", lambda *args: cells.append(args))
        res, out = self._sweep(tmp_path, runner, {"networks": [{"hosts": 4, "seed": 1}, network]})
        assert res.exit_code == 2, res.output
        assert f"error: {message}" in res.output
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize(
        "network, message",
        [
            ({"hosts": 2, "seed": 1}, "n_hosts too small to populate all three layers"),
            ({"hosts": 12, "seed": 1, "dead_hosts": -2}, "dead_hosts must be in [0, n_hosts)"),
        ],
        ids=["too-few-hosts", "negative-dead-hosts"],
    )
    def test_generator_error_fails_before_any_row(self, tmp_path, runner, monkeypatch, network, message):
        ran = []
        for name in ("dfbnb", "astar", "exhaustive_best", "evaluate_placement"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
        spec = {"networks": [{"hosts": 12, "seed": 7}, network], "approaches": [{"name": "random"}, {"name": "search"}]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 2, res.output
        assert res.output == f"error: network spec {network!r}: {message} (in {tmp_path / 'spec.json'})\n"
        assert ran == [] and not out.exists()

    def test_a_network_is_let_go_once_its_rows_are_done(self, tmp_path, runner, monkeypatch):
        # each network's compiled graph goes with it, so a sweep holds one at a time
        alive, generate, evaluate = [], cli.generate_network, cli.evaluate_placement

        def generated(*args, **kwargs):
            network = generate(*args, **kwargs)
            alive.append(weakref.ref(network))
            return network

        def counted(network, assignments, seed=0):
            live.add(tuple(ref() is not None for ref in alive))
            return evaluate(network, assignments, seed)

        live: set[tuple[bool, ...]] = set()
        monkeypatch.setattr(cli, "generate_network", generated)
        monkeypatch.setattr(cli, "evaluate_placement", counted)
        spec = {"networks": [{"hosts": 8, "seed": 3}, {"hosts": 12, "seed": 7}], "approaches": [{"name": "search"}]}
        res, out = self._sweep(tmp_path, runner, spec)
        assert res.exit_code == 0, res.output
        assert live == {(True, True), (False, True)}

    def test_path_index_is_kept_per_pool_size(self):
        network = generate_network(12, default_catalog(), seed=7)
        problem = PlacementProblem(network)
        assert len(problem.path_index(1).paths) == 1
        assert len(problem.path_index(100).paths) == len(build_path_index(problem, 100).paths) == 17

    def test_summary_means_are_correctly_rounded(self):
        # Ten p3 of 0.1 add up to 0.9999999999999999 left to right, before
        # Python 3.12's compensated sum(); the mean must not depend on it.
        row = {
            **dict.fromkeys(cli._CSV_COLUMNS, ""),
            "network_id": "n",
            "approach": "random",
            "budget": 1,
            "p1": 2,
            "p3": 0.1,
            "p4": 1.0,
            "p2_states": 3,
            "n_assignments": 1,
        }
        (cell,) = cli._summarize([dict(row, trial=trial) for trial in range(10)])["cells"]
        assert cell["trials"] == 10 and cell["errors"] == 0
        assert cell["mean_p3"] == 0.1
        assert cell["mean_expanded_nodes"] is None

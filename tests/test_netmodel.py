from __future__ import annotations

import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from decoygraph.cli import main
from decoygraph.errors import ConfigurationError, ValidationError
from decoygraph.netmodel import (
    EXTERNAL,
    Assignment,
    CvssVersion,
    Goal,
    Host,
    Layer,
    NetworkModel,
    VulnerabilityRecord,
    check_assignment,
    check_placement,
    compatible_vulns,
    default_catalog,
    generate_network,
    load_catalog,
    load_network,
    normalize_cost,
    save_catalog,
    save_network,
)


def _rec(vuln_id="v1", version=CvssVersion.V2, subscore=5.0, os=("linux",)):
    return VulnerabilityRecord(
        vuln_id=vuln_id,
        cvss_version=version,
        exploitability_subscore=subscore,
        affected_os=frozenset(os),
    )


class TestNormalizeCost:
    def test_v2_divides_by_ten(self):
        assert normalize_cost(_rec(subscore=5.0)) == 0.5
        assert normalize_cost(_rec(subscore=10.0)) == 1.0

    def test_v3_divides_by_subscore_max(self):
        rec = _rec(version=CvssVersion.V3, subscore=3.9)
        assert normalize_cost(rec) == 1.0
        assert normalize_cost(_rec(version=CvssVersion.V3, subscore=1.95)) == 0.5

    def test_zero_subscore_allowed(self):
        assert normalize_cost(_rec(subscore=0.0)) == 0.0

    def test_out_of_range_subscore_rejected(self):
        with pytest.raises(ValidationError):
            _rec(subscore=10.5)
        with pytest.raises(ValidationError):
            _rec(version=CvssVersion.V3, subscore=4.0)
        with pytest.raises(ValidationError):
            _rec(subscore=-1.0)


class TestVulnerabilityRecord:
    def test_requires_some_os(self):
        with pytest.raises(ValidationError):
            _rec(os=())

    def test_round_trip(self):
        rec = _rec(os=("linux", "win10"))
        assert VulnerabilityRecord.from_dict(rec.to_dict()) == rec

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_any_valid_v2_subscore_normalizes_into_unit_interval(self, subscore):
        cost = normalize_cost(_rec(subscore=subscore))
        assert 0.0 <= cost <= 1.0


class TestDefaultCatalog:
    def test_costs_are_dyadic_and_in_range(self, catalog):
        for rec in catalog.values():
            cost = normalize_cost(rec)
            assert 0.0 < cost <= 1.0
            # dyadic: an exact sum of negative powers of two
            assert (cost * 16) == int(cost * 16)

    def test_covers_multiple_operating_systems(self, catalog):
        oses = set()
        for rec in catalog.values():
            oses |= rec.affected_os
        assert len(oses) >= 4

    def test_keys_match_ids(self, catalog):
        assert all(vid == rec.vuln_id for vid, rec in catalog.items())


class TestCompatibility:
    def test_excludes_installed_and_sorts(self, catalog):
        some_os = sorted(next(iter(catalog.values())).affected_os)[0]
        pool = [v for v, r in catalog.items() if some_os in r.affected_os]
        host = Host(host_id="h", os=some_os, installed_vulns=frozenset(pool[:1]))
        result = compatible_vulns(catalog, host)
        assert pool[0] not in result
        assert result == sorted(result)

    def test_blank_os_rejected(self, catalog):
        with pytest.raises(ValidationError):
            compatible_vulns(catalog, Host(host_id="h", os=""))


def _tiny_network(catalog):
    os_name = sorted(next(iter(catalog.values())).affected_os)[0]
    vuln = next(v for v, r in catalog.items() if os_name in r.affected_os)
    hosts = {
        "a": Host(host_id="a", os=os_name, installed_vulns=frozenset({vuln}), layer=Layer.DMZ),
        "b": Host(host_id="b", os=os_name, installed_vulns=frozenset({vuln})),
    }
    return NetworkModel(
        hosts=hosts,
        reachability=frozenset({(EXTERNAL, "a"), ("a", "b")}),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="b"),
        catalog=catalog,
    )


class TestNetworkValidation:
    def test_host_key_must_match_id(self, catalog):
        net = _tiny_network(catalog)
        bad = dict(net.hosts)
        bad["zz"] = bad.pop("a")
        with pytest.raises(ValidationError):
            NetworkModel(
                hosts=bad,
                reachability=net.reachability,
                attacker_entry=net.attacker_entry,
                goal=net.goal,
                catalog=catalog,
            )

    def test_installed_vuln_must_exist_and_match_os(self, catalog):
        with pytest.raises(ValidationError):
            NetworkModel(
                hosts={"a": Host(host_id="a", os="zos", installed_vulns=frozenset({"nope"}))},
                reachability=frozenset(),
                attacker_entry=EXTERNAL,
                goal=Goal(host_id="a"),
                catalog=catalog,
            )

    def test_reachability_endpoints_must_exist(self, catalog):
        net = _tiny_network(catalog)
        with pytest.raises(ValidationError):
            NetworkModel(
                hosts=net.hosts,
                reachability=frozenset({("a", "ghost")}),
                attacker_entry=EXTERNAL,
                goal=net.goal,
                catalog=catalog,
            )

    def test_goal_host_must_exist(self, catalog):
        net = _tiny_network(catalog)
        with pytest.raises(ValidationError):
            NetworkModel(
                hosts=net.hosts,
                reachability=net.reachability,
                attacker_entry=EXTERNAL,
                goal=Goal(host_id="ghost"),
                catalog=catalog,
            )


class TestCheckAssignment:
    def test_rejects_unknown_host_vuln_incompatible_duplicate(self, catalog):
        net = _tiny_network(catalog)
        installed = sorted(net.hosts["a"].installed_vulns)[0]
        other_os_vuln = next(
            v for v, r in catalog.items() if net.hosts["a"].os not in r.affected_os
        )
        for bad in (
            Assignment(host_id="ghost", vuln_id=installed),
            Assignment(host_id="a", vuln_id="no-such-vuln"),
            Assignment(host_id="a", vuln_id=other_os_vuln),
            Assignment(host_id="a", vuln_id=installed),
        ):
            with pytest.raises(ValidationError):
                check_assignment(net, bad)

    def test_accepts_compatible_fresh_vuln(self, catalog):
        net = _tiny_network(catalog)
        vuln = compatible_vulns(catalog, net.hosts["a"])[0]
        check_assignment(net, Assignment(host_id="a", vuln_id=vuln))

    def test_placement_keeps_one_entry_per_pair(self, catalog):
        net = _tiny_network(catalog)
        first, second = compatible_vulns(catalog, net.hosts["a"])[:2]
        repeated = [Assignment("a", second), Assignment("a", first), Assignment("a", second), ("a", first)]
        assert check_placement(net, repeated) == [Assignment("a", first), Assignment("a", second)]


class TestGenerateNetwork:
    def test_deterministic(self, catalog):
        a = generate_network(12, catalog, seed=5)
        b = generate_network(12, catalog, seed=5)
        assert a.to_dict() == b.to_dict()
        c = generate_network(12, catalog, seed=6)
        assert a.to_dict() != c.to_dict()

    def test_too_small_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            generate_network(2, catalog, seed=0)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_structure(self, catalog, n):
        net = generate_network(n, catalog, seed=3)
        assert net.n_hosts == n
        layers = {layer: [h for h in net.hosts.values() if h.layer is layer] for layer in Layer}
        assert all(layers[layer] for layer in Layer)
        # the entry reaches every DMZ host and nothing deeper
        entry_edges = {dst for src, dst in net.reachability if src == EXTERNAL}
        assert entry_edges == {h.host_id for h in layers[Layer.DMZ]}
        assert net.goal.host_id in net.hosts
        assert net.hosts[net.goal.host_id].layer is Layer.SECURED
        for host in net.hosts.values():
            for vuln in host.installed_vulns:
                assert host.os in catalog[vuln].affected_os

    def test_every_host_reaches_somewhere(self, catalog):
        net = generate_network(15, catalog, seed=9)
        targets = {dst for _, dst in net.reachability}
        assert set(net.hosts) <= targets

    def test_dead_hosts_have_no_vulns_and_are_not_goal(self, catalog):
        net = generate_network(10, catalog, seed=4, dead_hosts=3)
        dead = [h for h in net.hosts.values() if not h.installed_vulns]
        assert len(dead) >= 3
        assert net.hosts[net.goal.host_id].installed_vulns

    @given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=50))
    def test_generation_never_crashes(self, n, seed):
        net = generate_network(n, default_catalog(), seed=seed)
        assert net.n_hosts == n


class TestFiles:
    def test_catalog_json_round_trip(self, catalog, tmp_path):
        path = tmp_path / "cat.json"
        save_catalog(catalog, path)
        assert load_catalog(path) == catalog

    def test_catalog_csv_round_trip(self, catalog, tmp_path):
        path = tmp_path / "cat.csv"
        save_catalog(catalog, path)
        assert load_catalog(path) == catalog

    def test_network_round_trip(self, catalog, tmp_path):
        net = generate_network(8, catalog, seed=11)
        path = tmp_path / "net.json"
        save_network(net, path)
        again = load_network(path, catalog)
        assert again.to_dict() == net.to_dict()

    @pytest.fixture
    def generated(self, tmp_path):
        """The file `decoygraph generate --hosts 8 --seed 11` writes."""
        path = tmp_path / "gen.json"
        res = CliRunner().invoke(main, ["generate", "--hosts", "8", "--seed", "11", "--out", str(path)])
        assert res.exit_code == 0, res.output
        return path

    def test_load_network_reads_what_generate_writes(self, catalog, generated):
        assert load_network(generated) == generate_network(8, catalog, seed=11)

    def test_save_network_writes_what_generate_writes(self, catalog, generated, tmp_path):
        path = tmp_path / "saved.json"
        save_network(generate_network(8, catalog, seed=11), path)
        assert path.read_bytes() == generated.read_bytes()

    def test_bare_network_file(self, catalog, tmp_path):
        net = generate_network(8, catalog, seed=11)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(net.to_dict()))
        assert load_network(path) == net
        wider = {**catalog, "v-extra": _rec("v-extra")}
        assert load_network(path, wider).catalog == wider

    def test_given_catalog_replaces_the_bundled_one(self, catalog, generated):
        wider = {**catalog, "v-extra": _rec("v-extra")}
        loaded = load_network(generated, wider)
        assert loaded.catalog == wider and loaded.to_dict() == load_network(generated).to_dict()

    @pytest.mark.parametrize(
        "content", [b"{not json", b"\xff\xfe", b'{"network": {"hosts": 5}}'], ids=["not-json", "not-utf8", "malformed"]
    )
    def test_malformed_network_file_is_named(self, tmp_path, content):
        path = tmp_path / "net.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: malformed network file"):
            load_network(path)

    @pytest.mark.parametrize("reader", ["catalog", "bundle"])
    def test_duplicate_catalog_entry_is_refused(self, catalog, generated, tmp_path, reader):
        # a second CVE-2014-0160 at subscore 1.0 must not replace the first
        records = [catalog[v].to_dict() for v in sorted(catalog)]
        twin = dict(records[0], exploitability_subscore=1.0)
        if reader == "catalog":
            path, read = tmp_path / "cat.json", load_catalog
            path.write_text(json.dumps(records + [twin]))
        else:
            path, read = generated, load_network
            bundle = json.loads(path.read_text())
            path.write_text(json.dumps({**bundle, "catalog": bundle["catalog"] + [twin]}))
        message = f"{path}: duplicate catalog entry {twin['vuln_id']}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read(path)

    @pytest.mark.parametrize("reader", ["bare", "bundle"])
    def test_duplicate_host_is_refused(self, generated, tmp_path, reader):
        # a second h01 must not replace the first
        bundle = json.loads(generated.read_text())
        hosts = bundle["network"]["hosts"]
        twin = dict(hosts[0], installed_vulns=[])
        bundle["network"]["hosts"] = hosts + [twin]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(bundle["network"] if reader == "bare" else bundle))
        message = f"{path}: duplicate host {twin['host_id']}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_network(path)

    def test_outputs_end_with_newline(self, catalog, tmp_path):
        path = tmp_path / "cat.json"
        save_catalog(catalog, path)
        assert path.read_text().endswith("\n")
        assert json.loads(path.read_text())


class TestAssignment:
    def test_sort_order_is_host_then_vuln(self):
        items = [
            Assignment(host_id="b", vuln_id="v1"),
            Assignment(host_id="a", vuln_id="v2"),
            Assignment(host_id="a", vuln_id="v1"),
        ]
        ordered = sorted(items)
        assert [(a.host_id, a.vuln_id) for a in ordered] == [
            ("a", "v1"),
            ("a", "v2"),
            ("b", "v1"),
        ]

    def test_round_trip(self):
        a = Assignment(host_id="x", vuln_id="v")
        assert Assignment.from_dict(a.to_dict()) == a

    def test_is_its_host_vuln_pair(self):
        a = Assignment("h", "v")
        assert a == ("h", "v")
        assert hash(a) == hash(("h", "v"))
        assert a.to_dict() == {"host_id": "h", "vuln_id": "v", "fake": True}

from __future__ import annotations

import random
from collections import Counter

import pytest

from decoygraph.errors import ConfigurationError
from decoygraph.netmodel import (
    EXTERNAL,
    CvssVersion,
    Goal,
    Host,
    Layer,
    NetworkModel,
    VulnerabilityRecord,
    check_assignment,
)
from decoygraph.placement_random import (
    _resolve_host_count,
    draw_budget_placement,
    draw_placement,
    random_budget_placement,
    random_placement,
)
from helpers import small_network


class TestHostCountResolution:
    def test_fraction_rounds_before_ceiling(self):
        # 0.3 * 10 is 2.9999... in floats; the pre-round keeps it at 3
        assert _resolve_host_count(0.3, 10) == 3
        assert _resolve_host_count(0.25, 10) == 3
        assert _resolve_host_count(0.1, 10) == 1
        assert _resolve_host_count(1.0, 7) == 7
        assert _resolve_host_count(0.0, 7) == 0

    def test_integers_pass_through(self):
        assert _resolve_host_count(4, 10) == 4
        assert _resolve_host_count(0, 10) == 0

    def test_rejections(self):
        with pytest.raises(ConfigurationError):
            _resolve_host_count(True, 10)
        with pytest.raises(ConfigurationError):
            _resolve_host_count(1.5, 10)
        with pytest.raises(ConfigurationError):
            _resolve_host_count(-0.1, 10)
        with pytest.raises(ConfigurationError):
            _resolve_host_count(11, 10)
        with pytest.raises(ConfigurationError):
            _resolve_host_count(-1, 10)
        with pytest.raises(ConfigurationError):
            _resolve_host_count("0.5", 10)
        with pytest.raises(ConfigurationError):
            _resolve_host_count(None, 10)


class TestFractionPlacement:
    def test_zero_fraction_places_nothing(self, chain_net):
        fakes, graph = random_placement(chain_net, 0.0, seed=1)
        assert fakes == frozenset()
        assert not any(graph.fake_flag.values())

    def test_full_fraction_selects_every_host(self, chain_net):
        # every host is selected, but each draws its fake count from
        # [0, compatible], so some seeds leave a host undecorated
        fakes, _ = random_placement(chain_net, 1.0, seed=0)
        assert {a.host_id for a in fakes} == set(chain_net.hosts)
        sparse, _ = random_placement(chain_net, 1.0, seed=1)
        assert {a.host_id for a in sparse} < set(chain_net.hosts)

    def test_assignments_are_valid(self):
        rng = random.Random(7)
        net = small_network(rng)
        fakes, _ = random_placement(net, 0.5, seed=3)
        for a in fakes:
            check_assignment(net, a)

    def test_determinism(self):
        rng = random.Random(11)
        net = small_network(rng)
        a1, g1 = random_placement(net, 0.5, seed=9)
        a2, g2 = random_placement(net, 0.5, seed=9)
        assert a1 == a2
        assert g1 == g2
        a3, _ = random_placement(net, 0.5, seed=10)
        # a different seed is allowed to coincide, but not across many nets
        assert isinstance(a3, frozenset)

    def test_graph_matches_assignments(self, chain_net):
        from decoygraph.aggraph import apply_assignments

        fakes, graph = random_placement(chain_net, 1.0, seed=2)
        assert fakes == draw_placement(chain_net, 1.0, seed=2)
        assert graph == apply_assignments(chain_net, fakes)


class TestBudgetPlacement:
    def test_exact_budget(self, chain_net):
        fakes, _ = random_budget_placement(chain_net, 2, seed=0)
        assert len(fakes) == 2

    def test_budget_clamps_to_pool(self, chain_net):
        # only three (host, vuln) pairs exist in this catalog
        fakes, _ = random_budget_placement(chain_net, 50, seed=0)
        assert len(fakes) == 3

    def test_zero_budget(self, chain_net):
        fakes, graph = random_budget_placement(chain_net, 0, seed=0)
        assert fakes == frozenset()
        assert not any(graph.fake_flag.values())

    def test_determinism_and_validity(self):
        rng = random.Random(21)
        net = small_network(rng)
        a1, _ = random_budget_placement(net, 3, seed=5)
        a2, _ = random_budget_placement(net, 3, seed=5)
        assert a1 == a2 == draw_budget_placement(net, 3, seed=5)
        for a in a1:
            check_assignment(net, a)


def _biased_net() -> NetworkModel:
    """One target host, one easy and one hard candidate lure."""
    catalog = {
        "rv": VulnerabilityRecord(
            vuln_id="rv",
            cvss_version=CvssVersion.V2,
            exploitability_subscore=10.0,
            affected_os=frozenset({"os-t"}),
        ),
        "w-cheap": VulnerabilityRecord(
            vuln_id="w-cheap",
            cvss_version=CvssVersion.V2,
            exploitability_subscore=1.25,
            affected_os=frozenset({"os-t"}),
        ),
        "w-dear": VulnerabilityRecord(
            vuln_id="w-dear",
            cvss_version=CvssVersion.V2,
            exploitability_subscore=10.0,
            affected_os=frozenset({"os-t"}),
        ),
    }
    host = Host(
        host_id="t",
        os="os-t",
        installed_vulns=frozenset({"rv"}),
        layer=Layer.SECURED,
    )
    return NetworkModel(
        hosts={"t": host},
        reachability=frozenset({(EXTERNAL, "t")}),
        attacker_entry=EXTERNAL,
        goal=Goal(host_id="t"),
        catalog=catalog,
    )


class TestWeighting:
    def test_low_cost_lures_dominate(self):
        net = _biased_net()
        hits = Counter()
        for seed in range(200):
            fakes, _ = random_budget_placement(net, 1, seed=seed)
            (only,) = fakes
            hits[only.vuln_id] += 1
        # weights are 1/(cost + 0.01): roughly 7.4 vs 0.99
        assert hits["w-cheap"] >= 120
        assert hits["w-dear"] >= 1

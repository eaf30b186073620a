from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from decoygraph import build_attack_graph, default_catalog
from decoygraph.fixtures import build_h1_counterexample, build_searchspace_k2

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def lure_net():
    return build_h1_counterexample()


@pytest.fixture(scope="session")
def lure_graph(lure_net):
    return build_attack_graph(lure_net)


@pytest.fixture(scope="session")
def chain_net():
    return build_searchspace_k2()


@pytest.fixture(scope="session")
def chain_graph(chain_net):
    return build_attack_graph(chain_net)

"""Random fake-vulnerability placement, the baseline the search competes with.

Hosts are drawn uniformly, then each drawn host receives a random number of
fake vulnerabilities picked without replacement, biased toward cheap ones: a
cheap fake is more tempting to a cost-minimizing attacker, so even the naive
baseline prefers it.
"""

from __future__ import annotations

import math
import random

from .aggraph import AttackGraph, apply_assignments
from .errors import ConfigurationError
from .netmodel import Assignment, NetworkModel, compatible_pairs, compatible_vulns, normalize_cost

# A fake is drawn with weight 1 / (cost + _WEIGHT_EPSILON), so a free one stays finite.
_WEIGHT_EPSILON = 0.01


def _weighted_sample(pool: list, count: int, rng: random.Random, weights: dict) -> list:
    remaining = list(pool)
    picked = []
    for _ in range(count):
        w = [weights[v] for v in remaining]
        idx = rng.choices(range(len(remaining)), weights=w, k=1)[0]
        picked.append(remaining.pop(idx))
    return picked


def _resolve_host_count(spec: float | int, n_hosts: int) -> int:
    if isinstance(spec, bool) or not isinstance(spec, (int, float)):
        raise ConfigurationError(f"host count must be an int or a fraction, got {spec!r}")
    if isinstance(spec, float):
        if not 0.0 <= spec <= 1.0:
            raise ConfigurationError(f"host fraction must lie in [0, 1], got {spec}")
        # round before ceil so 0.3 * 10 lands on 3, not 4
        return math.ceil(round(spec * n_hosts, 9))
    if not 0 <= spec <= n_hosts:
        raise ConfigurationError(f"host count must lie in [0, {n_hosts}], got {spec}")
    return spec


def draw_placement(
    network: NetworkModel,
    fraction_or_count: float | int,
    seed: int,
) -> frozenset[Assignment]:
    """Fakes on a random subset of hosts.

    `fraction_or_count` is either a fraction of hosts (float in [0, 1],
    rounded up) or an absolute host count. Per chosen host the number of
    fakes is uniform on 0..#compatible, and the fakes themselves are drawn
    with probability proportional to 1 / (cost + _WEIGHT_EPSILON).
    """
    rng = random.Random(seed)
    host_ids = sorted(network.hosts)
    count = _resolve_host_count(fraction_or_count, len(host_ids))
    chosen_hosts = rng.sample(host_ids, count)
    weights = {
        vuln_id: 1.0 / (normalize_cost(rec) + _WEIGHT_EPSILON)
        for vuln_id, rec in network.catalog.items()
    }
    assignments: set[Assignment] = set()
    for host_id in chosen_hosts:
        valid = compatible_vulns(network.catalog, network.hosts[host_id])
        if not valid:
            continue
        n_fakes = rng.randint(0, len(valid))
        for vuln_id in _weighted_sample(valid, n_fakes, rng, weights):
            assignments.add(Assignment(host_id=host_id, vuln_id=vuln_id))
    return frozenset(assignments)


def draw_budget_placement(
    network: NetworkModel,
    budget: int,
    seed: int,
) -> frozenset[Assignment]:
    """Exactly min(budget, #compatible pairs) fakes network-wide.

    Same cost-biased draw as `draw_placement` but over the flat pool of
    all (host, vulnerability) pairs, so the budget matches the search's and
    the two are comparable head-to-head.
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be non-negative, got {budget}")
    rng = random.Random(seed)
    pool = compatible_pairs(network)
    weights = {a: 1.0 / (normalize_cost(network.catalog[a.vuln_id]) + _WEIGHT_EPSILON) for a in pool}
    return frozenset(_weighted_sample(pool, min(budget, len(pool)), rng, weights))


def random_placement(
    network: NetworkModel,
    fraction_or_count: float | int,
    seed: int,
) -> tuple[frozenset[Assignment], AttackGraph]:
    """Place fakes on a random subset of hosts, returning (placement, graph).

    The placement is `draw_placement`'s, and the graph has it applied.
    """
    placement = draw_placement(network, fraction_or_count, seed)
    return placement, apply_assignments(network, placement)


def random_budget_placement(
    network: NetworkModel,
    budget: int,
    seed: int,
) -> tuple[frozenset[Assignment], AttackGraph]:
    """Place fakes network-wide, returning (placement, graph).

    The placement is `draw_budget_placement`'s, and the graph has it applied.
    """
    placement = draw_budget_placement(network, budget, seed)
    return placement, apply_assignments(network, placement)

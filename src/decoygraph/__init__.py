"""Attack-graph deception toolkit.

Model a network, build its logical attack graph, simulate a cost-minimizing
attacker that replans when a planted fake vulnerability fails, and search for
the placement of fakes that maximizes the attacker's total cost.
"""

from .aggraph import (
    AttackGraph,
    NodeKind,
    apply_assignments,
    build_attack_graph,
    load_graph,
    save_graph,
    validate_graph,
)
from .attacker import (
    AttackIteration,
    EvaluationReport,
    SimulationTrace,
    evaluate_placement,
    simulate_attack,
)
from .errors import ConfigurationError, Unreachable, ValidationError
from .netmodel import (
    EXTERNAL,
    Assignment,
    Catalog,
    CvssVersion,
    Goal,
    Host,
    Layer,
    NetworkModel,
    VulnerabilityRecord,
    check_assignment,
    compatible_vulns,
    default_catalog,
    generate_network,
    load_catalog,
    load_network,
    normalize_cost,
    save_catalog,
    save_network,
)
from .placement_random import random_budget_placement, random_placement
from .placement_search import (
    PathIndex,
    PathRecord,
    PlacementProblem,
    SearchResult,
    astar,
    build_path_index,
    dfbnb,
    enumerate_candidates,
    exhaustive_best,
)
from .planner import (
    AttackPlan,
    PlannerStats,
    optimal_cost,
    optimal_plan,
    plan_with_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AttackGraph",
    "AttackIteration",
    "AttackPlan",
    "Assignment",
    "Catalog",
    "ConfigurationError",
    "CvssVersion",
    "EXTERNAL",
    "EvaluationReport",
    "Goal",
    "Host",
    "Layer",
    "NetworkModel",
    "NodeKind",
    "PathIndex",
    "PathRecord",
    "PlacementProblem",
    "PlannerStats",
    "SearchResult",
    "SimulationTrace",
    "Unreachable",
    "ValidationError",
    "VulnerabilityRecord",
    "apply_assignments",
    "astar",
    "build_attack_graph",
    "build_path_index",
    "check_assignment",
    "compatible_vulns",
    "default_catalog",
    "dfbnb",
    "enumerate_candidates",
    "evaluate_placement",
    "exhaustive_best",
    "generate_network",
    "load_catalog",
    "load_graph",
    "load_network",
    "normalize_cost",
    "optimal_cost",
    "optimal_plan",
    "plan_with_stats",
    "random_budget_placement",
    "random_placement",
    "save_catalog",
    "save_graph",
    "save_network",
    "simulate_attack",
    "validate_graph",
]

"""archdd: mine architectural design decisions from a system's evolution history.

Given recovered architecture snapshots for a sequence of versions plus the
project's issue export and commit log, the pipeline matches components
across consecutive versions, extracts architectural changes, maps resolved
issues to the entities their commits touched, and groups linked issues and
changes into simple, compound, or crosscutting decisions.
"""

from .changes import analyze_changes, get_change_instances
from .decisions import (
    Decision,
    DecisionGraph,
    DecisionKind,
    build_decision_graph,
    change_coverage,
    classify,
    find_decisions,
)
from .ingestion import (
    ArchitecturalImpactList,
    CommitRecord,
    IssueRecord,
    PathRule,
    apply_exclusions,
    build_impact_list,
    load_commits,
    load_issues,
    path_to_entity,
    select_issues,
)
from .matching import (
    MatchingProblem,
    balance,
    build_matching_problem,
    min_cost_matching,
)
from .model import (
    ArchitecturalChange,
    ArchitectureSnapshot,
    ChangeKind,
    Component,
    Delta,
    DeltaKind,
    entity_universe,
    parse_snapshot,
    serialize_snapshot,
)
from .pipeline import RunConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ArchitecturalChange",
    "ArchitecturalImpactList",
    "ArchitectureSnapshot",
    "ChangeKind",
    "CommitRecord",
    "Component",
    "Decision",
    "DecisionGraph",
    "DecisionKind",
    "Delta",
    "DeltaKind",
    "IssueRecord",
    "MatchingProblem",
    "PathRule",
    "RunConfig",
    "analyze_changes",
    "apply_exclusions",
    "balance",
    "build_decision_graph",
    "build_impact_list",
    "build_matching_problem",
    "change_coverage",
    "classify",
    "entity_universe",
    "find_decisions",
    "get_change_instances",
    "load_commits",
    "load_issues",
    "min_cost_matching",
    "parse_snapshot",
    "path_to_entity",
    "select_issues",
    "serialize_snapshot",
    "run_pipeline",
    "__version__",
]

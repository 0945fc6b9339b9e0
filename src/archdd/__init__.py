"""archdd: mine architectural design decisions from a system's evolution history.

Given recovered architecture snapshots for a sequence of versions plus the
project's issue export and commit log, the pipeline matches components
across consecutive versions, extracts architectural changes, maps resolved
issues to the entities their commits touched, and groups linked issues and
changes into simple, compound, or crosscutting decisions.
"""

from .changes import (
    analyze_changes,
    balance,
    build_matching_problem,
    get_change_instances,
    min_cost_matching,
)
from .decisions import (
    build_decision_graph,
    classify,
    find_decisions,
)
from .ingestion import (
    CommitRecord,
    IssueRecord,
    PathRule,
    add_message_links,
    apply_exclusions,
    build_impact_lists,
    load_commits,
    load_issues,
    path_to_entity,
)
from .model import (
    ArchitectureSnapshot,
    Component,
    entity_universe,
    parse_snapshot,
)
from .pipeline import RunConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSnapshot",
    "CommitRecord",
    "Component",
    "IssueRecord",
    "PathRule",
    "RunConfig",
    "add_message_links",
    "analyze_changes",
    "apply_exclusions",
    "balance",
    "build_decision_graph",
    "build_impact_lists",
    "build_matching_problem",
    "classify",
    "entity_universe",
    "find_decisions",
    "get_change_instances",
    "load_commits",
    "load_issues",
    "min_cost_matching",
    "parse_snapshot",
    "path_to_entity",
    "run_pipeline",
    "__version__",
]

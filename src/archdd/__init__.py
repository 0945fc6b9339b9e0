"""archdd: mine architectural design decisions from a system's evolution history.

Given recovered architecture snapshots for a sequence of versions plus the
project's issue export and commit log, the pipeline matches components
across consecutive versions, extracts architectural changes, maps resolved
issues to the entities their commits touched, and groups linked issues and
changes into simple, compound, or crosscutting decisions.

The root exports the names the README walks through; every other step stays
importable from its module, for example ``archdd.changes.min_cost_matching``.
"""

from .changes import analyze_changes
from .decisions import build_decision_graph, find_decisions
from .ingestion import (
    CommitRecord,
    IssueRecord,
    add_message_links,
    build_impact_lists,
    load_commits,
    load_issues,
)
from .model import ArchitectureSnapshot, Component, parse_snapshot
from .pipeline import RunConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSnapshot",
    "CommitRecord",
    "Component",
    "IssueRecord",
    "RunConfig",
    "add_message_links",
    "analyze_changes",
    "build_decision_graph",
    "build_impact_lists",
    "find_decisions",
    "load_commits",
    "load_issues",
    "parse_snapshot",
    "run_pipeline",
    "__version__",
]

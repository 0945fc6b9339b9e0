"""Decision extraction from the bipartite issues-changes graph.

A change is the plain dict ``changes.analyze_changes`` returns. An edge
connects an issue to a change when the issue's entities intersect the
entities of the change's ``deltas``, the ones it removed or added. Each
connected component of the edges is one decision, so orphans (degree-zero
nodes) never appear; a decision's kind, one of ``KINDS``, follows from its
issue and change counts.

A decision has one shape, the plain dict a ``run.json`` entry's
``decisions`` list holds without its version fields: ``id``, ``kind``,
sorted ``issue_ids`` and ``change_ids``, and ``tractable``.

The cleanup returns the ids of the changes it drops: those whose entities
all fall under ``ingestion.is_excluded``, the one third-party rule.

Decisions grow as sets over an issue -> changes and a change -> issues index,
so an issue and a change may share an id. Each issue not yet placed, in id
order, starts one that takes in the changes its issues reach, then the issues
those reach, until it stops growing: decisions come out by smallest issue id.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import ConfigError, InvariantViolation
from .ingestion import is_excluded
from .model import content_id

DEFAULT_TRACTABILITY_THRESHOLD = 5


def check_threshold(threshold) -> int:
    """``threshold``, or a ConfigError when it is not a positive integer; a bool is not one."""
    if type(threshold) is not int or threshold < 1:
        raise ConfigError("tractability_threshold must be a positive integer")
    return threshold


# The decision kinds, in the order the reports list them.
KINDS = ("simple", "compound", "crosscutting")


def classify(issue_count: int, change_count: int) -> str:
    """Kind from counts: 1/1 simple, >=2/1 compound, any/>=2 crosscutting."""
    if issue_count < 1 or change_count < 1:
        raise InvariantViolation(
            f"decision counts must be positive, got {issue_count} issues, "
            f"{change_count} changes"
        )
    if change_count >= 2:
        return "crosscutting"
    if issue_count >= 2:
        return "compound"
    return "simple"


def decision_id(
    issue_ids: Iterable[str], change_ids: Iterable[str], version_pair: tuple[str, str]
) -> str:
    parts = list(version_pair)
    parts.extend(sorted(issue_ids))
    parts.extend(sorted(change_ids))
    return content_id("d:", parts)


def build_decision_graph(impact: dict, changes: list[dict]) -> frozenset[tuple[str, str]]:
    """Connect each issue of ``impact["entries"]`` to every change that
    removed or added an entity it touched.

    One entity -> change index turns the issue x change intersection test
    into a walk over each issue's entities.
    """
    changes_of: dict[str, list[str]] = {}
    for change in changes:
        for delta in change["deltas"]:
            changes_of.setdefault(delta["entity"], []).append(change["id"])
    return frozenset(
        (issue_id, change_id)
        for issue_id, entities in impact["entries"].items()
        for entity in entities
        for change_id in changes_of.get(entity, ())
    )


def find_decisions(
    edges: frozenset[tuple[str, str]],
    version_pair: tuple[str, str],
    tractability_threshold: int = DEFAULT_TRACTABILITY_THRESHOLD,
) -> list[dict]:
    """Split the edges into connected components, one decision each for ``version_pair``.

    Each decision is ``{"id", "kind", "issue_ids", "change_ids",
    "tractable"}`` with sorted id lists: the ``decisions`` object of a
    ``run.json`` entry without its version fields. Output is ordered by the
    smallest issue id in each component so repeated runs list decisions
    identically.
    """
    changes_of: dict[str, set[str]] = {}
    issues_of: dict[str, set[str]] = {}
    for issue_id, change_id_ in edges:
        changes_of.setdefault(issue_id, set()).add(change_id_)
        issues_of.setdefault(change_id_, set()).add(issue_id)
    placed: set[str] = set()
    decisions = []
    for start in sorted(changes_of):
        if start in placed:
            continue
        issues, changes, reached_issues = {start}, set(), {start}
        while reached_issues:
            reached_changes = set().union(*map(changes_of.__getitem__, reached_issues)) - changes
            changes |= reached_changes
            reached_issues = set().union(*map(issues_of.__getitem__, reached_changes)) - issues
            issues |= reached_issues
        placed |= issues
        issue_ids, change_ids = sorted(issues), sorted(changes)
        decisions.append(
            {
                "id": decision_id(issue_ids, change_ids, version_pair),
                "kind": classify(len(issue_ids), len(change_ids)),
                "issue_ids": issue_ids,
                "change_ids": change_ids,
                "tractable": len(change_ids) <= tractability_threshold,
            }
        )
    return decisions


def drop_external_changes(changes: list[dict], exclusions) -> list[str]:
    """The cleanup: sorted ids of the changes all of whose entities are
    excluded, a ``run.json`` entry's ``external_change_ids``."""
    return sorted(
        c["id"] for c in changes if all(is_excluded(d["entity"], exclusions) for d in c["deltas"])
    )

"""Decision extraction from the bipartite issues-changes graph.

An edge connects an issue to a change when the issue's entities intersect
the entities the change removed or added. Each connected component of the
edges is one decision, so orphans (degree-zero nodes) never appear; a
decision's kind follows from its issue and change counts.

Decisions grow as sets over an issue -> changes and a change -> issues index,
so an issue and a change may share an id. Each issue not yet placed, in id
order, starts one that takes in the changes its issues reach, then the issues
those reach, until it stops growing: decisions come out by smallest issue id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvariantViolation
from .ingestion import apply_exclusions
from .model import ArchitecturalChange, content_id

DEFAULT_TRACTABILITY_THRESHOLD = 5


class DecisionKind(str, Enum):
    SIMPLE = "simple"
    COMPOUND = "compound"
    CROSSCUTTING = "crosscutting"


def classify(issue_count: int, change_count: int) -> DecisionKind:
    """Kind from counts: 1/1 simple, >=2/1 compound, any/>=2 crosscutting."""
    if issue_count < 1 or change_count < 1:
        raise InvariantViolation(
            f"decision counts must be positive, got {issue_count} issues, "
            f"{change_count} changes"
        )
    if change_count >= 2:
        return DecisionKind.CROSSCUTTING
    if issue_count >= 2:
        return DecisionKind.COMPOUND
    return DecisionKind.SIMPLE


@dataclass(frozen=True)
class Decision:
    """One connected subgraph of the decision graph."""

    id: str
    issue_ids: frozenset[str]
    change_ids: frozenset[str]
    tractable: bool

    def __post_init__(self):
        object.__setattr__(self, "issue_ids", frozenset(self.issue_ids))
        object.__setattr__(self, "change_ids", frozenset(self.change_ids))
        if not self.issue_ids or not self.change_ids:
            raise InvariantViolation("a decision needs at least one issue and one change")

    @property
    def kind(self) -> DecisionKind:
        return classify(len(self.issue_ids), len(self.change_ids))


def decision_id(
    issue_ids: frozenset[str], change_ids: frozenset[str], version_pair: tuple[str, str]
) -> str:
    parts = list(version_pair)
    parts.extend(sorted(issue_ids))
    parts.extend(sorted(change_ids))
    return content_id("d:", parts)


def build_decision_graph(
    impact: dict, changes: frozenset[ArchitecturalChange]
) -> frozenset[tuple[str, str]]:
    """Connect each issue of ``impact["entries"]`` to every change that
    removed or added an entity it touched.

    One entity -> change index turns the issue x change intersection test
    into a walk over each issue's entities.
    """
    changes_of: dict[str, list[str]] = {}
    for change in changes:
        for entity in change.delta_entities:
            changes_of.setdefault(entity, []).append(change.id)
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
) -> list[Decision]:
    """Split the edges into connected components, one decision each for ``version_pair``.

    Output is ordered by the smallest issue id in each component so repeated
    runs list decisions identically.
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
        issues, changes, new_issues = {start}, set(), {start}
        while new_issues:
            new_changes = set().union(*map(changes_of.__getitem__, new_issues)) - changes
            changes |= new_changes
            new_issues = set().union(*map(issues_of.__getitem__, new_changes)) - issues
            issues |= new_issues
        placed |= issues
        issue_ids = frozenset(issues)
        change_ids = frozenset(changes)
        decisions.append(
            Decision(
                id=decision_id(issue_ids, change_ids, version_pair),
                issue_ids=issue_ids,
                change_ids=change_ids,
                tractable=len(change_ids) <= tractability_threshold,
            )
        )
    return decisions


def is_external_change(change: ArchitecturalChange, exclusions) -> bool:
    """True when every removed or added entity falls under an excluded namespace."""
    return not apply_exclusions(change.delta_entities, exclusions)


def drop_external_changes(
    changes: frozenset[ArchitecturalChange], exclusions
) -> frozenset[ArchitecturalChange]:
    """The cleanup step: keep only changes with at least one non-excluded entity."""
    if not exclusions:
        return frozenset(changes)
    return frozenset(c for c in changes if not is_external_change(c, exclusions))

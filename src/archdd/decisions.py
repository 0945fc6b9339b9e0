"""Decision extraction from the bipartite issues-changes graph.

An edge connects an issue to a change when the issue's entities intersect
the change's delta entities. After dropping orphans (degree-zero nodes),
each connected component of the remaining graph is one decision, classified
by its issue and change counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .ingestion import ArchitecturalImpactList, apply_exclusions
from .model import ArchitecturalChange

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
class DecisionGraph:
    """Bipartite graph: issue ids on one side, change ids on the other."""

    version_pair: tuple[str | None, str]
    issue_nodes: frozenset[str]
    change_nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "issue_nodes", frozenset(self.issue_nodes))
        object.__setattr__(self, "change_nodes", frozenset(self.change_nodes))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for issue_id, change_id in self.edges:
            if issue_id not in self.issue_nodes or change_id not in self.change_nodes:
                raise InvariantViolation(
                    f"edge ({issue_id!r}, {change_id!r}) does not connect an issue "
                    "node to a change node"
                )


@dataclass(frozen=True)
class Decision:
    """One connected subgraph of the decision graph."""

    id: str
    issue_ids: frozenset[str]
    change_ids: frozenset[str]
    kind: DecisionKind
    version_pair: tuple[str | None, str]
    tractable: bool

    def __post_init__(self):
        object.__setattr__(self, "issue_ids", frozenset(self.issue_ids))
        object.__setattr__(self, "change_ids", frozenset(self.change_ids))
        object.__setattr__(self, "version_pair", tuple(self.version_pair))
        if not isinstance(self.kind, DecisionKind):
            object.__setattr__(self, "kind", DecisionKind(self.kind))
        if classify(len(self.issue_ids), len(self.change_ids)) is not self.kind:
            raise InvariantViolation(
                f"decision kind {self.kind.value!r} inconsistent with "
                f"{len(self.issue_ids)} issues / {len(self.change_ids)} changes"
            )


def decision_id(
    issue_ids: frozenset[str], change_ids: frozenset[str], version_pair
) -> str:
    parts = [version_pair[0] or "", version_pair[1] or ""]
    parts.extend(sorted(issue_ids))
    parts.extend(sorted(change_ids))
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return "d:" + digest[:12]


def build_decision_graph(
    impact: ArchitecturalImpactList, changes: frozenset[ArchitecturalChange]
) -> DecisionGraph:
    """Connect each issue to every change whose delta entities it touched.

    One entity -> change index over the deltas turns the issue x change
    intersection test into a walk over each issue's entities.
    """
    pairs = {change.version_pair for change in changes}
    if impact.version_pair[1] and any(pair[1] != impact.version_pair[1] for pair in pairs):
        raise InputError(
            f"impact list is for version {impact.version_pair[1]!r} but changes "
            f"target {sorted(pair[1] for pair in pairs)}"
        )
    version_pair = next(iter(pairs)) if len(pairs) == 1 else impact.version_pair
    changes_of: dict[str, list[str]] = {}
    for change in changes:
        for delta in change.deltas:
            changes_of.setdefault(delta.entity, []).append(change.id)
    edges = {
        (issue_id, change_id)
        for issue_id, entities in impact.entries.items()
        for entity in entities
        for change_id in changes_of.get(entity, ())
    }
    return DecisionGraph(
        version_pair=version_pair,
        issue_nodes=frozenset(impact.entries),
        change_nodes=frozenset(change.id for change in changes),
        edges=frozenset(edges),
    )


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def find_decisions(
    graph: DecisionGraph,
    tractability_threshold: int = DEFAULT_TRACTABILITY_THRESHOLD,
) -> list[Decision]:
    """Drop orphaned nodes, split the rest into connected components.

    Each component becomes one decision. Output is ordered by the smallest
    issue id in each component so repeated runs list decisions identically.
    """
    uf = _UnionFind()
    for issue_id, change_id_ in graph.edges:
        uf.add(("i", issue_id))
        uf.add(("c", change_id_))
        uf.union(("i", issue_id), ("c", change_id_))
    groups: dict[tuple[str, str], tuple[set[str], set[str]]] = {}
    for node in uf.parent:
        root = uf.find(node)
        issues, changes = groups.setdefault(root, (set(), set()))
        (issues if node[0] == "i" else changes).add(node[1])
    decisions = []
    for issues, changes in groups.values():
        issue_ids = frozenset(issues)
        change_ids = frozenset(changes)
        decisions.append(
            Decision(
                id=decision_id(issue_ids, change_ids, graph.version_pair),
                issue_ids=issue_ids,
                change_ids=change_ids,
                kind=classify(len(issue_ids), len(change_ids)),
                version_pair=graph.version_pair,
                tractable=len(change_ids) <= tractability_threshold,
            )
        )
    decisions.sort(key=lambda d: min(d.issue_ids))
    return decisions


def change_coverage(
    changes: frozenset[ArchitecturalChange], decisions: list[Decision]
) -> Fraction:
    """Fraction of the given changes that belong to some decision (0/0 -> 1)."""
    if not changes:
        return Fraction(1)
    covered: set[str] = set()
    for decision in decisions:
        covered |= decision.change_ids
    present = {change.id for change in changes}
    return Fraction(len(present & covered), len(present))


def is_external_change(change: ArchitecturalChange, exclusions) -> bool:
    """True when every delta entity falls under an excluded namespace."""
    return not apply_exclusions(change.delta_entities, exclusions)


def drop_external_changes(
    changes: frozenset[ArchitecturalChange], exclusions
) -> frozenset[ArchitecturalChange]:
    """The cleanup step: keep only changes with at least one non-excluded entity."""
    if not exclusions:
        return frozenset(changes)
    return frozenset(c for c in changes if not is_external_change(c, exclusions))

"""Change extraction: turn matched component pairs into change instances.

A matched pair with disjoint, non-empty entity sets yields two changes (the
old component was removed, the new one added) so that wholesale component
turnover is distinguishable from in-place transformation. A pair sharing
entities yields a single modification whose deltas are the symmetric
difference. Equal pairs yield nothing.
"""

from __future__ import annotations

from .matching import build_matching_problem, min_cost_matching
from .model import (
    ArchitectureSnapshot,
    ArchitecturalChange,
    ChangeKind,
    Component,
    Delta,
    DeltaKind,
    new_change,
)


def get_change_instances(
    c_a: Component, c_b: Component, version_pair: tuple[str, str]
) -> frozenset[ArchitecturalChange]:
    """Extract the change instance(s) for one matched component pair."""
    entities_a = c_a.entities
    entities_b = c_b.entities
    if entities_a == entities_b:
        return frozenset()
    if entities_a & entities_b:
        deltas = frozenset(
            {Delta(DeltaKind.REMOVE, e) for e in entities_a - entities_b}
            | {Delta(DeltaKind.ADD, e) for e in entities_b - entities_a}
        )
        return frozenset(
            {new_change(ChangeKind.COMPONENT_MODIFIED, c_a.name, c_b.name, deltas, version_pair)}
        )
    out = set()
    if entities_a:
        removes = frozenset(Delta(DeltaKind.REMOVE, e) for e in entities_a)
        out.add(new_change(ChangeKind.COMPONENT_REMOVED, c_a.name, None, removes, version_pair))
    if entities_b:
        adds = frozenset(Delta(DeltaKind.ADD, e) for e in entities_b)
        out.add(new_change(ChangeKind.COMPONENT_ADDED, None, c_b.name, adds, version_pair))
    return frozenset(out)


def analyze_changes(
    arch_a: ArchitectureSnapshot, arch_b: ArchitectureSnapshot
) -> frozenset[ArchitecturalChange]:
    """Two-pass change analysis: match components, then extract deltas.

    Pass 1 balances the snapshots and solves the min-cost matching; pass 2
    maps get_change_instances over the chosen pairs and unions the results.
    """
    problem = build_matching_problem(list(arch_a.components), list(arch_b.components))
    version_pair = (arch_a.version, arch_b.version)
    changes: set[ArchitecturalChange] = set()
    for c_a, c_b in min_cost_matching(problem):
        changes |= get_change_instances(c_a, c_b, version_pair)
    return frozenset(changes)


def matching_cost(changes: frozenset[ArchitecturalChange]) -> int:
    """Total delta count across a change set (equals the matching's total cost)."""
    return sum(len(change.deltas) for change in changes)

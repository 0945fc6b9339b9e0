"""Change analysis: match two snapshots' components, then diff each matched pair.

Matching is an assignment problem: balance both component lists to equal
length with empty dummy components, then pick the bijection that needs the
fewest entity-level deltas to transform one side into the other. Pairing A
with B costs |A| + |B| - 2|A & B| deltas, so the cheapest bijections are
those that share the most entities in total; only the pairs that share an
entity are recorded. Among equal-cost optima the matching that is
lexicographically smallest on (component_a name, component_b name) pairs is
returned, so output is deterministic.

A matched pair with disjoint, non-empty entity sets yields two changes (the
old component was removed, the new one added) so that wholesale component
turnover is distinguishable from in-place transformation. A pair (A, B)
sharing entities yields a single modification that removes A - B and adds
B - A. Equal pairs yield nothing.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from . import kernel
from .model import ArchitectureSnapshot, ArchitecturalChange, Component, new_change

DUMMY_PREFIX = "__dummy_"


def balance(
    components_a: Sequence[Component], components_b: Sequence[Component]
) -> tuple[list[Component], list[Component]]:
    """Pad the shorter list with empty dummy components until lengths match.

    Dummies get reserved names ``__dummy_<k>``; existing names are skipped
    so a (pathological) real component of that name cannot collide. The
    inputs are not modified.
    """
    a = list(components_a)
    b = list(components_b)
    taken = {c.name for c in a} | {c.name for c in b}
    counter = 0

    def next_dummy() -> Component:
        nonlocal counter
        while True:
            name = f"{DUMMY_PREFIX}{counter}"
            counter += 1
            if name not in taken:
                taken.add(name)
                return Component(name, frozenset())

    while len(a) < len(b):
        a.append(next_dummy())
    while len(b) < len(a):
        b.append(next_dummy())
    return a, b


def build_matching_problem(
    arch_a: ArchitectureSnapshot, arch_b: ArchitectureSnapshot
) -> tuple[list[Component], list[Component], list[dict[int, int]]]:
    """Balance both sides, sort each by name, and count each row's overlaps.

    Returns ``(a, b, overlaps)``: ``overlaps[i]`` maps each j with ``a[i]``
    and ``b[j]`` sharing entities to the number they share. Because a
    snapshot partitions its entities, one entity -> column map counts a
    whole row's overlaps in a single pass over the row's entities.
    """
    a, b = balance(arch_a.components, arch_b.components)
    a.sort(key=lambda c: c.name)
    b.sort(key=lambda c: c.name)
    column = {entity: j for j, component in enumerate(b) for entity in component.entities}
    overlaps = []
    for component in a:
        row = Counter(map(column.get, component.entities))
        row.pop(None, None)
        overlaps.append(row)
    return a, b, overlaps


def min_cost_matching(
    arch_a: ArchitectureSnapshot, arch_b: ArchitectureSnapshot
) -> list[tuple[Component, Component]]:
    """The bijective minimum-cost pairing of the two snapshots' components.

    Among equal-cost optima the result has the lexicographically smallest
    column vector, i.e. the smallest component_b names when both sides,
    dummies included, are sorted by name. Pairs come back in component_a
    name order.
    """
    a, b, overlaps = build_matching_problem(arch_a, arch_b)
    return [(a[i], b[j]) for i, j in enumerate(kernel.lexmin_assignment(overlaps))]


def get_change_instances(
    c_a: Component, c_b: Component, version_pair: tuple[str, str]
) -> frozenset[ArchitecturalChange]:
    """Extract the change instance(s) for one matched component pair."""
    entities_a = c_a.entities
    entities_b = c_b.entities
    if entities_a == entities_b:
        return frozenset()
    if entities_a & entities_b:
        removed = entities_a - entities_b
        added = entities_b - entities_a
        return frozenset({new_change(c_a.name, c_b.name, removed, added, version_pair)})
    out = set()
    if entities_a:
        out.add(new_change(c_a.name, None, entities_a, frozenset(), version_pair))
    if entities_b:
        out.add(new_change(None, c_b.name, frozenset(), entities_b, version_pair))
    return frozenset(out)


def analyze_changes(
    arch_a: ArchitectureSnapshot, arch_b: ArchitectureSnapshot
) -> frozenset[ArchitecturalChange]:
    """Two-pass change analysis: match components, then extract changes.

    Pass 1 solves the min-cost matching; pass 2 maps get_change_instances
    over the chosen pairs and unions the results.
    """
    version_pair = (arch_a.version, arch_b.version)
    changes: set[ArchitecturalChange] = set()
    for c_a, c_b in min_cost_matching(arch_a, arch_b):
        changes |= get_change_instances(c_a, c_b, version_pair)
    return frozenset(changes)


def matching_cost(changes: frozenset[ArchitecturalChange]) -> int:
    """Total entity count across a change set (equals the matching's total cost)."""
    return sum(len(change.removed) + len(change.added) for change in changes)

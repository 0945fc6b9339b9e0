"""Change analysis: match two snapshots' components, then diff each matched pair.

Matching is an assignment problem: balance both component lists to equal
length with empty dummy components, then pick the bijection that needs the
fewest entity-level deltas to transform one side into the other. Pairing A
with B costs |A| + |B| - 2|A & B| deltas, so the cheapest bijections are
those that share the most entities in total; only the pairs that share an
entity are recorded. Among equal-cost optima the matching that is
lexicographically smallest on (component_a name, component_b name) pairs is
returned, so output is deterministic.

Consecutive versions keep most components unchanged, so components with
identical entity sets are paired before the assignment kernel runs, and the
kernel sees only the rest. Every optimum holds such a pair (A, B): both
sides partition their entities, so if A went to some X and B to some Y
instead, neither pair would share an entity, and swapping to (A, B) and
(Y, X) would raise the total overlap by |A| > 0. With the pair fixed in
every optimum, the tie-break over the rest is unchanged too.

A matched pair with disjoint, non-empty entity sets yields two changes (the
old component was removed, the new one added) so that wholesale component
turnover is distinguishable from in-place transformation. A pair (A, B)
sharing entities yields a single modification that removes A - B and adds
B - A. Equal pairs yield nothing.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import count, islice

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
    names = (f"{DUMMY_PREFIX}{k}" for k in count())
    dummies = (Component(name, frozenset()) for name in names if name not in taken)
    shorter = a if len(a) < len(b) else b
    shorter.extend(islice(dummies, abs(len(a) - len(b))))
    return a, b


def build_matching_problem(
    arch_a: ArchitectureSnapshot, arch_b: ArchitectureSnapshot
) -> tuple[
    list[tuple[Component, Component]], list[Component], list[Component], list[dict[int, int]]
]:
    """Pair identical components, then set up the assignment for the rest.

    Returns ``(fixed, a, b, overlaps)``. ``fixed`` pairs each component of
    ``arch_a`` with the component of ``arch_b`` that holds exactly the same
    entities. ``a`` and ``b`` are the other components, balanced with
    dummies and sorted by name, and ``overlaps[i]`` maps each j with
    ``a[i]`` and ``b[j]`` sharing entities to the number they share.
    Balancing runs on the full lists, so dummy names avoid every real name;
    a fixed pair takes one component from each side, so the rest stay
    balanced. Because a snapshot partitions its entities, one entity ->
    column map counts a whole row's overlaps in a single pass over the
    row's entities.
    """
    twin = {component.entities: component for component in arch_b.components}
    fixed = []
    for component in arch_a.components:
        other = twin.get(component.entities)
        if other is not None:
            fixed.append((component, other))
    a, b = balance(arch_a.components, arch_b.components)
    if fixed:
        fixed_a = {c_a.name for c_a, _ in fixed}
        fixed_b = {c_b.name for _, c_b in fixed}
        a = [component for component in a if component.name not in fixed_a]
        b = [component for component in b if component.name not in fixed_b]
    a.sort(key=lambda c: c.name)
    b.sort(key=lambda c: c.name)
    column = {entity: j for j, component in enumerate(b) for entity in component.entities}
    overlaps = []
    for component in a:
        row = Counter(map(column.get, component.entities))
        row.pop(None, None)
        overlaps.append(row)
    return fixed, a, b, overlaps


def min_cost_matching(
    arch_a: ArchitectureSnapshot, arch_b: ArchitectureSnapshot
) -> list[tuple[Component, Component]]:
    """The bijective minimum-cost pairing of the two snapshots' components.

    Among equal-cost optima the result has the lexicographically smallest
    column vector, i.e. the smallest component_b names when both sides,
    dummies included, are sorted by name. Every optimum holds the fixed
    pairs, so the kernel solves only the rest: its lexicographic order is
    the full problem's order with the fixed rows and columns left out.
    Pairs come back in component_a name order.
    """
    fixed, a, b, overlaps = build_matching_problem(arch_a, arch_b)
    pairs = fixed + [(a[i], b[j]) for i, j in enumerate(kernel.lexmin_assignment(overlaps))]
    pairs.sort(key=lambda pair: pair[0].name)
    return pairs


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
    over the chosen pairs and unions the results. A pair holding identical
    entity sets yields nothing, so it is not handed on.
    """
    version_pair = (arch_a.version, arch_b.version)
    changes: set[ArchitecturalChange] = set()
    for c_a, c_b in min_cost_matching(arch_a, arch_b):
        if c_a.entities != c_b.entities:
            changes |= get_change_instances(c_a, c_b, version_pair)
    return frozenset(changes)


def matching_cost(changes: frozenset[ArchitecturalChange]) -> int:
    """Total entity count across a change set (equals the matching's total cost)."""
    return sum(len(change.removed) + len(change.added) for change in changes)

"""Component matching between two snapshots.

Works in the style of an assignment problem: balance both component lists
to equal length with empty dummy components, then pick the bijection that
needs the fewest entity-level deltas to transform one side into the other.
Pairing A with B costs |A| + |B| - 2|A & B| deltas, so the cheapest
bijections are those that share the most entities in total; only the pairs
that share an entity are recorded. Among equal-cost optima the matching
that is lexicographically smallest on (component_a name, component_b name)
pairs is returned, so output is deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import kernel
from .errors import InvariantViolation
from .model import Component, shared_entity

DUMMY_PREFIX = "__dummy_"


@dataclass
class MatchingProblem:
    """A balanced bipartite matching instance.

    ``components_a`` and ``components_b`` have equal length n;
    ``overlaps[i]`` maps each j with ``components_a[i]`` and
    ``components_b[j]`` sharing entities to the number they share. Pairs
    that share nothing are absent.
    """

    components_a: list[Component]
    components_b: list[Component]
    overlaps: list[dict[int, int]]


def balance(
    components_a: list[Component], components_b: list[Component]
) -> tuple[list[Component], list[Component]]:
    """Pad the shorter list with empty dummy components until lengths match.

    Dummies get reserved names ``__dummy_<k>``; existing names are skipped
    so a (pathological) real component of that name cannot collide. The
    input lists are not modified.
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
    components_a: list[Component], components_b: list[Component]
) -> MatchingProblem:
    """Balance both sides, sort each by name, and count each row's overlaps.

    Because ``components_b`` partitions its entities, one entity -> column
    map counts a whole row's overlaps in a single pass over A's entities.
    """
    a, b = balance(components_a, components_b)
    a.sort(key=lambda c: c.name)
    b.sort(key=lambda c: c.name)
    if shared_entity(b) is not None:
        raise InvariantViolation("components_b share an entity; they must partition it")
    column = {entity: j for j, component in enumerate(b) for entity in component.entities}
    overlaps = []
    for component in a:
        row = Counter(map(column.get, component.entities))
        row.pop(None, None)
        overlaps.append(row)
    return MatchingProblem(components_a=a, components_b=b, overlaps=overlaps)


def min_cost_matching(problem: MatchingProblem) -> list[tuple[Component, Component]]:
    """Solve the assignment problem; returns the bijective minimum-cost pairing.

    Among equal-cost optima the result has the lexicographically smallest
    column vector, i.e. the smallest component_b names when both sides are
    sorted by name as ``build_matching_problem`` leaves them. Pairs come back
    in ``components_a`` order.
    """
    a = problem.components_a
    b = problem.components_b
    n = len(a)
    if n != len(b):
        raise InvariantViolation("matching problem is not balanced")
    cols = kernel.lexmin_assignment(problem.overlaps, n)
    return [(a[i], b[j]) for i, j in enumerate(cols)]

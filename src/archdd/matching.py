"""Component matching between two snapshots.

Works in the style of an assignment problem: balance both component lists
to equal length with empty dummy components, price every pair by the number
of entity-level deltas needed to transform one component into the other,
then pick the bijection with minimum total cost. Among equal-cost optima
the matching that is lexicographically smallest on (component_a name,
component_b name) pairs is returned, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .errors import InvariantViolation
from .model import Component

DUMMY_PREFIX = "__dummy_"


@dataclass
class MatchingProblem:
    """A balanced bipartite matching instance.

    ``components_a`` and ``components_b`` have equal length n; ``costs`` is
    the row-major n*n list with ``costs[i * n + j]`` the cost of pairing
    ``components_a[i]`` with ``components_b[j]``.
    """

    components_a: list[Component]
    components_b: list[Component]
    costs: list[int]


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
    """Balance both sides, sort each by name, and price every pair.

    Pairing A with B costs |A ^ B| = |A| + |B| - 2|A & B| deltas. Because
    ``components_b`` partitions its entities, one entity -> column map prices
    a whole row in a single pass over A's entities.
    """
    a, b = balance(components_a, components_b)
    a.sort(key=lambda c: c.name)
    b.sort(key=lambda c: c.name)
    column = {entity: j for j, component in enumerate(b) for entity in component.entities}
    sizes_b = [len(component.entities) for component in b]
    if len(column) != sum(sizes_b):
        raise InvariantViolation("components_b share an entity; they must partition it")
    costs: list[int] = []
    for component in a:
        size_a = len(component.entities)
        row = [size_a + size_b for size_b in sizes_b]
        for entity in component.entities:
            j = column.get(entity)
            if j is not None:
                row[j] -= 2
        costs += row
    return MatchingProblem(components_a=a, components_b=b, costs=costs)


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
    cols = kernel.lexmin_assignment(problem.costs, n)
    return [(a[i], b[j]) for i, j in enumerate(cols)]

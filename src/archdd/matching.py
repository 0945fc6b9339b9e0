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


@dataclass(frozen=True)
class MatchEdge:
    """One chosen pairing with its transformation cost."""

    component_a: str
    component_b: str
    cost: int


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


def change_cost(c_a: Component, c_b: Component) -> int:
    """Number of deltas to transform c_a into c_b: |entities_a ^ entities_b|."""
    return len(c_a.entities ^ c_b.entities)


def build_matching_problem(
    components_a: list[Component], components_b: list[Component]
) -> MatchingProblem:
    """Balance both sides, sort each by name, and price every pair."""
    a, b = balance(components_a, components_b)
    a.sort(key=lambda c: c.name)
    b.sort(key=lambda c: c.name)
    costs = [change_cost(ca, cb) for ca in a for cb in b]
    return MatchingProblem(components_a=a, components_b=b, costs=costs)


def min_cost_matching(problem: MatchingProblem) -> list[MatchEdge]:
    """Solve the assignment problem; returns the bijective minimum-cost edge set.

    Among equal-cost optima the result has the lexicographically smallest
    column vector, i.e. the smallest component_b names when both sides are
    sorted by name as ``build_matching_problem`` leaves them. Edges come back
    in ``components_a`` order.
    """
    a = problem.components_a
    b = problem.components_b
    n = len(a)
    if n != len(b):
        raise InvariantViolation("matching problem is not balanced")
    costs = problem.costs
    cols = kernel.lexmin_assignment(costs, n)
    return [
        MatchEdge(a[i].name, b[j].name, costs[i * n + j]) for i, j in enumerate(cols)
    ]

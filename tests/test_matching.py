import itertools
import random

import pytest

from archdd.errors import InvariantViolation
from archdd.matching import (
    MatchingProblem,
    balance,
    build_matching_problem,
    change_cost,
    min_cost_matching,
)
from archdd.model import Component

from conftest import random_snapshot, snap


def comp(name, entities=""):
    return Component(name, frozenset(entities.split()))


def enumerate_best(components_a, components_b):
    """Exhaustive oracle: (min total, lex-min b-name vector in a-name order)."""
    a, b = balance(components_a, components_b)
    a = sorted(a, key=lambda c: c.name)
    b = sorted(b, key=lambda c: c.name)
    best = None
    for perm in itertools.permutations(range(len(b))):
        total = sum(change_cost(a[i], b[j]) for i, j in enumerate(perm))
        names = tuple(b[j].name for j in perm)
        if best is None or (total, names) < best:
            best = (total, names)
    return best


def solve(components_a, components_b):
    problem = build_matching_problem(components_a, components_b)
    chosen = min_cost_matching(problem)
    total = sum(edge.cost for edge in chosen)
    names = tuple(edge.component_b for edge in chosen)  # already in a-name order
    return chosen, total, names


def test_balance_pads_shorter_side():
    a = [comp("A1", "a"), comp("A2", "b"), comp("A3", "c")]
    b = [comp("B1", "a"), comp("B2", "b")]
    balanced_a, balanced_b = balance(a, b)
    assert len(balanced_a) == len(balanced_b) == 3
    assert balanced_b[2].name.startswith("__dummy_")
    assert balanced_b[2].entities == frozenset()
    # originals untouched
    assert len(a) == 3 and len(b) == 2


def test_balance_equal_lengths_unchanged():
    a = [comp("A1", "a")]
    b = [comp("B1", "b")]
    balanced_a, balanced_b = balance(a, b)
    assert balanced_a == a and balanced_b == b


def test_balance_empty_side():
    balanced_a, balanced_b = balance([], [comp("B1", "a"), comp("B2", "b")])
    assert [c.name for c in balanced_a] == ["__dummy_0", "__dummy_1"]
    assert all(not c.entities for c in balanced_a)


def test_balance_skips_colliding_dummy_names():
    a = [comp("__dummy_0", "x")]
    b = [comp("B1", "a"), comp("B2", "b")]
    balanced_a, _ = balance(a, b)
    assert balanced_a[1].name == "__dummy_1"


def test_change_cost_examples():
    assert change_cost(comp("x", "a b c"), comp("y", "b c d")) == 2
    assert change_cost(comp("x", "a b"), comp("y", "a b")) == 0
    assert change_cost(comp("x", "a b"), comp("dummy")) == 2


def test_change_cost_symmetric():
    rng = random.Random(3)
    pool = [f"e{i}" for i in range(12)]
    for _ in range(100):
        left = comp("x", " ".join(rng.sample(pool, rng.randint(0, 8))))
        right = comp("y", " ".join(rng.sample(pool, rng.randint(0, 8))))
        assert change_cost(left, right) == change_cost(right, left)
        assert (change_cost(left, right) == 0) == (left.entities == right.entities)


def test_min_cost_matching_spec_example():
    # A: C1={a,b}, C2={c}; B: D1={a,b}, D2={c,d} -> {(C1,D1,0),(C2,D2,1)}
    chosen, total, _ = solve(
        [comp("C1", "a b"), comp("C2", "c")], [comp("D1", "a b"), comp("D2", "c d")]
    )
    assert total == 1
    pairs = {(e.component_a, e.component_b, e.cost) for e in chosen}
    assert pairs == {("C1", "D1", 0), ("C2", "D2", 1)}


def test_min_cost_matching_identity():
    components = [comp("C1", "a b"), comp("C2", "c")]
    chosen, total, _ = solve(components, components)
    assert total == 0
    assert all(edge.component_a == edge.component_b for edge in chosen)


def test_min_cost_matching_dummy_example():
    # A: C1={a}; B: D1={b}, D2={a} -> {(C1,D2,0),(dummy,D1,1)}
    chosen, total, _ = solve([comp("C1", "a")], [comp("D1", "b"), comp("D2", "a")])
    assert total == 1
    by_b = {e.component_b: e for e in chosen}
    assert by_b["D2"].component_a == "C1" and by_b["D2"].cost == 0
    assert by_b["D1"].component_a.startswith("__dummy_") and by_b["D1"].cost == 1


def test_matching_equals_exhaustive_oracle():
    rng = random.Random(42)
    pool = [f"e{i:02d}" for i in range(30)]
    for _ in range(60):
        snap_a = random_snapshot(rng, "a", pool)
        snap_b = random_snapshot(rng, "b", pool)
        _, total, names = solve(list(snap_a.components), list(snap_b.components))
        best_total, best_names = enumerate_best(
            list(snap_a.components), list(snap_b.components)
        )
        assert total == best_total
        assert names == best_names  # lexicographic tie-break contract


def test_matching_is_deterministic():
    snap_a = snap("a", {"C1": "a b", "C2": "c d", "C3": "e"})
    snap_b = snap("b", {"D1": "a c", "D2": "b d", "D3": "f"})
    runs = [solve(list(snap_a.components), list(snap_b.components)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_min_cost_matching_rejects_unbalanced_problem():
    problem = MatchingProblem(components_a=[comp("A", "a")], components_b=[], costs=[])
    with pytest.raises(InvariantViolation):
        min_cost_matching(problem)

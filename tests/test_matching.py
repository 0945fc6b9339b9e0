import itertools
import random

from archdd.changes import analyze_changes, balance, build_matching_problem, min_cost_matching
from archdd.model import ArchitectureSnapshot, Component

from conftest import random_snapshot, snap


def comp(name, entities=""):
    return Component(name, frozenset(entities.split()))


def delta_cost(c_a, c_b):
    """Reference price of a pairing: the size of the entity symmetric difference."""
    return len(c_a.entities ^ c_b.entities)


def enumerate_best(components_a, components_b):
    """Exhaustive oracle: (min total, lex-min b-name vector in a-name order)."""
    a, b = balance(components_a, components_b)
    a = sorted(a, key=lambda c: c.name)
    b = sorted(b, key=lambda c: c.name)
    best = None
    for perm in itertools.permutations(range(len(b))):
        total = sum(delta_cost(a[i], b[j]) for i, j in enumerate(perm))
        names = tuple(b[j].name for j in perm)
        if best is None or (total, names) < best:
            best = (total, names)
    return best


def kinds(changes):
    """Each change as (kind, source component, target component)."""
    return {(c.kind.value, c.source_component, c.target_component) for c in changes}


def solve(components_a, components_b):
    chosen = min_cost_matching(
        ArchitectureSnapshot("a", components_a), ArchitectureSnapshot("b", components_b)
    )
    total = sum(delta_cost(c_a, c_b) for c_a, c_b in chosen)
    names = tuple(c_b.name for _, c_b in chosen)  # already in a-name order
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


def reference_overlaps(a, b):
    """Shared-entity counts of every pair, zeros included, row by row."""
    return [[len(c_a.entities & c_b.entities) for c_b in b] for c_a in a]


def padded(overlaps):
    """Sparse overlap rows padded with zeros to a full n x n table."""
    n = len(overlaps)
    return [[row.get(j, 0) for j in range(n)] for row in overlaps]


def test_costs_equal_symmetric_difference_reference():
    # Only overlapping pairs are stored. Padded with zeros they must equal
    # the reference counts, which fix each pair's delta cost |A| + |B| - 2|A & B|.
    a, b, overlaps = build_matching_problem(
        snap("a", {"x": "a b c", "z": "e f"}), snap("b", {"y": "b c d", "w": "e f"})
    )
    assert [c.name for c in a] == ["x", "z"]
    assert [c.name for c in b] == ["w", "y"]
    assert overlaps == [{1: 2}, {0: 2}]
    rng = random.Random(3)
    pool = [f"e{i:02d}" for i in range(40)]
    padded_draws = 0
    for _ in range(200):
        snap_a = random_snapshot(rng, "a", pool, max_components=8)
        snap_b = random_snapshot(rng, "b", pool, max_components=8)
        a, b, overlaps = build_matching_problem(snap_a, snap_b)
        padded_draws += len(snap_a.components) != len(snap_b.components)
        assert all(0 not in row.values() for row in overlaps)
        assert padded(overlaps) == reference_overlaps(a, b)
    assert padded_draws > 100  # most draws exercise empty dummy rows or columns


def test_min_cost_matching_spec_example():
    # A: C1={a,b}, C2={c}; B: D1={a,b}, D2={c,d} -> {(C1,D1,0),(C2,D2,1)}
    chosen, total, _ = solve(
        [comp("C1", "a b"), comp("C2", "c")], [comp("D1", "a b"), comp("D2", "c d")]
    )
    assert total == 1
    pairs = {(a.name, b.name, delta_cost(a, b)) for a, b in chosen}
    assert pairs == {("C1", "D1", 0), ("C2", "D2", 1)}


def test_min_cost_matching_identity():
    components = [comp("C1", "a b"), comp("C2", "c")]
    chosen, total, _ = solve(components, components)
    assert total == 0
    assert all(a.name == b.name for a, b in chosen)


def test_min_cost_matching_dummy_example():
    # A: C1={a}; B: D1={b}, D2={a} -> {(C1,D2,0),(dummy,D1,1)}
    chosen, total, _ = solve([comp("C1", "a")], [comp("D1", "b"), comp("D2", "a")])
    assert total == 1
    by_b = {b.name: (a, b) for a, b in chosen}
    assert by_b["D2"][0].name == "C1" and delta_cost(*by_b["D2"]) == 0
    assert by_b["D1"][0].name.startswith("__dummy_") and delta_cost(*by_b["D1"]) == 1
    # Dummies join the name tie-break under their reserved names. Both
    # pairings of p={e1}, q={e2} -> r={e1,e2} cost 2; `__dummy_0` sorts
    # before `r`, so p takes the dummy (removed) and q takes r (modified).
    lower = (snap("a", {"p": "e1", "q": "e2"}), snap("b", {"r": "e1 e2"}))
    assert [(a.name, b.name) for a, b in min_cost_matching(*lower)] == [
        ("p", "__dummy_0"),
        ("q", "r"),
    ]
    assert kinds(analyze_changes(*lower)) == {("removed", "p", None), ("modified", "q", "r")}
    # `R` sorts before `__dummy_0`, so P takes R.
    upper = (snap("a", {"P": "e1", "Q": "e2"}), snap("b", {"R": "e1 e2"}))
    assert [(a.name, b.name) for a, b in min_cost_matching(*upper)] == [
        ("P", "R"),
        ("Q", "__dummy_0"),
    ]
    assert kinds(analyze_changes(*upper)) == {("modified", "P", "R"), ("removed", "Q", None)}


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

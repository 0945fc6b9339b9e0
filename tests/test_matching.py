import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from archdd import changes, kernel
from archdd.changes import (
    analyze_changes,
    balance,
    build_matching_problem,
    change_order,
    get_change_instances,
    min_cost_matching,
)
from archdd.model import parse_snapshot

from conftest import comp, contain_lines, delta_cost, enumerate_best, random_snapshot, snap


def kinds(changes):
    """Each change as (kind, source component, target component)."""
    return {(c["kind"], c["source_component"], c["target_component"]) for c in changes}


def solve(components_a, components_b):
    chosen = min_cost_matching(
        parse_snapshot(contain_lines(components_a), "a"),
        parse_snapshot(contain_lines(components_b), "b"),
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
    # Identical components are paired up front. Of the rest, only overlapping
    # pairs are stored. Padded with zeros they must equal the reference
    # counts, which fix each pair's delta cost |A| + |B| - 2|A & B|.
    fixed, a, b, overlaps = build_matching_problem(
        snap("a", {"x": "a b c", "z": "e f"}), snap("b", {"y": "b c d", "w": "e f"})
    )
    assert [(c_a.name, c_b.name) for c_a, c_b in fixed] == [("z", "w")]
    assert [c.name for c in a] == ["x"]
    assert [c.name for c in b] == ["y"]
    assert overlaps == [{0: 2}]
    rng = random.Random(3)
    pool = [f"e{i:02d}" for i in range(40)]
    padded_draws = 0
    for _ in range(200):
        snap_a = random_snapshot(rng, "a", pool, max_components=8)
        snap_b = random_snapshot(rng, "b", pool, max_components=8)
        fixed, a, b, overlaps = build_matching_problem(snap_a, snap_b)
        padded_draws += len(snap_a.components) != len(snap_b.components)
        assert all(c_a.entities == c_b.entities for c_a, c_b in fixed)
        assert len(fixed) + len(a) == max(len(snap_a.components), len(snap_b.components))
        assert not {c.entities for c in a} & {c.entities for c in b if c.entities}
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


def unfixed_min_cost_matching(arch_a, arch_b):
    """Oracle: the matcher that hands every component, twins included, to the kernel."""
    a, b = balance(arch_a.components, arch_b.components)
    a.sort(key=lambda c: c.name)
    b.sort(key=lambda c: c.name)
    column = {entity: j for j, component in enumerate(b) for entity in component.entities}
    overlaps = []
    for component in a:
        row = Counter(map(column.get, component.entities))
        row.pop(None, None)
        overlaps.append(row)
    return [(a[i], b[j]) for i, j in enumerate(kernel.lexmin_assignment(overlaps))]


# Upper-case names sort before the `__dummy_<k>` names and lower-case ones
# after them; real components named like dummies push the dummies' names on.
NAME_POOL = ("__dummy_0", "__dummy_3", "A", "B", "K", "P", "Z", "a", "b", "k", "p", "z", "_q")
EDITS = ("copy",) * 6 + ("rename",) * 3 + ("move", "split", "merge", "drop")


@st.composite
def steady_pairs(draw):
    """Two snapshots, most of whose components are copied verbatim or renamed.

    A few components lose an entity to another one, split, merge into the
    previous one or disappear, and a few new ones appear, so either side may
    be the shorter one.
    """
    fresh = (f"e{k}" for k in itertools.count())
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=10, unique=True))
    older = [[name, [next(fresh) for _ in range(draw(st.integers(1, 4)))]] for name in names]
    newer = []
    for name, entities in older:
        edit = draw(st.sampled_from(EDITS))
        entities = list(entities)
        if edit == "drop":
            continue
        if edit == "merge" and newer:
            newer[-1][1] += entities
            continue
        if edit == "split" and len(entities) > 1:
            cut = draw(st.integers(1, len(entities) - 1))
            newer.append([None, entities[cut:]])
            del entities[cut:]
        if edit == "move" and len(entities) > 1 and newer:
            draw(st.sampled_from(newer))[1].append(entities.pop())
        newer.append([None if edit == "rename" else name, entities])
    for _ in range(draw(st.integers(0, 2))):
        newer.append([None, [next(fresh) for _ in range(draw(st.integers(1, 3)))]])
    taken = {name for name, _ in newer}
    spare = itertools.chain(
        draw(st.permutations([n for n in NAME_POOL if n not in taken])),
        (f"N{k}" for k in itertools.count()),
    )
    for entry in newer:
        if entry[0] is None:
            entry[0] = next(spare)
    sides = [
        parse_snapshot(contain_lines(side), version)
        for version, side in (("v1", older), ("v2", newer))
    ]
    if draw(st.booleans()):
        sides.reverse()
    return sides


def pair_names(pairs):
    return [(c_a.name, c_b.name) for c_a, c_b in pairs]


@settings(max_examples=300, deadline=None)
@given(pair=steady_pairs())
def test_fixed_pairs_agree_with_the_unfixed_matcher(pair):
    arch_a, arch_b = pair
    expected = unfixed_min_cost_matching(arch_a, arch_b)
    assert pair_names(min_cost_matching(arch_a, arch_b)) == pair_names(expected)
    version_pair = (arch_a.version, arch_b.version)
    expected_ids = {
        change["id"]
        for c_a, c_b in expected
        for change in get_change_instances(c_a, c_b, version_pair)
    }
    assert {change["id"] for change in analyze_changes(arch_a, arch_b)} == expected_ids


def test_kernel_sees_only_the_components_that_moved_entities(monkeypatch):
    # m moved entities touch at most 2m components of the older version; every
    # other component has an identical twin, so at most 2m rows reach the kernel.
    rows = []
    lexmin = kernel.lexmin_assignment

    def traced(overlaps):
        rows.append(len(overlaps))
        return lexmin(overlaps)

    monkeypatch.setattr(kernel, "lexmin_assignment", traced)
    rng = random.Random(12)
    for m in range(6):
        for _ in range(20):
            groups = {
                f"c{k:02d}": [f"e{k}.{i}" for i in range(rng.randint(1, 5))] for k in range(40)
            }
            older = snap("a", {name: " ".join(entities) for name, entities in groups.items()})
            moved = 0
            for _ in range(m):
                source, target = rng.sample(sorted(groups), 2)
                if groups[source]:
                    groups[target].append(groups[source].pop())
                    moved += 1
            newer = snap("b", {name: " ".join(group) for name, group in groups.items() if group})
            rows.clear()
            min_cost_matching(older, newer)
            assert len(rows) == 1 and rows[0] <= 2 * moved


def test_identical_pairs_never_reach_get_change_instances(monkeypatch):
    # A pair whose two components hold the same entities yields no change, so
    # analyze_changes hands only the pairs that differ to get_change_instances.
    visited = []
    extract = changes.get_change_instances

    def traced(c_a, c_b, version_pair):
        visited.append(c_a.entities == c_b.entities)
        return extract(c_a, c_b, version_pair)

    monkeypatch.setattr(changes, "get_change_instances", traced)
    rng = random.Random(21)
    twins = 0
    for _ in range(60):
        groups = {f"c{k:02d}": [f"e{k}.{i}" for i in range(rng.randint(1, 4))] for k in range(12)}
        older = snap("a", {name: " ".join(entities) for name, entities in groups.items()})
        for _ in range(rng.randint(0, 4)):
            source, target = rng.sample(sorted(groups), 2)
            if groups[source]:
                groups[target].append(groups[source].pop())
        groups[f"n{rng.randint(0, 9)}"] = [f"fresh{rng.randint(0, 99)}"]
        newer = snap("b", {name: " ".join(group) for name, group in groups.items() if group})
        pairs = min_cost_matching(older, newer)
        twins += sum(c_a.entities == c_b.entities for c_a, c_b in pairs)
        expected = sorted(
            (change for c_a, c_b in pairs for change in extract(c_a, c_b, ("a", "b"))),
            key=change_order,
        )
        visited.clear()
        assert analyze_changes(older, newer) == expected
        assert visited and not any(visited)
    assert twins > 300


def test_analyze_changes_matches_through_min_cost_matching(monkeypatch):
    # The pipeline's matching time is measured under this name.
    calls = []
    match = changes.min_cost_matching

    def traced(arch_a, arch_b):
        calls.append((arch_a.version, arch_b.version))
        return match(arch_a, arch_b)

    monkeypatch.setattr(changes, "min_cost_matching", traced)
    older = snap("a", {"c1": "x y", "c2": "z"})
    newer = snap("b", {"c1": "x y", "c3": "z w"})
    assert analyze_changes(older, newer)
    assert calls == [("a", "b")]

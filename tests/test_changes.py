import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archdd.changes import (
    analyze_changes,
    change_id,
    change_kind,
    change_order,
    get_change_instances,
    matching_cost,
    min_cost_matching,
)
from archdd.model import entity_universe
from archdd.report import canonical_json, changes_doc, parse_changes_doc

from conftest import comp, random_snapshot, snap


def delta_set(change):
    return {(delta["op"], delta["entity"]) for delta in change["deltas"]}


def test_disjoint_pair_yields_two_changes():
    changes = get_change_instances(comp("X", "a b"), comp("Y", "c"), ("v1", "v2"))
    assert len(changes) == 2
    by_kind = {c["kind"]: c for c in changes}
    removed = by_kind["removed"]
    added = by_kind["added"]
    assert delta_set(removed) == {("remove", "a"), ("remove", "b")}
    assert removed["source_component"] == "X" and removed["target_component"] is None
    assert delta_set(added) == {("add", "c")}
    assert added["target_component"] == "Y" and added["source_component"] is None


def test_overlapping_pair_yields_one_modification():
    changes = get_change_instances(comp("X", "a b c"), comp("Y", "b c d"), ("v1", "v2"))
    assert len(changes) == 1
    change = next(iter(changes))
    assert change["kind"] == "modified"
    assert change["source_component"] == "X" and change["target_component"] == "Y"
    assert delta_set(change) == {("remove", "a"), ("add", "d")}


def test_equal_pair_yields_nothing():
    assert get_change_instances(comp("X", "a"), comp("Y", "a"), ("v1", "v2")) == []


def test_dummy_pair_yields_single_change():
    added = get_change_instances(comp("__dummy_0"), comp("Y", "a b"), ("v1", "v2"))
    assert {c["kind"] for c in added} == {"added"}
    removed = get_change_instances(comp("X", "a"), comp("__dummy_0"), ("v1", "v2"))
    assert {c["kind"] for c in removed} == {"removed"}
    assert get_change_instances(comp("__dummy_0"), comp("__dummy_1"), ("v1", "v2")) == []


def test_analyze_changes_self_comparison_is_empty():
    snapshot = snap("v1", {"C1": "a b", "C2": "c"})
    assert analyze_changes(snapshot, snapshot) == []


def test_analyze_changes_spec_example():
    snap_a = snap("v1", {"C1": "a b", "C2": "c"})
    snap_b = snap("v2", {"D1": "a b", "D2": "c d"})
    changes = analyze_changes(snap_a, snap_b)
    assert len(changes) == 1
    change = next(iter(changes))
    assert change["kind"] == "modified"
    assert change["source_component"] == "C2" and change["target_component"] == "D2"
    assert delta_set(change) == {("add", "d")}
    assert change["id"] == change_id("C2", "D2", frozenset(), frozenset({"d"}), ("v1", "v2"))


def test_analyze_changes_disjoint_singletons():
    changes = analyze_changes(snap("v1", {"C1": "a"}), snap("v2", {"D1": "b"}))
    kinds = sorted(c["kind"] for c in changes)
    assert kinds == ["added", "removed"]
    entities = {(c["kind"], d["entity"]) for c in changes for d in c["deltas"]}
    assert entities == {("removed", "a"), ("added", "b")}


@st.composite
def snapshot_pairs(draw):
    """Two snapshots over one small entity pool, their components named from one small set."""
    pool = [f"e{i}" for i in range(10)]
    owners = st.sampled_from([None, "a", "b", "c", "d"])
    pair = []
    for version in ("v1", "v2"):
        groups = {}
        for entity, owner in zip(pool, draw(st.lists(owners, min_size=10, max_size=10))):
            if owner is not None:
                groups.setdefault(owner, []).append(entity)
        pair.append(snap(version, {name: " ".join(group) for name, group in groups.items()}))
    return pair


@settings(max_examples=300, deadline=None)
@given(pair=snapshot_pairs())
def test_analyzed_changes_keep_the_change_rules(pair):
    """Every change has the one shape and keeps the rules a changes document is checked for."""
    arch_a, arch_b = pair
    version_pair = (arch_a.version, arch_b.version)
    changes = analyze_changes(arch_a, arch_b)
    for change in changes:
        assert set(change) == {"id", "kind", "source_component", "target_component", "deltas"}
        assert all(set(delta) == {"op", "entity"} for delta in change["deltas"])
        deltas = [(delta["entity"], delta["op"]) for delta in change["deltas"]]
        assert deltas and deltas == sorted(set(deltas))
        source, target = change["source_component"], change["target_component"]
        removed = [entity for entity, op in deltas if op == "remove"]
        added = [entity for entity, op in deltas if op == "add"]
        assert len(removed) + len(added) == len(deltas)
        assert source is not None or not removed
        assert target is not None or not added
        assert change["kind"] == change_kind(source, target)
        assert change["id"] == change_id(source, target, removed, added, version_pair)
    assert changes == sorted(changes, key=change_order)
    assert parse_changes_doc(changes_doc(version_pair, changes)) == (version_pair, changes)


def test_dummy_names_never_appear_in_changes():
    snap_a = snap("v1", {"C1": "a"})
    snap_b = snap("v2", {"D1": "a", "D2": "x y"})
    for change in analyze_changes(snap_a, snap_b):
        for name in (change["source_component"], change["target_component"]):
            assert name is None or not name.startswith("__dummy_")


def test_conservation_total_deltas_equal_matching_cost():
    rng = random.Random(99)
    pool = [f"e{i:02d}" for i in range(35)]
    for _ in range(40):
        snap_a = random_snapshot(rng, "a", pool)
        snap_b = random_snapshot(rng, "b", pool)
        chosen = min_cost_matching(snap_a, snap_b)
        changes = analyze_changes(snap_a, snap_b)
        assert matching_cost(changes) == sum(len(a.entities ^ b.entities) for a, b in chosen)


def test_every_universe_difference_appears_exactly_once():
    rng = random.Random(7)
    pool = [f"e{i:02d}" for i in range(35)]
    for _ in range(40):
        snap_a = random_snapshot(rng, "a", pool)
        snap_b = random_snapshot(rng, "b", pool)
        changes = analyze_changes(snap_a, snap_b)
        counts = {}
        for change in changes:
            for entity in [delta["entity"] for delta in change["deltas"]]:
                counts[entity] = counts.get(entity, 0) + 1
        universe_a = entity_universe(snap_a)
        universe_b = entity_universe(snap_b)
        for entity in universe_a ^ universe_b:
            assert counts.get(entity) == 1
        for entity in universe_a & universe_b:
            assert counts.get(entity, 0) in (0, 2)


def _mirror(changes):
    flip_kind = {"added": "removed", "removed": "added", "modified": "modified"}
    flip_op = {"add": "remove", "remove": "add"}
    out = set()
    for change in changes:
        out.add(
            (
                flip_kind[change["kind"]],
                change["target_component"],
                change["source_component"],
                frozenset((flip_op[op], entity) for op, entity in delta_set(change)),
            )
        )
    return out


def test_symmetry_on_tie_free_fixture():
    # unique-optimum fixture: every off-diagonal assignment is strictly worse
    snap_a = snap("v1", {"core": "e1 e2 e3", "io": "f1 f2", "web": "g1"})
    snap_b = snap("v2", {"core": "e1 e2 e3 e4", "io": "f1 f2 f3", "web": "g1 g2"})
    forward = analyze_changes(snap_a, snap_b)
    backward = analyze_changes(snap_b, snap_a)
    plain = {
        (
            c["kind"],
            c["source_component"],
            c["target_component"],
            frozenset(delta_set(c)),
        )
        for c in forward
    }
    assert plain == _mirror(backward)


def test_analyze_changes_deterministic_serialization():
    snap_a = snap("v1", {"C1": "a b", "C2": "c d", "C3": "x"})
    snap_b = snap("v2", {"D1": "a c", "D2": "b d", "D3": "y"})
    docs = []
    for _ in range(2):
        changes = analyze_changes(snap_a, snap_b)
        ordered = sorted(changes, key=lambda c: c["id"])
        docs.append(canonical_json(ordered))
    assert docs[0] == docs[1]


def drifted(rng, snapshot, version, share):
    """``snapshot`` with a ``share`` of its entities moved, dropped, or replaced by new ones."""
    names = [c.name for c in snapshot.components]
    names += [f"new{k:03d}" for k in range(len(names) // 5 + 1)]
    owner = {}
    for component in snapshot.components:
        for entity in component.entities:
            roll = rng.random()
            if roll >= share:
                owner[entity] = component.name
            elif roll < share / 2:
                owner[entity] = rng.choice(names)
            elif roll < 3 * share / 4:
                owner[f"{entity}.{version}"] = rng.choice(names)
    grouped = {}
    for entity, name in owner.items():
        grouped.setdefault(name, []).append(entity)
    return snap(version, {name: " ".join(entities) for name, entities in grouped.items()})


def scipy_optimum(snap_a, snap_b):
    """Minimum total |A| + |B| - 2|A & B| by scipy, both sides padded with empty components."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    a = [c.entities for c in snap_a.components]
    b = [c.entities for c in snap_b.components]
    n = max(len(a), len(b))
    a += [frozenset()] * (n - len(a))
    b += [frozenset()] * (n - len(b))
    cost = np.array([[len(x) + len(y) - 2 * len(x & y) for y in b] for x in a], dtype=np.int64)
    rows, cols = optimize.linear_sum_assignment(cost)
    return int(cost[rows, cols].sum())


def test_matching_cost_equals_scipy_optimum():
    """The change set's size is the optimum of an independent solver, up to 200 components."""
    rng = random.Random(1704)
    largest = 0
    for trial in range(12):
        pool = [f"e{i:04d}" for i in range(800)]
        snap_a = random_snapshot(rng, "a", pool, max_components=200, max_entities=6)
        if trial % 2:
            snap_b = random_snapshot(rng, "b", pool, max_components=200, max_entities=6)
        else:
            snap_b = drifted(rng, snap_a, "b", share=rng.choice([0.05, 0.3, 0.9]))
        largest = max(largest, len(snap_a.components), len(snap_b.components))
        assert matching_cost(analyze_changes(snap_a, snap_b)) == scipy_optimum(snap_a, snap_b)
    assert largest > 150

import random

from archdd.changes import analyze_changes, get_change_instances, matching_cost
from archdd.matching import build_matching_problem, min_cost_matching
from archdd.model import ChangeKind, Component, DeltaKind, entity_universe
from archdd.report import change_to_obj, canonical_json

from conftest import random_snapshot, snap


def comp(name, entities=""):
    return Component(name, frozenset(entities.split()))


def delta_set(change):
    return {(d.kind.value, d.entity) for d in change.deltas}


def test_disjoint_pair_yields_two_changes():
    changes = get_change_instances(comp("X", "a b"), comp("Y", "c"), ("v1", "v2"))
    assert len(changes) == 2
    by_kind = {c.kind: c for c in changes}
    removed = by_kind[ChangeKind.COMPONENT_REMOVED]
    added = by_kind[ChangeKind.COMPONENT_ADDED]
    assert delta_set(removed) == {("remove", "a"), ("remove", "b")}
    assert removed.source_component == "X" and removed.target_component is None
    assert delta_set(added) == {("add", "c")}
    assert added.target_component == "Y" and added.source_component is None


def test_overlapping_pair_yields_one_modification():
    changes = get_change_instances(comp("X", "a b c"), comp("Y", "b c d"), ("v1", "v2"))
    assert len(changes) == 1
    change = next(iter(changes))
    assert change.kind is ChangeKind.COMPONENT_MODIFIED
    assert change.source_component == "X" and change.target_component == "Y"
    assert delta_set(change) == {("remove", "a"), ("add", "d")}


def test_equal_pair_yields_nothing():
    assert get_change_instances(comp("X", "a"), comp("Y", "a"), ("v1", "v2")) == frozenset()


def test_dummy_pair_yields_single_change():
    added = get_change_instances(comp("__dummy_0"), comp("Y", "a b"), ("v1", "v2"))
    assert {c.kind for c in added} == {ChangeKind.COMPONENT_ADDED}
    removed = get_change_instances(comp("X", "a"), comp("__dummy_0"), ("v1", "v2"))
    assert {c.kind for c in removed} == {ChangeKind.COMPONENT_REMOVED}
    assert get_change_instances(comp("__dummy_0"), comp("__dummy_1"), ("v1", "v2")) == frozenset()


def test_analyze_changes_self_comparison_is_empty():
    snapshot = snap("v1", {"C1": "a b", "C2": "c"})
    assert analyze_changes(snapshot, snapshot) == frozenset()


def test_analyze_changes_spec_example():
    snap_a = snap("v1", {"C1": "a b", "C2": "c"})
    snap_b = snap("v2", {"D1": "a b", "D2": "c d"})
    changes = analyze_changes(snap_a, snap_b)
    assert len(changes) == 1
    change = next(iter(changes))
    assert change.kind is ChangeKind.COMPONENT_MODIFIED
    assert change.source_component == "C2" and change.target_component == "D2"
    assert delta_set(change) == {("add", "d")}
    assert change.version_pair == ("v1", "v2")


def test_analyze_changes_disjoint_singletons():
    changes = analyze_changes(snap("v1", {"C1": "a"}), snap("v2", {"D1": "b"}))
    kinds = sorted(c.kind.value for c in changes)
    assert kinds == ["added", "removed"]
    entities = {(c.kind.value, e) for c in changes for e in c.delta_entities}
    assert entities == {("removed", "a"), ("added", "b")}


def test_dummy_names_never_appear_in_changes():
    snap_a = snap("v1", {"C1": "a"})
    snap_b = snap("v2", {"D1": "a", "D2": "x y"})
    for change in analyze_changes(snap_a, snap_b):
        for name in (change.source_component, change.target_component):
            assert name is None or not name.startswith("__dummy_")


def test_conservation_total_deltas_equal_matching_cost():
    rng = random.Random(99)
    pool = [f"e{i:02d}" for i in range(35)]
    for _ in range(40):
        snap_a = random_snapshot(rng, "a", pool)
        snap_b = random_snapshot(rng, "b", pool)
        problem = build_matching_problem(list(snap_a.components), list(snap_b.components))
        chosen = min_cost_matching(problem)
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
            for delta in change.deltas:
                counts[delta.entity] = counts.get(delta.entity, 0) + 1
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
                flip_kind[change.kind.value],
                change.target_component,
                change.source_component,
                frozenset((flip_op[d.kind.value], d.entity) for d in change.deltas),
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
            c.kind.value,
            c.source_component,
            c.target_component,
            frozenset((d.kind.value, d.entity) for d in c.deltas),
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
        ordered = sorted(changes, key=lambda c: c.id)
        docs.append(canonical_json([change_to_obj(c) for c in ordered]))
    assert docs[0] == docs[1]

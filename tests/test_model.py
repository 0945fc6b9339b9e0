import random

import pytest

from archdd.errors import InvariantViolation, PartitionViolation, SnapshotParseError
from archdd.model import (
    ArchitecturalChange,
    ChangeKind,
    Component,
    Delta,
    DeltaKind,
    entity_universe,
    new_change,
    parse_snapshot,
    serialize_snapshot,
)

from conftest import random_snapshot, snap


def test_parse_basic():
    snapshot = parse_snapshot("contain C1 a\ncontain C1 b\ncontain C2 c", "v1")
    by_name = {c.name: c.entities for c in snapshot.components}
    assert by_name == {"C1": {"a", "b"}, "C2": {"c"}}


def test_parse_partition_violation_names_both_components():
    with pytest.raises(PartitionViolation) as excinfo:
        parse_snapshot("contain C1 a\ncontain C2 a", "v1")
    assert excinfo.value.entity == "a"
    assert set(excinfo.value.components) == {"C1", "C2"}


def test_parse_empty_file():
    snapshot = parse_snapshot("", "v1")
    assert snapshot.components == ()
    assert entity_universe(snapshot) == frozenset()


def test_parse_ignores_comments_blanks_and_duplicate_lines():
    text = "# header\n\ncontain C1 a\ncontain C1 a\n   \ncontain C1 b\n"
    snapshot = parse_snapshot(text, "v1")
    assert entity_universe(snapshot) == {"a", "b"}


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(SnapshotParseError) as excinfo:
        parse_snapshot("contain C1 a\ncontain C1\n", "v1")
    assert excinfo.value.lineno == 2
    with pytest.raises(SnapshotParseError):
        parse_snapshot("include C1 a", "v1")


def test_entity_universe_examples():
    assert entity_universe(snap("v", {"C1": "a b", "C2": "c"})) == {"a", "b", "c"}
    assert entity_universe(snap("v", {"C1": "a"})) == {"a"}


def test_universe_cardinality_is_sum_of_component_sizes():
    rng = random.Random(11)
    pool = [f"e{i:02d}" for i in range(40)]
    for _ in range(50):
        snapshot = random_snapshot(rng, "v", pool)
        assert len(entity_universe(snapshot)) == sum(
            len(c.entities) for c in snapshot.components
        )


def test_parse_serialize_parse_round_trip():
    rng = random.Random(12)
    pool = [f"pkg.mod{i:02d}.Cls" for i in range(40)]
    for _ in range(25):
        snapshot = random_snapshot(rng, "v", pool)
        text = serialize_snapshot(snapshot)
        again = parse_snapshot(text, "v")
        assert {c.name: c.entities for c in again.components} == {
            c.name: c.entities for c in snapshot.components
        }
        assert serialize_snapshot(again) == text


def test_name_validation():
    with pytest.raises(InvariantViolation):
        Component("", frozenset({"a"}))
    with pytest.raises(InvariantViolation):
        Component("c", frozenset({"a b"}))
    with pytest.raises(InvariantViolation):
        Component(" c", frozenset({"a"}))
    for space in ("\t", "\u3000", "\x1c", "\xa0"):
        with pytest.raises(InvariantViolation, match="whitespace"):
            Component(f"c{space}d", frozenset({"a"}))
        with pytest.raises(InvariantViolation, match="whitespace"):
            Component("c", frozenset({f"a{space}"}))


def test_snapshot_rejects_duplicate_component_names():
    with pytest.raises(InvariantViolation):
        snap_components = (Component("C", frozenset({"a"})), Component("C", frozenset({"b"})))
        from archdd.model import ArchitectureSnapshot

        ArchitectureSnapshot("v", snap_components)


def test_snapshot_rejects_empty_components():
    from archdd.model import ArchitectureSnapshot

    with pytest.raises(InvariantViolation):
        ArchitectureSnapshot("v", (Component("C", frozenset()),))


def test_change_invariants():
    adds = frozenset({Delta(DeltaKind.ADD, "a")})
    removes = frozenset({Delta(DeltaKind.REMOVE, "a")})
    change = new_change(ChangeKind.COMPONENT_ADDED, None, "C", adds, ("v1", "v2"))
    assert change.delta_entities == {"a"}
    with pytest.raises(InvariantViolation):
        new_change(ChangeKind.COMPONENT_ADDED, None, "C", removes, ("v1", "v2"))
    with pytest.raises(InvariantViolation):
        new_change(ChangeKind.COMPONENT_REMOVED, "C", None, adds, ("v1", "v2"))
    with pytest.raises(InvariantViolation):
        new_change(ChangeKind.COMPONENT_MODIFIED, None, "C", adds, ("v1", "v2"))
    with pytest.raises(InvariantViolation):
        ArchitecturalChange("x", ChangeKind.COMPONENT_ADDED, None, "C", frozenset(), ("a", "b"))


def test_change_id_is_content_addressed():
    deltas = frozenset({Delta(DeltaKind.ADD, "a"), Delta(DeltaKind.ADD, "b")})
    one = new_change(ChangeKind.COMPONENT_ADDED, None, "C", deltas, ("v1", "v2"))
    two = new_change(ChangeKind.COMPONENT_ADDED, None, "C", deltas, ("v1", "v2"))
    other = new_change(ChangeKind.COMPONENT_ADDED, None, "D", deltas, ("v1", "v2"))
    assert one.id == two.id
    assert one.id != other.id

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archdd.errors import InvariantViolation, PartitionViolation, SnapshotParseError
from archdd.model import (
    ArchitecturalChange,
    ArchitectureSnapshot,
    ChangeKind,
    Component,
    entity_universe,
    new_change,
    parse_snapshot,
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
    # A snapshot built directly, not parsed, is checked the same way.
    with pytest.raises(PartitionViolation) as excinfo:
        ArchitectureSnapshot(
            "v1", (Component("B1", frozenset({"a", "b"})), Component("B2", frozenset({"b"})))
        )
    assert excinfo.value.components == ("B1", "B2")


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


def test_snapshot_builds_its_entity_set_once():
    base = parse_snapshot("contain C1 a\ncontain C1 b\ncontain C2 c\n", "v1")
    snapshots = [
        base,
        parse_snapshot("contain C1 a\ncontain C2 c\ncontain C3 d\n", "v2", base),
        ArchitectureSnapshot(
            "v3", (Component("B1", frozenset({"x", "y"})), Component("B2", frozenset({"z"})))
        ),
    ]
    for snapshot in snapshots:
        assert entity_universe(snapshot) is entity_universe(snapshot)
        assert entity_universe(snapshot) == frozenset().union(
            *(c.entities for c in snapshot.components)
        )
    assert [sorted(entity_universe(s)) for s in snapshots] == [
        ["a", "b", "c"], ["a", "c", "d"], ["x", "y", "z"],
    ]


def test_universe_cardinality_is_sum_of_component_sizes():
    rng = random.Random(11)
    pool = [f"e{i:02d}" for i in range(40)]
    for _ in range(50):
        snapshot = random_snapshot(rng, "v", pool)
        assert len(entity_universe(snapshot)) == sum(
            len(c.entities) for c in snapshot.components
        )


def _write_snapshot(snapshot):
    """The snapshot in the line format, records sorted."""
    lines = sorted(
        f"contain {component.name} {entity}"
        for component in snapshot.components
        for entity in component.entities
    )
    return "".join(line + "\n" for line in lines)


def test_parse_serialize_parse_round_trip():
    rng = random.Random(12)
    pool = [f"pkg.mod{i:02d}.Cls" for i in range(40)]
    for _ in range(25):
        snapshot = random_snapshot(rng, "v", pool)
        text = _write_snapshot(snapshot)
        again = parse_snapshot(text, "v")
        assert {c.name: c.entities for c in again.components} == {
            c.name: c.entities for c in snapshot.components
        }
        assert _write_snapshot(again) == text


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
    with pytest.raises(InvariantViolation, match="^entity name must be a non-empty string$"):
        Component("c", frozenset({1}))
    with pytest.raises(InvariantViolation, match="version label"):
        ArchitectureSnapshot("", ())


def test_snapshot_rejects_duplicate_component_names():
    with pytest.raises(InvariantViolation):
        snap_components = (Component("C", frozenset({"a"})), Component("C", frozenset({"b"})))
        ArchitectureSnapshot("v", snap_components)


def test_snapshot_rejects_empty_components():
    with pytest.raises(InvariantViolation):
        ArchitectureSnapshot("v", (Component("C", frozenset()),))


def test_change_invariants():
    pair = ("v1", "v2")
    added = new_change(None, "C", frozenset(), frozenset({"a"}), pair)
    assert added.delta_entities == {"a"}
    assert added.kind is ChangeKind.COMPONENT_ADDED
    assert new_change("C", None, {"a"}, frozenset(), pair).kind is ChangeKind.COMPONENT_REMOVED
    assert new_change("C", "D", {"a"}, frozenset(), pair).kind is ChangeKind.COMPONENT_MODIFIED
    with pytest.raises(InvariantViolation):  # removals without a source
        new_change(None, "C", frozenset({"a"}), frozenset(), pair)
    with pytest.raises(InvariantViolation):  # additions without a target
        new_change("C", None, frozenset(), frozenset({"a"}), pair)
    with pytest.raises(InvariantViolation):
        ArchitecturalChange("x", None, "C", frozenset(), frozenset())
    with pytest.raises(InvariantViolation):
        new_change("C", "C", frozenset(), frozenset({"a b"}), pair)


def test_change_id_is_content_addressed():
    entities = frozenset({"a", "b"})
    one = new_change(None, "C", frozenset(), entities, ("v1", "v2"))
    two = new_change(None, "C", frozenset(), entities, ("v1", "v2"))
    other = new_change(None, "D", frozenset(), entities, ("v1", "v2"))
    assert one.id == two.id
    assert one.id != other.id
    # the hashed strings: kind, endpoints, versions, then sorted op:entity
    parts = ["added", "", "C", "v1", "v2", "add:a", "add:b"]
    assert one.id == "ch:" + hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:12]


def reference_parse_snapshot(text: str, version: str) -> ArchitectureSnapshot:
    """The plain line loop that parse_snapshot must agree with, kept as the oracle."""
    grouped: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != "contain":
            raise SnapshotParseError(
                lineno, f"expected `contain <component> <entity>`, got {raw.strip()!r}"
            )
        grouped.setdefault(tokens[1], set()).add(tokens[2])
    components = tuple(
        Component(name, frozenset(entities)) for name, entities in sorted(grouped.items())
    )
    return ArchitectureSnapshot(version, components)


def parse_outcome(parse, text):
    """The components a parser yields, or the type, message and line of its error."""
    try:
        snapshot = parse(text, "v1")
    except (SnapshotParseError, PartitionViolation) as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return [(c.name, c.entities) for c in snapshot.components]


FIELDS = ["contain", "C1", "C2", "e1", "e2", "#", "#contain", "#e1", "contain#"]
SPACES = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
# Every line boundary str.splitlines knows; \x0b and \x0c also count as spaces for split.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

record_lines = st.tuples(
    st.sampled_from(["C1", "C2", "#a"]), st.sampled_from(["e1", "e2", "e3", "#b"])
).map(lambda names: f"contain {names[0]} {names[1]}")
# 0 to 4 fields, joined and led by one drawn space, trailed by another.
any_lines = st.tuples(
    st.sampled_from(SPACES), st.lists(st.sampled_from(FIELDS), max_size=4), st.sampled_from(SPACES)
).map(lambda parts: parts[0] + parts[0].join(parts[1]) + parts[2])
mostly_records = st.one_of(record_lines, record_lines, record_lines, any_lines)
snapshot_texts = st.lists(
    st.tuples(mostly_records, st.sampled_from(BREAKS)), max_size=8
).map(lambda lines: "".join(line + brk for line, brk in lines))


@settings(max_examples=300, deadline=None)
@given(text=snapshot_texts, tail=st.sampled_from(["", "contain C1 e1", "contain C1", " \t"]))
@example(text="contain a\nb contain c d\n", tail="")
@example(text="#contain a b\ncontain #a b\r\n\tcontain\tC1\te1 \n", tail="")
@example(text="contain C1 e1\x85contain C2 e1 ", tail="")
@example(text="contain C1 e1\x0bcontain C1\x0ce2\n\ncontain C1 e1\n", tail="contain C1 e1 e2")
def test_parse_snapshot_matches_the_line_loop(text, tail):
    text += tail
    assert parse_outcome(parse_snapshot, text) == parse_outcome(reference_parse_snapshot, text)


def test_bulk_split_counterexample_fails_at_line_one():
    # The tokens come in threes, each triple starts with `contain`, and there
    # are as many triples as non-blank lines, yet no line is a record.
    text = "contain a\nb contain c d\n"
    with pytest.raises(SnapshotParseError) as excinfo:
        parse_snapshot(text, "v1")
    assert excinfo.value.lineno == 1
    assert str(excinfo.value) == (
        "snapshot line 1: expected `contain <component> <entity>`, got 'contain a'"
    )


def chain_outcomes(texts):
    """Each text's outcome, parsed with the last text that parsed cleanly as its base."""
    base, outcomes = None, []
    for text in texts:
        try:
            snapshot = parse_snapshot(text, "v1", base=base)
        except (SnapshotParseError, PartitionViolation) as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "lineno", None)))
        else:
            outcomes.append([(c.name, c.entities) for c in snapshot.components])
            base = snapshot
    return outcomes


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(snapshot_texts, min_size=2, max_size=4))
# Two lines name one record; dropping one must keep it (the base guard).
@example(texts=["contain C1 e1\ncontain C1 e1 \n", "contain C1 e1 \n"])
@example(texts=["contain C1 e1\n", "contain C1\ncontain C1 e2\n", "contain C1 e2\n"])  # bad middle
@example(texts=["contain C1 e1\ncontain C2 e2\n", "contain C1 e1\n"])  # C2 empties
@example(texts=["contain C1 e1\n", "contain C1 e1\ncontain C2 e2\n"])  # C2 is new
# Comment and blank lines come and go.
@example(texts=["# c\n\ncontain C1 e1\n", "contain C1 e1\n#contain C1 e2\n \n", "#\ncontain C1 e1"])
# A partition violation mid-chain, then a text that resolves it.
@example(texts=["contain C1 e1\n", "contain C1 e1\ncontain C2 e1\n", "contain C2 e1\n"])
def test_chained_parse_matches_the_line_loop(texts):
    expected = [parse_outcome(reference_parse_snapshot, text) for text in texts]
    assert chain_outcomes(texts) == expected


def test_diff_read_shares_unchanged_components():
    first = parse_snapshot("contain C1 a\ncontain C2 b\ncontain C3 c\n", "v1")
    second = parse_snapshot("contain C1 a\ncontain C2 b\ncontain C3 d\n", "v2", base=first)
    assert all(new is old for new, old in zip(second.components[:2], first.components))
    assert second.components[2] == Component("C3", frozenset({"d"}))
    # A base that lists one record twice cannot serve; the next read starts afresh.
    twins = parse_snapshot("contain C1 a\ncontain C1 a \n", "v3", base=second)
    again = parse_snapshot("contain C1 a \n", "v4", base=twins)
    assert [c.entities for c in again.components] == [frozenset({"a"})]
    assert again.components[0] is not twins.components[0]

"""Architecture snapshot model: entities, components, snapshots.

A snapshot file is line-oriented UTF-8 text with one record per line:

    contain <component-name> <entity-name>

Fields are separated by whitespace; names therefore cannot contain
whitespace themselves. Lines are split as ``str.splitlines`` splits them;
every separator it knows is whitespace to ``str.split``, so no split cuts a name.
Blank lines and lines whose first field starts with ``#`` are ignored.
Duplicate identical records are tolerated (set semantics), but an entity
listed under two different components is a hard error because the
downstream matching cost assumes components partition the entity set.
``parse_snapshot`` checks that with the union of the components' entity
sets, and the snapshot keeps that union as its ``entities``. That and a
malformed line are all a text can get wrong: a whitespace split makes
non-empty names without whitespace, and grouping records by name makes
non-empty components with distinct names. So ``Component`` and
``ArchitectureSnapshot`` check nothing, and snapshots come from
``parse_snapshot``.

Consecutive versions share most of their lines, so a text is read as a diff
against the snapshot of the version before it: only the lines the two texts
do not share are split, only the components those lines name are rebuilt,
and every other ``Component`` object is shared between the two snapshots.
Reading without a base is the same diff against an empty text. A snapshot
serves as a base only if each of its distinct record lines names a distinct
record. Otherwise ``contain a x`` and ``contain a x `` could both hold ``x``
in ``a``, and dropping one of them next version would wrongly drop ``x``.

Component and entity names are opaque strings; nothing in this module
interprets them. Deriving entity names from file paths is the ingestion
module's job. Changes and decisions are plain dicts built in
``archdd.changes`` and ``archdd.decisions``; their ids come from
``content_id``, so this is the one module that hashes.

``check_line`` is the one rule for version labels, issue and commit ids and
paths, printed on one line of a report or an error: non-empty, one line.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import PartitionViolation, SnapshotParseError


class Component(NamedTuple):
    """A named set of entities. Empty only for balancing dummies.

    The constructor takes its fields as given; ``entities`` must be a frozenset.
    """

    name: str
    entities: frozenset[str]


@dataclass(frozen=True)
class ArchitectureSnapshot:
    """One version's recovered architecture: a partition of entities into components.

    The constructor takes its fields as given; ``parse_snapshot`` builds them.
    """

    version: str
    # Sorted by name.
    components: tuple[Component, ...]
    # The union of the components' entity sets, built by the partition check.
    entities: frozenset[str] = field(repr=False, compare=False)
    # The distinct lines of the text this snapshot was parsed from, or None
    # when it cannot serve as the next version's diff base (see parse_snapshot).
    lines: frozenset[str] | None = field(repr=False, compare=False)


def shared_entity(components: Sequence[Component]) -> tuple[str, str, str] | None:
    """An entity two of ``components`` share, with both owners; None for a partition.

    Walks components in the order given, each one's entities in sorted order,
    so the conflict named never depends on set iteration order.
    ``parse_snapshot`` calls it only once the union's size has shown that a
    conflict exists.
    """
    owner: dict[str, str] = {}
    for component in components:
        for entity in sorted(component.entities):
            if entity in owner:
                return entity, owner[entity], component.name
            owner[entity] = component.name


_EMPTY: frozenset[str] = frozenset()


def _group_records(lines: frozenset[str]) -> tuple[dict[str, set[str]], int, set[str]]:
    """The records among ``lines`` grouped by component, the number of lines
    that are records, and the lines that are neither records, blank lines nor
    comments.
    """
    grouped: dict[str, set[str]] = {}
    group_of = grouped.get
    records = 0
    malformed = set()
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] == "contain":
            records += 1
            group = group_of(fields[1])
            if group is None:
                grouped[fields[1]] = {fields[2]}
            else:
                group.add(fields[2])
        elif fields and not fields[0].startswith("#"):
            malformed.add(line)
    return grouped, records, malformed


def parse_snapshot(
    text: str, version: str, base: ArchitectureSnapshot | None = None
) -> ArchitectureSnapshot:
    """Parse snapshot-file content into an ArchitectureSnapshot, checking the partition.

    ``base`` is the last snapshot of the version chain that parsed cleanly.
    The text is read as a diff against the lines ``base`` was parsed from:
    the base's records on lines this text lacks leave their components, the
    records on lines new to this text join theirs, and the components no
    such line names are reused as they are. A base that cannot serve (None,
    or one whose ``lines`` are None) counts as an empty text. Splitting a
    line on whitespace also strips it, so a blank line has no fields and a
    comment's first field starts with ``#``.
    Only a new line can be malformed; if one is, the text is walked once to
    name the first.
    """
    lines = text.splitlines()
    line_set = frozenset(lines)
    base_lines = None if base is None else base.lines
    if base_lines is None:
        base_lines, components, record_lines = _EMPTY, (), 0
    else:
        # A base's distinct record lines number as many as its entities.
        components = base.components
        record_lines = len(base.entities)

    removed, removed_lines, _ = _group_records(base_lines - line_set)
    added, added_lines, malformed = _group_records(line_set - base_lines)
    if malformed:
        lineno, line = next(
            (lineno, line) for lineno, line in enumerate(lines, start=1) if line in malformed
        )
        raise SnapshotParseError(
            lineno, f"expected `contain <component> <entity>`, got {line.strip()!r}"
        )
    record_lines += added_lines - removed_lines

    by_name = {component.name: component for component in components}
    for name in removed.keys() | added.keys():
        old = by_name.pop(name, None)
        kept = _EMPTY if old is None else old.entities.difference(removed.get(name, ()))
        entities = kept.union(added.get(name, ()))
        if entities:
            by_name[name] = Component(name, entities)
    components = tuple(by_name[name] for name in sorted(by_name))
    entities = frozenset().union(*(component.entities for component in components))
    if len(entities) != sum(len(component.entities) for component in components):
        raise PartitionViolation(*shared_entity(components))
    # Distinct record lines name distinct records exactly when they number
    # as many as the entities; only then can this snapshot be a diff base.
    return ArchitectureSnapshot(
        version, components, entities, line_set if record_lines == len(entities) else None
    )


def entity_universe(snapshot: ArchitectureSnapshot) -> frozenset[str]:
    """Union of all component entity sets, as the snapshot built it."""
    return snapshot.entities


def check_line(value: str, what: str, error: Callable[[str], Exception]) -> str:
    """``value``, or ``error(message)`` raised when it is empty or holds a line break
    ``str.splitlines`` knows: the one rule for labels, record ids and paths."""
    if not value:
        raise error(f"{what} must not be empty")
    if value.splitlines() != [value]:
        raise error(f"{what} {value!r} must be one line")
    return value


def check_label(label: str, error: Callable[[str], Exception]) -> str:
    """``label``, or ``error(message)`` raised when it cannot be a version label: it
    heads rows and cards in the text reports, so it is UTF-8 and one line."""
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"version label {label!r} is not valid UTF-8") from None
    return check_line(label, "version label", error)


def content_id(prefix: str, parts: list[str]) -> str:
    """``prefix`` and the first 12 hex digits of the SHA-256 of ``parts``
    joined by the unit separator: the one id scheme for changes and decisions."""
    return prefix + hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:12]

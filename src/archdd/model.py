"""Architecture domain model: entities, components, snapshots, changes.

A snapshot file is line-oriented UTF-8 text with one record per line:

    contain <component-name> <entity-name>

Fields are separated by whitespace; names therefore cannot contain
whitespace themselves. Lines are split as ``str.splitlines`` splits them;
every separator it knows is whitespace to ``str.split``, so no split cuts a name.
Blank lines and lines whose first field starts with ``#`` are ignored.
Duplicate identical records are tolerated (set semantics), but an entity
listed under two different components is a hard error because the
downstream matching cost assumes components partition the entity set.
A snapshot checks that with the union of its components' entity sets, and
keeps that union as its ``entities``.

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
module's job.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvariantViolation, PartitionViolation, SnapshotParseError


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise InvariantViolation(f"{what} name must be a non-empty string")
    if name.split() != [name]:
        raise InvariantViolation(f"{what} name must not contain whitespace: {name!r}")
    return name


def _check_names(names: frozenset[str], what: str) -> None:
    """``_check_name`` for each of ``names``, at set speed for valid names.

    Valid names come back unchanged when joined with spaces and split again;
    only a mismatch walks them one by one to name the first bad one.
    """
    try:
        if " ".join(names).split() == list(names):
            return
    except TypeError:
        pass
    for name in names:
        _check_name(name, what)


@dataclass(frozen=True)
class Component:
    """A named set of entities. Empty only for balancing dummies."""

    name: str
    entities: frozenset[str]

    def __post_init__(self):
        _check_name(self.name, "component")
        object.__setattr__(self, "entities", frozenset(self.entities))
        _check_names(self.entities, "entity")


@dataclass(frozen=True)
class ArchitectureSnapshot:
    """One version's recovered architecture: a partition of entities into components."""

    version: str
    components: tuple[Component, ...]
    # The union of the components' entity sets, built once by the partition check.
    entities: frozenset[str] = field(init=False, repr=False, compare=False)
    # The distinct lines of the text this snapshot was parsed from, kept only
    # when it can serve as the next version's diff base (see parse_snapshot).
    _lines: frozenset[str] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.version, str) or not self.version:
            raise InvariantViolation("snapshot version label must be a non-empty string")
        object.__setattr__(self, "components", tuple(self.components))
        seen_names: set[str] = set()
        for component in self.components:
            if component.name in seen_names:
                raise InvariantViolation(
                    f"duplicate component name {component.name!r} in snapshot {self.version!r}"
                )
            seen_names.add(component.name)
            if not component.entities:
                raise InvariantViolation(
                    f"component {component.name!r} in snapshot {self.version!r} is empty; "
                    "only balancing dummies may be empty"
                )
        entities = frozenset().union(*(component.entities for component in self.components))
        if len(entities) != sum(len(component.entities) for component in self.components):
            raise PartitionViolation(*shared_entity(self.components))
        object.__setattr__(self, "entities", entities)


def shared_entity(components: Sequence[Component]) -> tuple[str, str, str] | None:
    """An entity two of ``components`` share, with both owners; None for a partition.

    Walks components in the order given, each one's entities in sorted order,
    so the conflict named never depends on set iteration order. Snapshots
    call it only once the union's size has shown that a conflict exists.
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
    """Parse snapshot-file content into a validated ArchitectureSnapshot.

    ``base`` is the last snapshot of the version chain that parsed cleanly.
    The text is read as a diff against the lines ``base`` was parsed from:
    the base's records on lines this text lacks leave their components, the
    records on lines new to this text join theirs, and the components no
    such line names are reused as they are. A base that cannot serve (None,
    built directly, or one whose record lines are not one per record) counts
    as an empty text. Splitting a line on whitespace also strips it, so a
    blank line has no fields and a comment's first field starts with ``#``.
    Only a new line can be malformed; if one is, the text is walked once to
    name the first.
    """
    lines = text.splitlines()
    line_set = frozenset(lines)
    base_lines = None if base is None else base._lines
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
    snapshot = ArchitectureSnapshot(version, tuple(by_name[name] for name in sorted(by_name)))
    # Distinct record lines name distinct records exactly when they number
    # as many as the entities; only then can this snapshot be a diff base.
    if record_lines == len(snapshot.entities):
        object.__setattr__(snapshot, "_lines", line_set)
    return snapshot


def entity_universe(snapshot: ArchitectureSnapshot) -> frozenset[str]:
    """Union of all component entity sets, as the snapshot built it."""
    return snapshot.entities


class ChangeKind(str, Enum):
    COMPONENT_ADDED = "added"
    COMPONENT_REMOVED = "removed"
    COMPONENT_MODIFIED = "modified"


def _change_kind(source: str | None, target: str | None) -> ChangeKind:
    if source is None:
        return ChangeKind.COMPONENT_ADDED
    if target is None:
        return ChangeKind.COMPONENT_REMOVED
    return ChangeKind.COMPONENT_MODIFIED


@dataclass(frozen=True)
class ArchitecturalChange:
    """The entity-level difference of one matched component pair.

    ``removed`` holds the entities that left the source component, ``added``
    those that joined the target. A relocation never appears as a kind of its
    own: it is one removal in the source match plus one addition in the
    destination match. Its version pair is not stored: a change set always
    stands for one pair, and only the id (see ``change_id``) hashes it.
    """

    id: str
    source_component: str | None
    target_component: str | None
    removed: frozenset[str]
    added: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "removed", frozenset(self.removed))
        object.__setattr__(self, "added", frozenset(self.added))
        if not (self.removed or self.added):
            raise InvariantViolation("a change must carry at least one entity")
        if self.removed and self.source_component is None:
            raise InvariantViolation("a change that removes entities must name its source")
        if self.added and self.target_component is None:
            raise InvariantViolation("a change that adds entities must name its target")
        _check_names(self.delta_entities, "entity")

    @property
    def kind(self) -> ChangeKind:
        """No source: added; no target: removed; both: modified."""
        return _change_kind(self.source_component, self.target_component)

    @property
    def delta_entities(self) -> frozenset[str]:
        return self.removed | self.added


def content_id(prefix: str, parts: list[str]) -> str:
    """``prefix`` and the first 12 hex digits of the SHA-256 of ``parts``
    joined by the unit separator: the one id scheme for changes and decisions."""
    return prefix + hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:12]


def change_id(
    source: str | None,
    target: str | None,
    removed: frozenset[str],
    added: frozenset[str],
    version_pair: tuple[str, str],
) -> str:
    """Content-addressed change identifier, stable across runs."""
    kind = _change_kind(source, target)
    parts = [kind.value, source or "", target or "", version_pair[0], version_pair[1]]
    parts.extend(sorted([f"remove:{e}" for e in removed] + [f"add:{e}" for e in added]))
    return content_id("ch:", parts)


def new_change(
    source: str | None,
    target: str | None,
    removed: frozenset[str],
    added: frozenset[str],
    version_pair: tuple[str, str],
) -> ArchitecturalChange:
    return ArchitecturalChange(
        id=change_id(source, target, removed, added, version_pair),
        source_component=source,
        target_component=target,
        removed=removed,
        added=added,
    )

"""Architecture domain model: entities, components, snapshots, changes.

A snapshot file is line-oriented UTF-8 text with one record per line:

    contain <component-name> <entity-name>

Fields are separated by whitespace; names therefore cannot contain
whitespace themselves. Lines are split as ``str.splitlines`` splits them.
Blank lines and lines whose first field starts with ``#`` are ignored.
Duplicate identical records are tolerated (set semantics), but an entity
listed under two different components is a hard error because the
downstream matching cost assumes components partition the entity set.

Component and entity names are opaque strings; nothing in this module
interprets them. Deriving entity names from file paths is the ingestion
module's job.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
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
        conflict = shared_entity(self.components)
        if conflict is not None:
            raise PartitionViolation(*conflict)


def shared_entity(components: Sequence[Component]) -> tuple[str, str, str] | None:
    """An entity two of ``components`` share, with both owners; None for a partition.

    Comparing the union's size with the summed sizes settles the common case
    without an owner map. Only when they differ are the owners walked:
    components in the order given, each one's entities in sorted order, so
    the conflict named never depends on set iteration order.
    """
    total = sum(len(component.entities) for component in components)
    if len(frozenset().union(*(component.entities for component in components))) == total:
        return None
    owner: dict[str, str] = {}
    for component in components:
        for entity in sorted(component.entities):
            if entity in owner:
                return entity, owner[entity], component.name
            owner[entity] = component.name


def parse_snapshot(text: str, version: str) -> ArchitectureSnapshot:
    """Parse snapshot-file content into a validated ArchitectureSnapshot.

    Splitting a line on whitespace also strips it, so a blank line has no
    fields and a comment's first field starts with ``#``. One loop both
    groups the records and names the first line that is not one.
    """
    grouped: dict[str, set[str]] = {}
    group_of = grouped.get
    for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1):
        if len(fields) == 3 and fields[0] == "contain":
            group = group_of(fields[1])
            if group is None:
                grouped[fields[1]] = {fields[2]}
            else:
                group.add(fields[2])
        elif fields and not fields[0].startswith("#"):
            line = text.splitlines()[lineno - 1].strip()
            raise SnapshotParseError(
                lineno, f"expected `contain <component> <entity>`, got {line!r}"
            )
    components = tuple(
        Component(name, frozenset(entities)) for name, entities in sorted(grouped.items())
    )
    return ArchitectureSnapshot(version, components)


def serialize_snapshot(snapshot: ArchitectureSnapshot) -> str:
    """Render a snapshot back to the line format (sorted, canonical)."""
    lines = sorted(
        f"contain {component.name} {entity}"
        for component in snapshot.components
        for entity in component.entities
    )
    return "".join(line + "\n" for line in lines)


def entity_universe(snapshot: ArchitectureSnapshot) -> frozenset[str]:
    """Union of all component entity sets."""
    return frozenset().union(*(component.entities for component in snapshot.components))


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
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return "ch:" + digest[:12]


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

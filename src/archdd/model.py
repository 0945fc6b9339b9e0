"""Architecture domain model: entities, components, snapshots, deltas, changes.

A snapshot file is line-oriented UTF-8 text with one record per line:

    contain <component-name> <entity-name>

Fields are separated by whitespace; names therefore cannot contain
whitespace themselves. Lines starting with ``#`` and blank lines are
ignored. Duplicate identical records are tolerated (set semantics), but an
entity listed under two different components is a hard error because the
downstream matching cost assumes components partition the entity set.

Component and entity names are opaque strings; nothing in this module
interprets them. Deriving entity names from file paths is the ingestion
module's job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from .errors import InvariantViolation, PartitionViolation, SnapshotParseError


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise InvariantViolation(f"{what} name must be a non-empty string")
    if name.split() != [name]:
        raise InvariantViolation(f"{what} name must not contain whitespace: {name!r}")
    return name


@dataclass(frozen=True)
class Component:
    """A named set of entities. Empty only for balancing dummies."""

    name: str
    entities: frozenset[str]

    def __post_init__(self):
        _check_name(self.name, "component")
        object.__setattr__(self, "entities", frozenset(self.entities))
        for entity in self.entities:
            _check_name(entity, "entity")


@dataclass(frozen=True)
class ArchitectureSnapshot:
    """One version's recovered architecture: a partition of entities into components."""

    version: str
    components: tuple[Component, ...]

    def __post_init__(self):
        if not isinstance(self.version, str) or not self.version:
            raise InvariantViolation("snapshot version label must be a non-empty string")
        object.__setattr__(self, "components", tuple(self.components))
        owner: dict[str, str] = {}
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
            for entity in component.entities:
                if entity in owner:
                    raise PartitionViolation(entity, owner[entity], component.name)
                owner[entity] = component.name


def parse_snapshot(text: str, version: str) -> ArchitectureSnapshot:
    """Parse snapshot-file content into a validated ArchitectureSnapshot."""
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


class DeltaKind(str, Enum):
    ADD = "add"
    REMOVE = "remove"


@dataclass(frozen=True)
class Delta:
    """A single entity-level addition or removal.

    A relocation never appears as a kind of its own: it is one REMOVE delta
    in the source match plus one ADD delta in the destination match.
    """

    kind: DeltaKind
    entity: str

    def __post_init__(self):
        if not isinstance(self.kind, DeltaKind):
            object.__setattr__(self, "kind", DeltaKind(self.kind))
        _check_name(self.entity, "entity")


class ChangeKind(str, Enum):
    COMPONENT_ADDED = "added"
    COMPONENT_REMOVED = "removed"
    COMPONENT_MODIFIED = "modified"


@dataclass(frozen=True)
class ArchitecturalChange:
    """A cohesive set of deltas produced by one matched component pair."""

    id: str
    kind: ChangeKind
    source_component: str | None
    target_component: str | None
    deltas: frozenset[Delta]
    version_pair: tuple[str, str]

    def __post_init__(self):
        if not isinstance(self.kind, ChangeKind):
            object.__setattr__(self, "kind", ChangeKind(self.kind))
        object.__setattr__(self, "deltas", frozenset(self.deltas))
        object.__setattr__(self, "version_pair", tuple(self.version_pair))
        if not self.deltas:
            raise InvariantViolation("a change must carry at least one delta")
        kinds = {delta.kind for delta in self.deltas}
        if self.kind is ChangeKind.COMPONENT_ADDED:
            if kinds != {DeltaKind.ADD} or self.source_component is not None:
                raise InvariantViolation("an added component carries only ADD deltas and no source")
            if self.target_component is None:
                raise InvariantViolation("an added component must name its target")
        elif self.kind is ChangeKind.COMPONENT_REMOVED:
            if kinds != {DeltaKind.REMOVE} or self.target_component is not None:
                raise InvariantViolation(
                    "a removed component carries only REMOVE deltas and no target"
                )
            if self.source_component is None:
                raise InvariantViolation("a removed component must name its source")
        else:
            if self.source_component is None or self.target_component is None:
                raise InvariantViolation("a modified component names both source and target")

    @property
    def delta_entities(self) -> frozenset[str]:
        return frozenset(delta.entity for delta in self.deltas)


def change_id(
    kind: ChangeKind,
    source: str | None,
    target: str | None,
    deltas: frozenset[Delta],
    version_pair: tuple[str, str],
) -> str:
    """Content-addressed change identifier, stable across runs."""
    parts = [kind.value, source or "", target or "", version_pair[0], version_pair[1]]
    parts.extend(sorted(f"{d.kind.value}:{d.entity}" for d in deltas))
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return "ch:" + digest[:12]


def new_change(
    kind: ChangeKind,
    source: str | None,
    target: str | None,
    deltas: frozenset[Delta],
    version_pair: tuple[str, str],
) -> ArchitecturalChange:
    return ArchitecturalChange(
        id=change_id(kind, source, target, deltas, version_pair),
        kind=kind,
        source_component=source,
        target_component=target,
        deltas=deltas,
        version_pair=version_pair,
    )

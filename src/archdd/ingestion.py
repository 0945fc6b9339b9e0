"""Issue and commit ingestion: build the architectural impact list.

Input formats (all UTF-8):

* issue export -- JSON Lines, one object per line with fields ``id``
  (required), ``summary``, ``resolved``, ``merged``, ``versions`` (array of
  version labels), ``commits`` (array of commit ids);
* commit log -- JSON Lines with ``id`` (required), ``paths`` (array of
  changed file paths), ``issue_keys`` (array, optional);
* exclusion list -- one namespace prefix per line, ``#`` comments allowed;
* path rules -- JSON object with an ordered ``rules`` array of
  ``{match, strip_prefix, strip_suffix, separator_replacement}``.

The default path rules target Java-style source trees and are overridable;
everything else in this module treats names as opaque strings.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from .errors import ConfigError, RecordParseError

ISSUE_KEY_RE = re.compile(r"[A-Z][A-Z0-9]*-\d+")

# Prefix matches stop at one of these so `org.apache` cannot swallow
# `org.apachefoo`.
_BOUNDARY_CHARS = (".", "/", "$")


@dataclass(frozen=True)
class IssueRecord:
    """One tracker item from an issue export."""

    id: str
    summary: str = ""
    resolved: bool = False
    merged: bool = False
    versions: frozenset[str] = frozenset()
    commit_ids: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "versions", frozenset(self.versions))
        object.__setattr__(self, "commit_ids", frozenset(self.commit_ids))


@dataclass(frozen=True)
class CommitRecord:
    """One commit with its changed file paths.

    ``paths`` may be empty (merge commits); such commits contribute no
    entities. ``issue_keys`` holds issue ids referenced in the commit
    message and is only used for opt-in fallback linking and diagnostics.
    """

    id: str
    paths: frozenset[str] = frozenset()
    issue_keys: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "paths", frozenset(self.paths))
        object.__setattr__(self, "issue_keys", frozenset(self.issue_keys))


@dataclass(frozen=True)
class PathRule:
    """Derives an architectural entity name from a file path."""

    match: str
    strip_prefix: str = ""
    strip_suffix: str = ""
    separator_replacement: tuple[str, str] = ("/", ".")

    def matches(self, path: str) -> bool:
        if any(ch in self.match for ch in "*?["):
            return fnmatchcase(path, self.match)
        return path.startswith(self.match)

    def derive(self, path: str) -> str | None:
        """Entity name for a matching path, or None if the derivation is empty."""
        name = path
        if self.strip_prefix and name.startswith(self.strip_prefix):
            name = name[len(self.strip_prefix):]
        if self.strip_suffix and name.endswith(self.strip_suffix):
            name = name[: -len(self.strip_suffix)]
        sep_from, sep_to = self.separator_replacement
        if sep_from:
            name = name.replace(sep_from, sep_to)
        if not name or name.split() != [name]:
            return None
        return name


DEFAULT_PATH_RULES: tuple[PathRule, ...] = (
    PathRule("src/main/java/*.java", "src/main/java/", ".java"),
    PathRule("src/java/*.java", "src/java/", ".java"),
    PathRule("src/*.java", "src/", ".java"),
)


@dataclass
class ImpactDiagnostics:
    """Non-fatal findings collected while building an impact list."""

    orphaned_commit_refs: list[tuple[str, str]] = field(default_factory=list)
    skipped_paths: list[str] = field(default_factory=list)
    excluded_entity_count: int = 0


@dataclass
class ArchitecturalImpactList:
    """Per-version mapping from qualifying issues to the entities they touched."""

    version_pair: tuple[str | None, str]
    entries: dict[str, frozenset[str]]
    diagnostics: ImpactDiagnostics = field(default_factory=ImpactDiagnostics)


def _require_str(obj, key, lineno, *, required=False, default=""):
    value = obj.get(key, None)
    if value is None:
        if required:
            raise RecordParseError(lineno, f"missing required field {key!r}")
        return default
    if not isinstance(value, str) or (required and not value):
        raise RecordParseError(lineno, f"field {key!r} must be a non-empty string")
    return value


def _opt_bool(obj, key, lineno):
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise RecordParseError(lineno, f"field {key!r} must be a boolean")
    return value


def _opt_str_array(obj, key, lineno):
    value = obj.get(key, [])
    if not isinstance(value, list) or any(not isinstance(item, str) for item in value):
        raise RecordParseError(lineno, f"field {key!r} must be an array of strings")
    return value


def _iter_jsonl(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordParseError(lineno, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise RecordParseError(lineno, "record must be a JSON object")
        yield lineno, obj


def load_issues(text: str) -> list[IssueRecord]:
    """Parse an issue export; unknown fields are ignored, duplicate ids rejected."""
    issues = []
    first_line: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(text):
        record = IssueRecord(
            id=_require_str(obj, "id", lineno, required=True),
            summary=_require_str(obj, "summary", lineno),
            resolved=_opt_bool(obj, "resolved", lineno),
            merged=_opt_bool(obj, "merged", lineno),
            versions=frozenset(_opt_str_array(obj, "versions", lineno)),
            commit_ids=frozenset(_opt_str_array(obj, "commits", lineno)),
        )
        if record.id in first_line:
            raise RecordParseError(
                lineno,
                f"duplicate issue id {record.id!r} (first seen on line {first_line[record.id]})",
            )
        first_line[record.id] = lineno
        issues.append(record)
    return issues


def load_commits(text: str) -> list[CommitRecord]:
    """Parse a commit log in the JSON Lines commit format."""
    commits = []
    first_line: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(text):
        record = CommitRecord(
            id=_require_str(obj, "id", lineno, required=True),
            paths=frozenset(_opt_str_array(obj, "paths", lineno)),
            issue_keys=frozenset(_opt_str_array(obj, "issue_keys", lineno)),
        )
        if record.id in first_line:
            raise RecordParseError(
                lineno,
                f"duplicate commit id {record.id!r} (first seen on line {first_line[record.id]})",
            )
        first_line[record.id] = lineno
        commits.append(record)
    return commits


def select_issues(issues: list[IssueRecord], version: str) -> list[IssueRecord]:
    """Keep issues that are resolved, merged, and belong to ``version``."""
    return [
        issue
        for issue in issues
        if issue.resolved and issue.merged and version in issue.versions
    ]


def path_to_entity(path: str, rules=DEFAULT_PATH_RULES) -> str | None:
    """Apply the first matching rule; None when no rule matches or derivation is empty."""
    for rule in rules:
        if rule.matches(path):
            return rule.derive(path)
    return None


def _is_excluded(entity: str, exclusions) -> bool:
    for prefix in exclusions:
        if entity == prefix:
            return True
        if not entity.startswith(prefix):
            continue
        if prefix and prefix[-1] in _BOUNDARY_CHARS:
            return True
        if entity[len(prefix)] in _BOUNDARY_CHARS:
            return True
    return False


def apply_exclusions(entities: frozenset[str], exclusions) -> frozenset[str]:
    """Drop entities under any excluded namespace prefix (boundary-aware)."""
    if not exclusions:
        return frozenset(entities)
    return frozenset(e for e in entities if not _is_excluded(e, exclusions))


def load_exclusions(text: str) -> list[str]:
    prefixes = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        prefixes.append(line)
    return prefixes


def load_path_rules(text: str) -> list[PathRule]:
    """Parse a rules config: {"rules": [{match, strip_prefix, ...}, ...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid rules file: {exc.msg}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("rules"), list):
        raise ConfigError("rules file must be an object with a `rules` array")
    rules = []
    for index, entry in enumerate(obj["rules"]):
        if not isinstance(entry, dict) or "match" not in entry:
            raise ConfigError(f"rule {index} must be an object with a `match` field")
        replacement = entry.get("separator_replacement", ["/", "."])
        if (
            not isinstance(replacement, (list, tuple))
            or len(replacement) != 2
            or not all(isinstance(part, str) for part in replacement)
        ):
            raise ConfigError(f"rule {index}: separator_replacement must be a [from, to] pair")
        rules.append(
            PathRule(
                match=entry["match"],
                strip_prefix=entry.get("strip_prefix", ""),
                strip_suffix=entry.get("strip_suffix", ""),
                separator_replacement=(replacement[0], replacement[1]),
            )
        )
    return rules


def build_impact_list(
    issues: list[IssueRecord],
    commits: list[CommitRecord],
    rules=DEFAULT_PATH_RULES,
    exclusions=(),
    version_pair: tuple[str | None, str] = (None, ""),
    link_by_message: bool = False,
) -> ArchitecturalImpactList:
    """Map each issue to the architectural entities its commits touched.

    ``issues`` should already be filtered by select_issues. Issues whose
    commits yield no entities stay in the list with empty sets (they become
    orphans during decision extraction). Commit ids that cannot be resolved
    against the log are collected as diagnostics, not errors.
    """
    by_id = {commit.id: commit for commit in commits}
    by_issue_key: dict[str, set[str]] = {}
    if link_by_message:
        for commit in commits:
            for key in commit.issue_keys:
                by_issue_key.setdefault(key, set()).add(commit.id)

    diagnostics = ImpactDiagnostics()
    skipped: set[str] = set()
    entries: dict[str, frozenset[str]] = {}
    for issue in issues:
        commit_ids = set(issue.commit_ids)
        if link_by_message:
            commit_ids |= by_issue_key.get(issue.id, set())
        entities: set[str] = set()
        for commit_id in sorted(commit_ids):
            commit = by_id.get(commit_id)
            if commit is None:
                diagnostics.orphaned_commit_refs.append((issue.id, commit_id))
                continue
            for path in sorted(commit.paths):
                entity = path_to_entity(path, rules)
                if entity is None:
                    skipped.add(path)
                else:
                    entities.add(entity)
        kept = apply_exclusions(frozenset(entities), exclusions)
        diagnostics.excluded_entity_count += len(entities) - len(kept)
        entries[issue.id] = kept

    diagnostics.orphaned_commit_refs.sort()
    diagnostics.skipped_paths = sorted(skipped)
    return ArchitecturalImpactList(
        version_pair=version_pair, entries=entries, diagnostics=diagnostics
    )


def convert_name_status_log(text: str) -> list[CommitRecord]:
    """Convert raw name-status VCS log text into commit records.

    Accepts the common layouts: blocks introduced either by a ``commit
    <hash>`` line or by a bare hash line (as produced with a ``%H`` pretty
    format), followed by message lines and tab-separated name-status rows.
    Rename/copy rows contribute both the old and the new path.
    """
    commits: list[CommitRecord] = []
    current_id: str | None = None
    paths: set[str] = set()
    keys: set[str] = set()

    def flush():
        nonlocal current_id, paths, keys
        if current_id is not None:
            commits.append(
                CommitRecord(id=current_id, paths=frozenset(paths), issue_keys=frozenset(keys))
            )
        current_id = None
        paths = set()
        keys = set()

    bare_hash = re.compile(r"^[0-9a-f]{7,40}$")
    name_status = re.compile(r"^([A-Z])(\d+)?\t")
    for raw in text.splitlines():
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) >= 2 and parts[0] == "commit" and bare_hash.match(parts[1]):
            flush()
            current_id = parts[1]
            continue
        if bare_hash.match(stripped):
            flush()
            current_id = stripped
            continue
        if current_id is None:
            continue
        match = name_status.match(line)
        if match:
            fields = line.split("\t")
            paths.update(part for part in fields[1:] if part)
        else:
            keys.update(ISSUE_KEY_RE.findall(line))
    flush()
    return commits


def serialize_commits(commits: list[CommitRecord]) -> str:
    """Render commit records as the JSON Lines commit-log format."""
    lines = []
    for commit in commits:
        lines.append(
            json.dumps(
                {
                    "id": commit.id,
                    "paths": sorted(commit.paths),
                    "issue_keys": sorted(commit.issue_keys),
                },
                sort_keys=True,
            )
        )
    return "".join(line + "\n" for line in lines)

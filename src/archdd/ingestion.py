"""Issue and commit ingestion: build the architectural impact list.

Input formats (all UTF-8):

* issue export -- JSON Lines, one object per line with fields ``id``
  (required, one line), ``summary``, ``resolved``, ``merged``, ``versions``
  (array of version labels), ``commits`` (array of commit ids);
* commit log -- JSON Lines with ``id`` (required, one line), ``paths`` (array
  of changed file paths), ``issue_keys`` (array, optional);
* exclusion list -- one namespace prefix per line, ``#`` comments on their
  own lines, its lines ended as the JSON Lines inputs' are;
* path rules -- JSON object with an ordered ``rules`` array of
  ``{match, strip_prefix, strip_suffix, separator_replacement}``.

JSON Lines are read one line at a time, blank lines skipped, so every
error names its line. A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only,
which JSON forbids raw inside a string; U+2028, U+2029 and U+0085, which
it allows there, do not end a line. Each stripped line is decoded by the
stock C scanner with no hook, and its dict is kept when a guard proves the
checked ``decode_json`` would return the same one: the object spans the
line, a count of its colons leaves no room for a repeated key or a nested
member, and it has no ``\\ud`` or ``\\uD`` escape (no surrogate). A colon,
a brace or another ``\\u`` escape inside a string does not by itself send
a line to the checked decoder. Only lines that fail the guard or the scanner
reach ``decode_json``, which keeps the repeated-key, surrogate, digit-limit
and nesting checks and raises the same line-numbered error as before. Each
record's fields are then checked in order with exact type tests, the first
bad field named, and the record is built by calling its class. Records are
named tuples whose set fields are frozensets, which the constructor takes
as given; every empty array field is one shared empty set, and issues that
list the same versions share one versions set.
``build_impact_lists`` builds a whole run's impact lists from one index of
qualifying issues, mapping each distinct path and testing its entity
against the exclusions once. Each list is a plain dict, the ``impact``
object a ``run.json`` entry holds without its version fields.

``is_excluded`` is the one third-party rule, for impact lists and for
the cleanup, ``decisions.drop_external_changes``, alike.

The default path rules target Java-style source trees and are overridable;
everything else in this module treats names as opaque strings.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import cached_property
from typing import NamedTuple

from .errors import ConfigError, RecordParseError
from .model import check_line

ISSUE_KEY_RE = re.compile(r"[A-Z][A-Z0-9]*-\d+")

# Prefix matches stop at one of these so `org.apache` cannot swallow
# `org.apachefoo`.
_BOUNDARY_CHARS = (".", "/", "$")

# Every empty set field of a loaded record is this one set.
_NO_STRINGS: frozenset[str] = frozenset()


class IssueRecord(NamedTuple):
    """One tracker item from an issue export.

    Set fields must be frozensets; the constructor takes its arguments as
    given and converts nothing.
    """

    id: str
    summary: str = ""
    resolved: bool = False
    merged: bool = False
    versions: frozenset[str] = _NO_STRINGS
    commit_ids: frozenset[str] = _NO_STRINGS


class CommitRecord(NamedTuple):
    """One commit with its changed file paths.

    ``paths`` may be empty (merge commits); such commits contribute no
    entities. ``issue_keys`` holds issue ids referenced in the commit
    message and is only used for opt-in fallback linking (add_message_links).
    Set fields must be frozensets, as for ``IssueRecord``.
    """

    id: str
    paths: frozenset[str] = _NO_STRINGS
    issue_keys: frozenset[str] = _NO_STRINGS


@dataclass(frozen=True)
class PathRule:
    """Derives an architectural entity name from a file path."""

    match: str
    strip_prefix: str = ""
    strip_suffix: str = ""
    separator_replacement: tuple[str, str] = ("/", ".")

    @cached_property
    def _glob(self) -> bool:
        """A pattern with a glob character is matched as a glob, else as a prefix."""
        return any(ch in self.match for ch in "*?[")

    def matches(self, path: str) -> bool:
        if self._glob:
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


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """An object's members as a dict; a repeated key would silently keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"repeated key {next(k for k, n in counts.items() if n > 1)!r}")
    return obj


# One decoder for every input: ``json.loads`` with a hook builds a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)
# The stock C scanner, with no hook; ``_objects`` decides when its dict can stand.
_scan = json.JSONDecoder().scan_once
# A missing array field reads as this empty array; it is never modified.
_NO_ARRAY: list = []


def decode_json(text: str, error: Callable[[str], Exception]):
    """Decode one JSON text; raise ``error(message)`` for anything it cannot hold.

    Besides syntax errors this covers repeated keys, integers past the digit
    limit, nesting past the recursion limit, and strings holding an unpaired
    surrogate escape, which no UTF-8 output could write. Only a ``\\ud`` or
    ``\\uD`` escape can write a surrogate, so only a text holding one is
    re-encoded, by the same test ``_objects`` applies to each line.
    """
    try:
        if text.startswith("\ufeff"):  # json.loads checks this; the bare decoder does not
            raise ValueError("Unexpected UTF-8 BOM (decode using utf-8-sig)")
        obj = _DECODER.decode(text)
        if "\\u" in text and ("\\ud" in text or "\\uD" in text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise error("string holds an unpaired surrogate escape") from None
    except (ValueError, RecursionError) as exc:
        raise error(getattr(exc, "msg", str(exc))) from None
    return obj


def _lines(text: str) -> list[str]:
    """``text`` split at ``\\n``, ``\\r\\n`` and ``\\r`` only.

    Not ``str.splitlines``: it also breaks at U+2028, U+2029, U+0085 and
    other separators, which JSON allows raw inside a string and a VCS log
    may hold in a path or a message.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _objects(text: str):
    """``(lineno, dict)`` for each non-blank line, in file order.

    The stock scanner decodes each stripped line with no hook. Its dict is
    kept only when the line provably decodes the same way under
    ``decode_json``: the object spans the whole line, no key repeats, no
    nested object has a member, and no string holds a surrogate. Every
    member needs a colon, so a line with as many colons as the dict has
    keys has no repeat and no nested member. A colon inside a string breaks
    that count; then, if no quote is followed by a space or tab, every key
    is followed directly by its colon, and as many ``":`` as keys proves
    the same. A surrogate needs a ``\\ud`` or ``\\uD`` escape; such lines
    are not scanned. Every other line goes through ``decode_json``, which
    returns the same dict or raises the line-numbered error.
    """
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()  # strip removes every JSON whitespace character
        if not line:
            continue
        if "\\u" in line and ("\\ud" in line or "\\uD" in line):
            end = -1
        else:
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
        if (
            end != len(line)
            or type(obj) is not dict
            or (
                line.count(":") != len(obj)
                and ('" ' in line or '"\t' in line or line.count('":') != len(obj))
            )
        ):
            obj = decode_json(line, lambda msg: RecordParseError(lineno, f"invalid JSON: {msg}"))
            if not isinstance(obj, dict):
                raise RecordParseError(lineno, "record must be a JSON object")
        yield lineno, obj


def _record_id(obj: dict, lineno: int) -> str:
    """The record's ``id``, which ``model.check_line`` keeps to one line. Every
    line break is non-printable, so only an empty or non-printable id needs that check."""
    key = obj.get("id")
    if type(key) is str and key.isprintable() and key:
        return key
    if key is None:
        raise RecordParseError(lineno, "missing required field 'id'")
    if type(key) is not str:
        raise RecordParseError(lineno, "field 'id' must be a string")
    return check_line(key, "field 'id'", lambda msg: RecordParseError(lineno, msg))


def _str_set(value, key: str, lineno: int) -> frozenset[str]:
    """An array-of-strings field as a set; every empty one is ``_NO_STRINGS``."""
    if type(value) is list:
        if not value:
            return _NO_STRINGS
        try:
            "".join(value)  # TypeError on a non-string element
        except TypeError:
            pass
        else:
            return frozenset(value)
    raise RecordParseError(lineno, f"field {key!r} must be an array of strings")


def _duplicate(what: str, key: str, lineno: int, first_line: dict) -> RecordParseError:
    return RecordParseError(
        lineno, f"duplicate {what} id {key!r} (first seen on line {first_line[key]})"
    )


def load_issues(text: str) -> list[IssueRecord]:
    """Parse an issue export; unknown fields are ignored, duplicate ids rejected.

    Fields are checked in order, and the first bad one is named; a missing
    or ``null`` summary reads as "". Issues that list the same versions
    share one versions set.
    """
    records: list[IssueRecord] = []
    first_line: dict[str, int] = {}
    version_sets: dict[frozenset[str], frozenset[str]] = {}  # each distinct set kept once
    for lineno, obj in _objects(text):
        get = obj.get
        key = _record_id(obj, lineno)
        summary = get("summary")
        if type(summary) is not str:
            if summary is not None:
                raise RecordParseError(lineno, "field 'summary' must be a string")
            summary = ""
        resolved = get("resolved", False)
        if type(resolved) is not bool:
            raise RecordParseError(lineno, "field 'resolved' must be a boolean")
        merged = get("merged", False)
        if type(merged) is not bool:
            raise RecordParseError(lineno, "field 'merged' must be a boolean")
        versions = _str_set(get("versions", _NO_ARRAY), "versions", lineno)
        commit_ids = _str_set(get("commits", _NO_ARRAY), "commits", lineno)
        if key in first_line:
            raise _duplicate("issue", key, lineno, first_line)
        first_line[key] = lineno
        records.append(IssueRecord(
            key, summary, resolved, merged, version_sets.setdefault(versions, versions),
            commit_ids,
        ))
    return records


def load_commits(text: str) -> dict[str, CommitRecord]:
    """Parse a commit log into records keyed by commit id, in log order.

    Fields are checked as in ``load_issues``.
    """
    records: dict[str, CommitRecord] = {}
    first_line: dict[str, int] = {}
    for lineno, obj in _objects(text):
        get = obj.get
        key = _record_id(obj, lineno)
        paths = _str_set(get("paths", _NO_ARRAY), "paths", lineno)
        issue_keys = _str_set(get("issue_keys", _NO_ARRAY), "issue_keys", lineno)
        if key in first_line:
            raise _duplicate("commit", key, lineno, first_line)
        first_line[key] = lineno
        records[key] = CommitRecord(key, paths, issue_keys)
    return records


def add_message_links(
    issues: list[IssueRecord], commits: dict[str, CommitRecord]
) -> list[IssueRecord]:
    """Add to each issue's ``commit_ids`` the commits whose messages cite its id."""
    citing: dict[str, set[str]] = {}
    for commit in commits.values():
        for key in commit.issue_keys:
            citing.setdefault(key, set()).add(commit.id)
    return [
        IssueRecord(*issue[:5], issue.commit_ids | citing[issue.id])
        if issue.id in citing
        else issue
        for issue in issues
    ]


def path_to_entity(path: str, rules=DEFAULT_PATH_RULES) -> str | None:
    """Apply the first matching rule; None when no rule matches or derivation is empty."""
    for rule in rules:
        if rule.matches(path):
            return rule.derive(path)
    return None


def is_excluded(entity: str, exclusions) -> bool:
    """True when ``entity`` lies under an excluded namespace prefix (boundary-aware)."""
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


def load_exclusions(text: str) -> list[str]:
    """One prefix per line; one holding whitespace (no entity name does) is an error."""
    prefixes = []
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split() != [line]:
            raise ConfigError(f"exclusion list line {lineno}: {line!r} can match no entity")
        prefixes.append(line)
    return prefixes


def load_path_rules(obj) -> list[PathRule]:
    """Read a decoded rules config: {"rules": [{match, strip_prefix, ...}, ...]}."""
    if not isinstance(obj, dict) or not isinstance(obj.get("rules"), list):
        raise ConfigError("rules file must be an object with a `rules` array")
    rules = []
    for index, entry in enumerate(obj["rules"]):
        if not isinstance(entry, dict) or "match" not in entry:
            raise ConfigError(f"rule {index} must be an object with a `match` field")
        if not isinstance(entry["match"], str) or not entry["match"]:
            raise ConfigError(f"rule {index}: match must be a non-empty string")
        for key in ("strip_prefix", "strip_suffix"):
            if not isinstance(entry.get(key, ""), str):
                raise ConfigError(f"rule {index}: {key} must be a string")
        replacement = entry.get("separator_replacement", ["/", "."])
        if (
            not isinstance(replacement, (list, tuple))
            or len(replacement) != 2
            or not all(isinstance(part, str) for part in replacement)
        ):
            raise ConfigError(f"rule {index}: separator_replacement must be a [from, to] pair")
        rules.append(PathRule(
            entry["match"], entry.get("strip_prefix", ""), entry.get("strip_suffix", ""),
            tuple(replacement),
        ))
    return rules


def build_impact_lists(
    issues: list[IssueRecord],
    commits: dict[str, CommitRecord],
    versions,
    rules=DEFAULT_PATH_RULES,
    exclusions=(),
) -> dict[str, dict]:
    """Each version's impact list: its qualifying issues mapped to the
    architectural entities their commits touched.

    Each list is the ``impact`` object of a ``run.json`` entry without its
    version fields: ``entries`` (issue id -> sorted entities) and
    ``diagnostics``, written as ``run.json`` writes them.

    An issue qualifies for a version when it is resolved, merged and lists
    that version. Issues whose commits yield no entities stay in the list
    with empty lists (they become orphans during decision extraction). Commit
    ids that cannot be resolved against the log are collected as
    diagnostics, not errors. Each distinct path is mapped, and its entity
    tested against the exclusions, once for the whole call.
    """
    selected: dict[str, list[IssueRecord]] = {}
    for issue in issues:
        if issue.resolved and issue.merged:
            for version in issue.versions:
                selected.setdefault(version, []).append(issue)
    entity_of: dict[str, str | None] = {}  # None: no rule derives an entity
    excluded: set[str] = set()
    impacts: dict[str, dict] = {}
    for version in versions:
        orphaned: list[tuple[str, str]] = []
        skipped: set[str] = set()
        excluded_count = 0
        entries: dict[str, list[str]] = {}
        for issue in selected.get(version, ()):
            entities: set[str] = set()
            for commit_id in issue.commit_ids:
                commit = commits.get(commit_id)
                if commit is None:
                    orphaned.append((issue.id, commit_id))
                    continue
                for path in commit.paths:
                    if path in entity_of:
                        entity = entity_of[path]
                    else:
                        entity = entity_of[path] = path_to_entity(path, rules)
                        if entity is not None and is_excluded(entity, exclusions):
                            excluded.add(entity)
                    if entity is None:
                        skipped.add(path)
                    else:
                        entities.add(entity)
            dropped = entities & excluded
            excluded_count += len(dropped)
            entries[issue.id] = sorted(entities - dropped)
        impacts[version] = {
            "entries": entries,
            "diagnostics": {
                "orphaned_commit_refs": [
                    {"issue": issue_id, "commit": commit_id}
                    for issue_id, commit_id in sorted(orphaned)
                ],
                "skipped_paths": sorted(skipped),
                "excluded_entity_count": excluded_count,
            },
        }
    return impacts


def convert_name_status_log(text: str) -> list[CommitRecord]:
    """Convert raw name-status VCS log text into commit records.

    Accepts the common layouts: blocks introduced either by a ``commit
    <hash>`` line or by a bare hash line (as produced with a ``%H`` pretty
    format), followed by message lines and tab-separated name-status rows.
    The first header fixes the log's layout, and only unindented headers of
    that layout open blocks, so a message line quoting a hash (indented under
    ``commit <hash>``, unindented under a bare hash) stays in its message. One
    case stays ambiguous: in a bare-hash log, a message line that is itself a
    bare hash, such as ``deadbeef``, opens a block. A commit whose id heads
    more than one block (``git log -m`` prints a merge once per parent) is
    one record, placed where the id first appears, holding every block's
    paths and keys. Rename/copy rows contribute both the old and the new
    path. A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only, so U+2028,
    U+2029 or U+0085 in a path or a message line neither cuts the path
    short nor starts a new line.
    """
    blocks: dict[str, tuple[set[str], set[str]]] = {}  # id -> (paths, issue keys)
    block = None
    # `commit <hash>` and bare-hash headers; the first one found fixes the layout.
    headers = [re.compile(r"commit\s+([0-9a-f]{7,40})(?:\s|$)"), re.compile(r"([0-9a-f]{7,40})$")]
    name_status = re.compile(r"^([A-Z])(\d+)?\t")
    for line in _lines(text):
        stripped = line.strip()
        if not stripped:
            continue
        if not line[0].isspace():  # indented message lines never open a commit
            opened = next(filter(None, (header.match(stripped) for header in headers)), None)
            if opened:
                headers = [opened.re]
                block = blocks.setdefault(opened[1], (set(), set()))
                continue
        if block is None:
            continue
        paths, keys = block
        if name_status.match(line):
            paths.update(part for part in line.split("\t")[1:] if part)
        else:
            keys.update(ISSUE_KEY_RE.findall(line))
    return [
        CommitRecord(commit_id, frozenset(paths), frozenset(keys))
        for commit_id, (paths, keys) in blocks.items()
    ]


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

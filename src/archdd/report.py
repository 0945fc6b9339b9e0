"""Structured documents, decision rendering, and summary statistics.

All machine-readable output is canonical JSON (sorted keys, sorted lists,
no timestamps) carrying a ``schema_version`` field, so re-running the tool
on unchanged inputs reproduces byte-identical files. Ratios are stored as
exact [numerator, denominator] pairs; rounding happens only at display
time.

A pair's statistics have one shape, the ``stats`` object its ``run.json``
entry holds: version fields, ``scope``, integer counts, the
``kind_distribution``, and four ratios derived from the counts.
``build_pair_stats`` makes one, ``build_run_summary`` gathers them with
their overall sum into the document's ``summary`` object, and
``parse_run_summary`` rebuilds that object from each row's type-checked
counts and kinds, never from its stored ratios or scope, and rejects a row
no run could write. Decisions are disjoint, so a row's issues in decisions
are its issue links and its covered changes its change links. The tables
are drawn from those dicts, in the order ``SECTIONS`` gives summary.txt.

An impact list has one shape too, the ``impact`` object of a ``run.json``
entry without its version fields, which ``ingestion.impact_record`` builds.
``impact_doc`` adds a standalone header, and ``parse_impact_doc`` checks a
document and builds the same shape.

A change is the plain dict ``changes.analyze_changes`` returns, the
``changes`` object of a ``run.json`` entry without its version fields, and
lists of changes are kept in ``changes.change_order``. ``changes_doc`` adds
the version fields, and ``parse_changes_doc`` checks a document and builds
the same shape with ``changes.change_record``, changes in order, so a
parsed document writes back as the canonical one.

A decision is the plain dict ``decisions.find_decisions`` returns, the
``decisions`` object of a ``run.json`` entry without its version fields;
``decisions_doc`` adds them, and ``build_pair_stats``, ``render_decision``
and the distribution table read it as it stands. A card prints each issue
summary on one line.
"""

from __future__ import annotations

import json
from math import gcd

from .changes import change_order, change_record
from .decisions import KINDS
from .errors import ConfigError
from .ingestion import IssueRecord, impact_record
from .model import check_label, check_line

SCHEMA_VERSION = 1

ISSUE_COUNT_CONVENTION = (
    "issue counts are distinct issue ids per version pair; an issue spanning "
    "several versions is counted once in each pair it qualifies for"
)


def canonical_json(obj) -> str:
    """``obj`` as JSON text with sorted keys, a two-space indent and a final newline.

    The result equals ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``. ``indent=2`` makes ``json.dumps`` walk the
    tree in pure Python; this writer joins at C speed instead: keys and
    strings go through ``json.encoder.encode_basestring`` (the C function
    ``json.dumps`` calls for them), a list of strings is joined in one call,
    and every other scalar goes through ``json.dumps``. Keys must be strings.
    A value JSON cannot hold, such as a set, raises TypeError.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


_quote = json.encoder.encode_basestring


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` breaks a line at its depth."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        try:
            parts.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
            return
        except TypeError:  # not all strings
            pass
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator + _quote(key) + ": ")
            _write_json(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        parts.append(json.dumps(value))


# ---------------------------------------------------------------------------
# domain object <-> plain object


def _header(version_pair: tuple[str | None, str | None], kind: str | None = None) -> dict:
    """A pair's version fields; a standalone ``kind`` document's header adds its schema and kind."""
    header = {"from_version": version_pair[0], "to_version": version_pair[1]}
    if kind is not None:
        header.update(schema_version=SCHEMA_VERSION, kind=kind)
    return header


def _string(value, what: str) -> str:
    if not (isinstance(value, str) and value):
        raise TypeError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _name(value, what: str) -> str:
    """A document's change or issue id: one line, as ``check_line`` rules record ids."""
    return check_line(_string(value, what), what, ValueError)


def _label(value, key: str) -> str:
    """A document's version label: one UTF-8 line, as ``check_label`` rules labels."""
    return check_label(_string(value, key), ValueError)


def _count(value, key: str) -> int:
    if type(value) is not int or value < 0:
        raise TypeError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _check_name(value, what: str) -> str:
    """A document's component or entity name: one a snapshot line could hold.
    Every line break is whitespace to ``str.split``, so the name is one line."""
    name = _string(value, f"{what} name")
    if name.split() != [name]:
        raise ValueError(f"{what} name must not contain whitespace: {name!r}")
    return name


def _component(value) -> str | None:
    """A change endpoint: absent, or a component name that a snapshot could hold."""
    return None if value is None else _check_name(value, "component")


def _read_change(obj: dict, version_pair: tuple[str, str]) -> dict:
    """One change of a document whose header names ``version_pair``, in the
    shape ``analyze_changes`` returns, its deltas de-duplicated and sorted.

    A change carries at least one entity, removes none that it adds, names
    its source if it removes one and its target if it adds one, and its
    versions and kind must match the header and its endpoints.
    """
    entities = {"remove": set(), "add": set()}
    for delta in obj["deltas"]:
        if delta["op"] not in entities:
            raise ValueError(f"unknown delta op {delta['op']!r}")
        entities[delta["op"]].add(_check_name(delta["entity"], "entity"))
    id_ = _name(obj["id"], "change id")
    source = _component(obj.get("source_component"))
    target = _component(obj.get("target_component"))
    if not (entities["remove"] or entities["add"]):
        raise ValueError("a change must carry at least one entity")
    shared = entities["remove"] & entities["add"]
    if shared:
        raise ValueError(f"a change must not remove and add the same entity: {min(shared)!r}")
    if entities["remove"] and source is None:
        raise ValueError("a change that removes entities must name its source")
    if entities["add"] and target is None:
        raise ValueError("a change that adds entities must name its target")
    if (obj["from_version"], obj["to_version"]) != version_pair:
        raise ValueError(f"change {id_} is not for the header's versions {version_pair}")
    change = change_record(id_, source, target, entities["remove"], entities["add"])
    if obj["kind"] != change["kind"]:
        raise ValueError(
            f"change {id_} is {change['kind']} by its endpoints, but declares kind {obj['kind']!r}"
        )
    return change


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


def _strings(values, what: str) -> list[str]:
    for value in _list(values, what):
        if not isinstance(value, str):
            raise TypeError(f"{what} must hold strings, got {value!r}")
    return values


def _read_impact(obj: dict) -> tuple[tuple[str | None, str], dict]:
    """An impact document's version pair and its ``impact`` object, in the
    shape ``build_impact_lists`` returns: entity lists de-duplicated and
    sorted, orphaned refs and skipped paths sorted. A commit id or a path
    may be any string.
    """
    from_version = obj.get("from_version")
    version_pair = (
        None if from_version is None else _label(from_version, "from_version"),
        _label(obj["to_version"], "to_version"),
    )
    entries = {
        _name(issue_id, "issue id"): {
            _check_name(entity, "entity") for entity in _list(entities, "impact entities")
        }
        for issue_id, entities in obj["entries"].items()
    }
    diagnostics = obj.get("diagnostics", {})
    count = _count(diagnostics.get("excluded_entity_count", 0), "excluded_entity_count")
    refs = _list(diagnostics.get("orphaned_commit_refs", []), "orphaned_commit_refs")
    ref_issues = [_name(ref["issue"], "orphaned ref issue") for ref in refs]
    ref_commits = _strings([ref["commit"] for ref in refs], "orphaned ref commits")
    skipped = _strings(diagnostics.get("skipped_paths", []), "skipped_paths")
    return version_pair, impact_record(entries, zip(ref_issues, ref_commits), skipped, count)


# ---------------------------------------------------------------------------
# standalone documents


def _parse_doc(obj, kind: str, parse):
    """Check a ``kind`` document's header, then read its body with ``parse``.

    Every structured document is read through here, so a missing field or a
    value of the wrong shape becomes a one-line ConfigError, not a traceback.
    """
    if not isinstance(obj, dict):
        raise ConfigError("document must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1 == 1.0
        raise ConfigError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    if obj.get("kind") != kind:
        raise ConfigError(f"expected a {kind!r} document, got {obj.get('kind')!r}")
    try:
        return parse(obj)
    except KeyError as exc:
        raise ConfigError(f"malformed {kind} document: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} document: {exc}") from None


def changes_doc(version_pair: tuple[str, str], changes: list[dict]) -> dict:
    """A changes document of ``changes``, which are in ``change_order``."""
    return {
        **_header(version_pair, "changes"),
        "changes": [{**_header(version_pair), **c} for c in changes],
    }


def _read_changes(doc: dict) -> tuple[tuple[str, str], list[dict]]:
    version_pair = tuple(_label(doc[key], key) for key in ("from_version", "to_version"))
    changes: dict[str, dict] = {}
    for entry in doc["changes"]:
        change = _read_change(entry, version_pair)
        if change["id"] in changes:
            raise ValueError(f"duplicate change id {change['id']!r}")
        changes[change["id"]] = change
    return version_pair, sorted(changes.values(), key=change_order)


def parse_changes_doc(obj: dict) -> tuple[tuple[str, str], list[dict]]:
    return _parse_doc(obj, "changes", _read_changes)


def impact_doc(version_pair: tuple[str | None, str], impact: dict) -> dict:
    return {**impact, **_header(version_pair, "impact")}


def parse_impact_doc(obj: dict) -> tuple[tuple[str | None, str], dict]:
    return _parse_doc(obj, "impact", _read_impact)


def parse_run_summary(obj: dict) -> dict:
    """The ``summary`` object of a run document, each row rebuilt from its counts and kinds."""
    return _parse_doc(obj, "run", _read_run_summary)


def decisions_doc(version_pair, decisions: list[dict], coverage: list[int]) -> dict:
    return {
        **_header(version_pair, "decisions"),
        "decisions": [{**_header(version_pair), **d} for d in decisions],
        "coverage": coverage,
    }


# ---------------------------------------------------------------------------
# summary statistics

# The integer fields of a stats row: summed into the overall row, written and read as is.
_COUNT_FIELDS = (
    "issues_in_decisions",
    "change_count",
    "decision_count",
    "issue_links",  # sum of |issues| over decisions
    "change_links",  # sum of |changes| over decisions
    "covered_change_count",
    "clean_change_count",
)


def _ratio(part: int, whole: int, empty: list[int] | None) -> list[int] | None:
    """``part / whole`` as a reduced ``[n, d]`` pair; ``empty`` when ``whole`` is 0."""
    if whole == 0:
        return empty
    divisor = gcd(part, whole)
    return [part // divisor, whole // divisor]


def _stats_row(version_pair: tuple[str | None, str | None], counts: dict, kinds: dict) -> dict:
    """A stats row: ``counts`` and ``kinds``, with the scope and ratios they give.

    Averages are None with no decisions; coverage is ``[1, 1]`` with no changes.
    """
    decisions, covered = counts["decision_count"], counts["covered_change_count"]
    return {
        **_header(version_pair),
        "scope": "overall" if version_pair == (None, None) else " -> ".join(version_pair),
        **counts,
        "kind_distribution": kinds,
        "avg_issues_per_decision": _ratio(counts["issue_links"], decisions, None),
        "avg_changes_per_decision": _ratio(counts["change_links"], decisions, None),
        "coverage_before_cleanup": _ratio(covered, counts["change_count"], [1, 1]),
        "coverage_after_cleanup": _ratio(covered, counts["clean_change_count"], [1, 1]),
    }


def build_pair_stats(
    from_version: str,
    to_version: str,
    change_count: int,
    clean_change_count: int,
    decisions: list[dict],
) -> dict:
    """The ``stats`` object of one pair's ``run.json`` entry.

    Decisions are the connected components of the pair's issue-change graph,
    so no issue or change lies in two of them: the issues in decisions are
    the issue links, and the covered changes are the change links.
    """
    kinds = dict.fromkeys(KINDS, 0)
    issue_links = change_links = 0
    for decision in decisions:
        kinds[decision["kind"]] += 1
        issue_links += len(decision["issue_ids"])
        change_links += len(decision["change_ids"])
    counts = {
        "issues_in_decisions": issue_links,
        "change_count": change_count,
        "decision_count": len(decisions),
        "issue_links": issue_links,
        "change_links": change_links,
        "covered_change_count": change_links,
        "clean_change_count": clean_change_count,
    }
    return _stats_row((from_version, to_version), counts, kinds)


def build_run_summary(rows: list[dict]) -> dict:
    """The ``summary`` object of ``run.json``: the pairs' own stats rows, then their sum."""
    overall = _stats_row(
        (None, None),
        {key: sum(row[key] for row in rows) for key in _COUNT_FIELDS},
        {kind: sum(row["kind_distribution"][kind] for row in rows) for kind in KINDS},
    )
    return {"issue_count_convention": ISSUE_COUNT_CONVENTION, "pairs": rows, "overall": overall}


def _row_from_obj(obj: dict, version_pair: tuple[str | None, str | None]) -> dict:
    """A stats row rebuilt from its type-checked counts and kinds, not its stored ratios.

    Only counts ``build_pair_stats`` could write pass: none negative, the
    kinds summing to ``decision_count``, covered <= clean <= all changes,
    and, decisions being disjoint, as many issues and covered changes as
    issue and change links.
    """
    counts = {key: _count(obj[key], key) for key in _COUNT_FIELDS}
    kinds = {kind: _count(obj["kind_distribution"][kind], kind) for kind in KINDS}
    if sum(kinds.values()) != counts["decision_count"]:
        raise ValueError("kind_distribution does not sum to decision_count")
    covered, clean = counts["covered_change_count"], counts["clean_change_count"]
    if not covered <= clean <= counts["change_count"]:
        raise ValueError("covered_change_count <= clean_change_count <= change_count fails")
    if counts["issues_in_decisions"] != counts["issue_links"] or covered != counts["change_links"]:
        raise ValueError("issues_in_decisions and covered_change_count must equal their links")
    return _stats_row(version_pair, counts, kinds)


def _read_run_summary(doc: dict) -> dict:
    """A run document's ``summary``: each pair row names two one-line
    labels, the overall row none, and the overall row is the sum of the
    pair rows."""
    summary = doc["summary"]
    keys = ("from_version", "to_version")
    pairs = []
    for row in summary.get("pairs", []):
        pairs.append(_row_from_obj(row, tuple(_label(row.get(key), key) for key in keys)))
    overall = summary["overall"]
    for key in keys:
        if overall.get(key) is not None:
            raise TypeError(f"overall {key} must be null, got {overall[key]!r}")
    rebuilt = build_run_summary(pairs)
    row, summed = _row_from_obj(overall, (None, None)), rebuilt["overall"]
    for key in (*_COUNT_FIELDS, "kind_distribution"):
        if row[key] != summed[key]:
            raise ValueError(f"overall {key} is {row[key]}, but the pairs sum to {summed[key]}")
    return rebuilt


# ---------------------------------------------------------------------------
# rendering


def _format_ratio(pair: list[int] | None) -> str:
    """A ratio cell: ``n / d`` to two decimal places, ``-`` when there is no ratio."""
    return "-" if pair is None else f"{pair[0] / pair[1]:.2f}"


def change_label(change: dict) -> str:
    source, target = change["source_component"], change["target_component"]
    if source is None or source == target:
        name = target
    elif target is None:
        name = source
    else:
        name = f"{source} -> {target}"
    added = sum(delta["op"] == "add" for delta in change["deltas"])
    removed = len(change["deltas"]) - added
    return f"{name} {change['kind']} (+{added}/-{removed} entities)"


def render_decision(
    decision: dict,
    version_pair: tuple[str, str],
    issues_by_id: dict[str, IssueRecord],
    changes_by_id: dict[str, dict],
) -> str:
    """One decision as a text card: header, then its issues and changes.

    A summary's ``str.splitlines`` parts are joined by a space, so it adds no line.
    """
    header = (
        f"[{decision['kind']}] {decision['id']} "
        f"({version_pair[0]} -> {version_pair[1]}, "
        f"{'tractable' if decision['tractable'] else 'not tractable'})"
    )
    lines = [header]
    for issue_id in decision["issue_ids"]:
        summary = " ".join(issues_by_id[issue_id].summary.splitlines())
        lines.append(f"  issue {issue_id}: {summary}" if summary else f"  issue {issue_id}")
    for change in sorted(map(changes_by_id.__getitem__, decision["change_ids"]), key=change_order):
        lines.append(f"  change {change_label(change)}")
    return "\n".join(lines)


def _table(first_header: str, rows: list[dict], columns) -> str:
    """Each row's scope under ``first_header``, then one cell per ``(header, cell)`` column."""
    table = [[first_header] + [header for header, _ in columns]]
    table += [[row["scope"]] + [cell(row) for _, cell in columns] for row in rows]
    widths = [max(len(row[index]) for row in table) for index in range(len(table[0]))]
    lines = []
    for row in table:
        padded = [row[0].ljust(widths[0])]
        padded += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)


def _coverage_columns(before: str, after: str) -> list:
    return [
        (before, lambda row: _format_ratio(row["coverage_before_cleanup"])),
        (after, lambda row: _format_ratio(row["coverage_after_cleanup"])),
    ]


def render_summary_table(summary: dict) -> str:
    columns = [
        ("iss-in-dec", lambda row: str(row["issues_in_decisions"])),
        ("changes", lambda row: str(row["change_count"])),
        ("decisions", lambda row: str(row["decision_count"])),
        ("avg-iss/dec", lambda row: _format_ratio(row["avg_issues_per_decision"])),
        ("avg-chg/dec", lambda row: _format_ratio(row["avg_changes_per_decision"])),
        *_coverage_columns("cov-before", "cov-after"),
    ]
    rows = [*summary["pairs"], summary["overall"]]
    return f"# {ISSUE_COUNT_CONVENTION}\n" + _table("pair", rows, columns)


def _kind_cell(kind: str):
    def cell(row: dict) -> str:
        count = row["kind_distribution"][kind]
        return f"{count} ({_format_ratio(_ratio(count, row['decision_count'], [0, 1]))})"

    return cell


def render_distribution_table(summary: dict) -> str:
    """Decision-kind counts and proportions per pair with decisions, then overall."""
    rows = [*(row for row in summary["pairs"] if row["decision_count"] > 0), summary["overall"]]
    return _table("scope", rows, [(kind, _kind_cell(kind)) for kind in KINDS])


def render_coverage_table(summary: dict) -> str:
    rows = [*summary["pairs"], summary["overall"]]
    return _table("pair", rows, _coverage_columns("before-cleanup", "after-cleanup"))


# Each `report --out` name with its title in summary.txt (None: untitled)
# and its table, in summary.txt order.
SECTIONS = {
    "summary": (None, render_summary_table),
    "coverage": ("coverage", render_coverage_table),
    "distribution": ("decision kinds", render_distribution_table),
}


def render_summary_txt(summary: dict, failures: list[dict]) -> str:
    """summary.txt: each of ``SECTIONS`` under its title and above a blank
    line, then the failed pairs, if any."""
    lines = []
    for title, render in SECTIONS.values():
        if title is not None:
            lines.append(title)
        lines += [render(summary), ""]
    if failures:
        lines.append("failed pairs")
        lines += [f"  {f['from_version']} -> {f['to_version']}: {f['error']}" for f in failures]
        lines.append("")
    return "\n".join(lines)


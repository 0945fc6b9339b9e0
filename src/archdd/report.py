"""Structured documents, decision rendering, and summary statistics.

All machine-readable output is canonical JSON (sorted keys, sorted lists,
no timestamps) carrying a ``schema_version`` field, so re-running the tool
on unchanged inputs reproduces byte-identical files. Ratios are stored as
exact [numerator, denominator] pairs; rounding happens only at display
time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .decisions import Decision, DecisionKind
from .errors import ConfigError, InvariantViolation
from .ingestion import ArchitecturalImpactList, ImpactDiagnostics, IssueRecord
from .model import ArchitecturalChange, ChangeKind, _check_name

SCHEMA_VERSION = 1

ISSUE_COUNT_CONVENTION = (
    "issue counts are distinct issue ids per version pair; an issue spanning "
    "several versions is counted once in each pair it qualifies for"
)

_KIND_ORDER = (DecisionKind.SIMPLE, DecisionKind.COMPOUND, DecisionKind.CROSSCUTTING)


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


def _fraction_pair(value: Fraction | None):
    if value is None:
        return None
    return [value.numerator, value.denominator]


# ---------------------------------------------------------------------------
# domain object <-> plain object


def _header(version_pair: tuple[str | None, str | None], kind: str | None = None) -> dict:
    """A pair's version fields; a standalone ``kind`` document's header adds its schema and kind."""
    header = {"from_version": version_pair[0], "to_version": version_pair[1]}
    if kind is not None:
        header.update(schema_version=SCHEMA_VERSION, kind=kind)
    return header


def change_to_obj(change: ArchitecturalChange, version_pair: tuple[str, str]) -> dict:
    ops = [(e, "remove") for e in change.removed] + [(e, "add") for e in change.added]
    return {
        **_header(version_pair),
        "id": change.id,
        "kind": change.kind.value,
        "source_component": change.source_component,
        "target_component": change.target_component,
        "deltas": [{"op": op, "entity": entity} for entity, op in sorted(ops)],
    }


def _name(value, what: str, optional: bool = False):
    """A document's version label or id: a non-empty string, or None where ``optional``."""
    if not (isinstance(value, str) and value) and not (optional and value is None):
        raise TypeError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _component(value) -> str | None:
    """A change endpoint: absent, or a component name that a snapshot could hold."""
    return None if value is None else _check_name(value, "component")


def change_from_obj(obj: dict, version_pair: tuple[str, str]) -> ArchitecturalChange:
    """One change of a document whose header names ``version_pair``; its versions must match."""
    entities = {"remove": set(), "add": set()}
    for delta in obj["deltas"]:
        if delta["op"] not in entities:
            raise ValueError(f"unknown delta op {delta['op']!r}")
        entities[delta["op"]].add(_check_name(delta["entity"], "entity"))
    change = ArchitecturalChange(
        id=_name(obj["id"], "change id"),
        source_component=_component(obj.get("source_component")),
        target_component=_component(obj.get("target_component")),
        removed=entities["remove"],
        added=entities["add"],
    )
    if (obj["from_version"], obj["to_version"]) != version_pair:
        raise ValueError(f"change {change.id} is not for the header's versions {version_pair}")
    if obj["kind"] != change.kind.value:
        raise ValueError(
            f"change {change.id} is {change.kind.value} by its endpoints, "
            f"but declares kind {obj['kind']!r}"
        )
    return change


def sort_changes(changes) -> list[ArchitecturalChange]:
    return sorted(
        changes,
        key=lambda c: (
            c.target_component or c.source_component,
            c.kind.value,
            c.id,
        ),
    )


def decision_to_obj(decision: Decision, version_pair: tuple[str, str]) -> dict:
    return {
        **_header(version_pair),
        "id": decision.id,
        "kind": decision.kind.value,
        "issue_ids": sorted(decision.issue_ids),
        "change_ids": sorted(decision.change_ids),
        "tractable": decision.tractable,
    }


def impact_to_obj(impact: ArchitecturalImpactList, version_pair: tuple[str | None, str]) -> dict:
    diagnostics = impact.diagnostics
    return {
        **_header(version_pair),
        "entries": {
            issue_id: sorted(entities) for issue_id, entities in impact.entries.items()
        },
        "diagnostics": {
            "orphaned_commit_refs": [
                {"issue": issue_id, "commit": commit_id}
                for issue_id, commit_id in sorted(diagnostics.orphaned_commit_refs)
            ],
            "skipped_paths": sorted(diagnostics.skipped_paths),
            "excluded_entity_count": diagnostics.excluded_entity_count,
        },
    }


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


def _entity_set(entities) -> frozenset[str]:
    entities = _list(entities, "impact entities")
    return frozenset(_check_name(entity, "entity") for entity in entities)


def _strings(values, what: str) -> list[str]:
    for value in _list(values, what):
        if not isinstance(value, str):
            raise TypeError(f"{what} must hold strings, got {value!r}")
    return values


def _diagnostics_from_obj(obj: dict) -> ImpactDiagnostics:
    """Diagnostics as ``impact_to_obj`` writes them; a commit id or path may be any string."""
    count = obj.get("excluded_entity_count", 0)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise TypeError(f"excluded_entity_count must be a non-negative integer, got {count!r}")
    refs = _list(obj.get("orphaned_commit_refs", []), "orphaned_commit_refs")
    return ImpactDiagnostics(
        orphaned_commit_refs=list(zip(
            [_name(ref["issue"], "orphaned ref issue") for ref in refs],
            _strings([ref["commit"] for ref in refs], "orphaned ref commits"),
        )),
        skipped_paths=list(_strings(obj.get("skipped_paths", []), "skipped_paths")),
        excluded_entity_count=count,
    )


def impact_from_obj(obj: dict) -> tuple[tuple[str | None, str], ArchitecturalImpactList]:
    """The version pair and impact list that ``impact_to_obj`` wrote."""
    version_pair = (
        _name(obj.get("from_version"), "from_version", True),
        _name(obj["to_version"], "to_version"),
    )
    return version_pair, ArchitecturalImpactList(
        entries={
            _name(issue_id, "issue id"): _entity_set(entities)
            for issue_id, entities in obj["entries"].items()
        },
        diagnostics=_diagnostics_from_obj(obj.get("diagnostics", {})),
    )


# ---------------------------------------------------------------------------
# standalone documents


def _parse_doc(obj, kind: str, parse):
    """Check a ``kind`` document's header, then read its body with ``parse``.

    Every structured document is read through here, so a missing field or a
    value of the wrong shape becomes a one-line ConfigError, not a traceback.
    """
    if not isinstance(obj, dict):
        raise ConfigError("document must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {obj.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if obj.get("kind") != kind:
        raise ConfigError(f"expected a {kind!r} document, got {obj.get('kind')!r}")
    try:
        return parse(obj)
    except KeyError as exc:
        raise ConfigError(f"malformed {kind} document: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, InvariantViolation) as exc:
        raise ConfigError(f"malformed {kind} document: {exc}") from None


def changes_doc(version_pair: tuple[str, str], changes) -> dict:
    return {
        **_header(version_pair, "changes"),
        "changes": [change_to_obj(c, version_pair) for c in sort_changes(changes)],
    }


def _changes_from_obj(doc: dict) -> tuple[tuple[str, str], frozenset[ArchitecturalChange]]:
    version_pair = tuple(_name(doc[key], key) for key in ("from_version", "to_version"))
    changes: dict[str, ArchitecturalChange] = {}
    for entry in doc["changes"]:
        change = change_from_obj(entry, version_pair)
        if change.id in changes:
            raise ValueError(f"duplicate change id {change.id!r}")
        changes[change.id] = change
    return version_pair, frozenset(changes.values())


def parse_changes_doc(obj: dict) -> tuple[tuple[str, str], frozenset[ArchitecturalChange]]:
    return _parse_doc(obj, "changes", _changes_from_obj)


def impact_doc(impact: ArchitecturalImpactList, version_pair: tuple[str | None, str]) -> dict:
    return {**impact_to_obj(impact, version_pair), **_header(version_pair, "impact")}


def parse_impact_doc(obj: dict) -> tuple[tuple[str | None, str], ArchitecturalImpactList]:
    return _parse_doc(obj, "impact", impact_from_obj)


def parse_run_summary(obj: dict) -> RunSummary:
    return _parse_doc(obj, "run", lambda doc: summary_from_obj(doc["summary"]))


def decisions_doc(version_pair, decisions: list[Decision], coverage: Fraction) -> dict:
    return {
        **_header(version_pair, "decisions"),
        "decisions": [decision_to_obj(d, version_pair) for d in decisions],
        "coverage": _fraction_pair(coverage),
    }


# ---------------------------------------------------------------------------
# summary statistics


@dataclass
class PairStats:
    """Table-row statistics for one version pair (or the overall row)."""

    from_version: str | None
    to_version: str | None
    issues_in_decisions: int = 0
    change_count: int = 0
    decision_count: int = 0
    issue_links: int = 0  # sum of |issues| over decisions
    change_links: int = 0  # sum of |changes| over decisions
    kind_distribution: dict[str, int] = field(
        default_factory=lambda: {kind.value: 0 for kind in _KIND_ORDER}
    )
    covered_change_count: int = 0
    clean_change_count: int = 0

    @property
    def scope(self) -> str:
        if self.from_version is None and self.to_version is None:
            return "overall"
        return f"{self.from_version} -> {self.to_version}"

    @property
    def avg_issues_per_decision(self) -> Fraction | None:
        return _ratio(self.issue_links, self.decision_count, None)

    @property
    def avg_changes_per_decision(self) -> Fraction | None:
        return _ratio(self.change_links, self.decision_count, None)

    @property
    def coverage_before_cleanup(self) -> Fraction:
        """Share of the pair's changes that some decision covers; 1 with no changes."""
        return _ratio(self.covered_change_count, self.change_count, Fraction(1))

    @property
    def coverage_after_cleanup(self) -> Fraction:
        return _ratio(self.covered_change_count, self.clean_change_count, Fraction(1))


def _ratio(part: int, whole: int, empty: Fraction | None) -> Fraction | None:
    return empty if whole == 0 else Fraction(part, whole)


def build_pair_stats(
    from_version: str,
    to_version: str,
    changes: frozenset[ArchitecturalChange],
    clean_changes: frozenset[ArchitecturalChange],
    decisions: list[Decision],
) -> PairStats:
    stats = PairStats(from_version=from_version, to_version=to_version)
    stats.change_count = len(changes)
    stats.clean_change_count = len(clean_changes)
    stats.decision_count = len(decisions)
    issue_ids: set[str] = set()
    covered: set[str] = set()
    for decision in decisions:
        issue_ids |= decision.issue_ids
        covered |= decision.change_ids
        stats.issue_links += len(decision.issue_ids)
        stats.change_links += len(decision.change_ids)
        stats.kind_distribution[decision.kind.value] += 1
    stats.issues_in_decisions = len(issue_ids)
    present = {change.id for change in changes}
    stats.covered_change_count = len(covered & present)
    return stats


@dataclass
class RunSummary:
    pairs: list[PairStats]
    overall: PairStats


def build_run_summary(pair_stats: list[PairStats]) -> RunSummary:
    overall = PairStats(from_version=None, to_version=None)
    for stats in pair_stats:
        for key in _COUNT_FIELDS:
            setattr(overall, key, getattr(overall, key) + getattr(stats, key))
        for kind, count in stats.kind_distribution.items():
            overall.kind_distribution[kind] += count
    return RunSummary(pairs=list(pair_stats), overall=overall)


def stats_to_obj(stats: PairStats) -> dict:
    return {
        **_header((stats.from_version, stats.to_version)),
        "scope": stats.scope,
        **{key: getattr(stats, key) for key in _COUNT_FIELDS},
        "kind_distribution": dict(stats.kind_distribution),
        "avg_issues_per_decision": _fraction_pair(stats.avg_issues_per_decision),
        "avg_changes_per_decision": _fraction_pair(stats.avg_changes_per_decision),
        "coverage_before_cleanup": _fraction_pair(stats.coverage_before_cleanup),
        "coverage_after_cleanup": _fraction_pair(stats.coverage_after_cleanup),
    }


def summary_to_obj(summary: RunSummary) -> dict:
    return {
        "issue_count_convention": ISSUE_COUNT_CONVENTION,
        "pairs": [stats_to_obj(stats) for stats in summary.pairs],
        "overall": stats_to_obj(summary.overall),
    }


# The integer fields of PairStats: summed into the overall row, written and read as is.
_COUNT_FIELDS = (
    "issues_in_decisions",
    "change_count",
    "decision_count",
    "issue_links",
    "change_links",
    "covered_change_count",
    "clean_change_count",
)


def stats_from_obj(obj: dict) -> PairStats:
    counts = {key: obj[key] for key in _COUNT_FIELDS}
    kinds = {kind.value: obj["kind_distribution"][kind.value] for kind in _KIND_ORDER}
    for key, value in {**counts, **kinds}.items():
        if type(value) is not int:
            raise TypeError(f"{key} must be an integer, got {value!r}")
    return PairStats(
        from_version=obj.get("from_version"),
        to_version=obj.get("to_version"),
        kind_distribution=kinds,
        **counts,
    )


def summary_from_obj(obj: dict) -> RunSummary:
    pairs = [stats_from_obj(entry) for entry in obj.get("pairs", [])]
    overall = stats_from_obj(obj["overall"])
    return RunSummary(pairs=pairs, overall=overall)


# ---------------------------------------------------------------------------
# rendering


def _format_ratio(value: Fraction | None) -> str:
    """A ratio cell: two decimal places, ``-`` when there is no ratio."""
    return "-" if value is None else f"{float(value):.2f}"


def change_label(change: ArchitecturalChange) -> str:
    if change.kind is ChangeKind.COMPONENT_ADDED:
        name = change.target_component
    elif change.kind is ChangeKind.COMPONENT_REMOVED:
        name = change.source_component
    elif change.source_component == change.target_component:
        name = change.target_component
    else:
        name = f"{change.source_component} -> {change.target_component}"
    return f"{name} {change.kind.value} (+{len(change.added)}/-{len(change.removed)} entities)"


def render_decision(
    decision: Decision,
    version_pair: tuple[str, str],
    issues_by_id: dict[str, IssueRecord],
    changes_by_id: dict[str, ArchitecturalChange],
) -> str:
    """One decision as a text card: header, then its issues and changes."""
    header = (
        f"[{decision.kind.value}] {decision.id} "
        f"({version_pair[0]} -> {version_pair[1]}, "
        f"{'tractable' if decision.tractable else 'not tractable'})"
    )
    lines = [header]
    for issue_id in sorted(decision.issue_ids):
        summary = issues_by_id[issue_id].summary
        lines.append(f"  issue {issue_id}: {summary}" if summary else f"  issue {issue_id}")
    for change in sort_changes([changes_by_id[cid] for cid in decision.change_ids]):
        lines.append(f"  change {change_label(change)}")
    return "\n".join(lines)


def _table(first_header: str, rows: list[PairStats], columns) -> str:
    """Each row's scope under ``first_header``, then one cell per ``(header, cell)`` column."""
    table = [[first_header] + [header for header, _ in columns]]
    table += [[stats.scope] + [cell(stats) for _, cell in columns] for stats in rows]
    widths = [max(len(row[index]) for row in table) for index in range(len(table[0]))]
    lines = []
    for row in table:
        padded = [row[0].ljust(widths[0])]
        padded += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)


def _coverage_columns(before: str, after: str) -> list:
    return [
        (before, lambda stats: _format_ratio(stats.coverage_before_cleanup)),
        (after, lambda stats: _format_ratio(stats.coverage_after_cleanup)),
    ]


def render_summary_table(summary: RunSummary) -> str:
    columns = [
        ("iss-in-dec", lambda stats: str(stats.issues_in_decisions)),
        ("changes", lambda stats: str(stats.change_count)),
        ("decisions", lambda stats: str(stats.decision_count)),
        ("avg-iss/dec", lambda stats: _format_ratio(stats.avg_issues_per_decision)),
        ("avg-chg/dec", lambda stats: _format_ratio(stats.avg_changes_per_decision)),
        *_coverage_columns("cov-before", "cov-after"),
    ]
    rows = [*summary.pairs, summary.overall]
    return f"# {ISSUE_COUNT_CONVENTION}\n" + _table("pair", rows, columns)


def _kind_cell(kind: str):
    def cell(stats: PairStats) -> str:
        count = stats.kind_distribution[kind]
        return f"{count} ({_format_ratio(_ratio(count, stats.decision_count, Fraction(0)))})"

    return cell


def render_distribution_table(summary: RunSummary) -> str:
    """Decision-kind counts and proportions per pair with decisions, then overall."""
    scoped = sorted((s for s in summary.pairs if s.decision_count > 0), key=lambda s: s.scope)
    columns = [(kind.value, _kind_cell(kind.value)) for kind in _KIND_ORDER]
    return _table("scope", scoped + [summary.overall], columns)


def render_coverage_table(summary: RunSummary) -> str:
    rows = [*summary.pairs, summary.overall]
    return _table("pair", rows, _coverage_columns("before-cleanup", "after-cleanup"))


__all__ = [
    "SCHEMA_VERSION",
    "ISSUE_COUNT_CONVENTION",
    "canonical_json",
    "change_to_obj",
    "change_from_obj",
    "sort_changes",
    "decision_to_obj",
    "impact_to_obj",
    "impact_from_obj",
    "changes_doc",
    "parse_changes_doc",
    "impact_doc",
    "parse_impact_doc",
    "parse_run_summary",
    "decisions_doc",
    "PairStats",
    "RunSummary",
    "build_pair_stats",
    "build_run_summary",
    "stats_to_obj",
    "stats_from_obj",
    "summary_to_obj",
    "summary_from_obj",
    "change_label",
    "render_decision",
    "render_summary_table",
    "render_distribution_table",
    "render_coverage_table",
]

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
from .model import ArchitecturalChange, ChangeKind, Delta, DeltaKind

SCHEMA_VERSION = 1

ISSUE_COUNT_CONVENTION = (
    "issue counts are distinct issue ids per version pair; an issue spanning "
    "several versions is counted once in each pair it qualifies for"
)

_KIND_ORDER = (DecisionKind.SIMPLE, DecisionKind.COMPOUND, DecisionKind.CROSSCUTTING)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _fraction_pair(value: Fraction | None):
    if value is None:
        return None
    return [value.numerator, value.denominator]


# ---------------------------------------------------------------------------
# domain object <-> plain object


def change_to_obj(change: ArchitecturalChange) -> dict:
    return {
        "id": change.id,
        "kind": change.kind.value,
        "source_component": change.source_component,
        "target_component": change.target_component,
        "from_version": change.version_pair[0],
        "to_version": change.version_pair[1],
        "deltas": [
            {"op": delta.kind.value, "entity": delta.entity}
            for delta in sorted(change.deltas, key=lambda d: (d.entity, d.kind.value))
        ],
    }


def change_from_obj(obj: dict) -> ArchitecturalChange:
    if not isinstance(obj["id"], str):
        raise TypeError(f"change id must be a string, got {obj['id']!r}")
    return ArchitecturalChange(
        id=obj["id"],
        kind=ChangeKind(obj["kind"]),
        source_component=obj.get("source_component"),
        target_component=obj.get("target_component"),
        deltas=frozenset(
            Delta(DeltaKind(d["op"]), d["entity"]) for d in obj["deltas"]
        ),
        version_pair=(obj["from_version"], obj["to_version"]),
    )


def sort_changes(changes) -> list[ArchitecturalChange]:
    return sorted(
        changes,
        key=lambda c: (
            c.target_component or c.source_component or "",
            c.kind.value,
            c.id,
        ),
    )


def decision_to_obj(decision: Decision) -> dict:
    return {
        "id": decision.id,
        "kind": decision.kind.value,
        "issue_ids": sorted(decision.issue_ids),
        "change_ids": sorted(decision.change_ids),
        "from_version": decision.version_pair[0],
        "to_version": decision.version_pair[1],
        "tractable": decision.tractable,
    }


def diagnostics_to_obj(diagnostics: ImpactDiagnostics) -> dict:
    return {
        "orphaned_commit_refs": [
            {"issue": issue_id, "commit": commit_id}
            for issue_id, commit_id in sorted(diagnostics.orphaned_commit_refs)
        ],
        "skipped_paths": sorted(diagnostics.skipped_paths),
        "excluded_entity_count": diagnostics.excluded_entity_count,
    }


def diagnostics_from_obj(obj: dict) -> ImpactDiagnostics:
    return ImpactDiagnostics(
        orphaned_commit_refs=[
            (ref["issue"], ref["commit"]) for ref in obj.get("orphaned_commit_refs", [])
        ],
        skipped_paths=list(obj.get("skipped_paths", [])),
        excluded_entity_count=obj.get("excluded_entity_count", 0),
    )


def impact_to_obj(impact: ArchitecturalImpactList) -> dict:
    return {
        "from_version": impact.version_pair[0],
        "to_version": impact.version_pair[1],
        "entries": {
            issue_id: sorted(entities) for issue_id, entities in impact.entries.items()
        },
        "diagnostics": diagnostics_to_obj(impact.diagnostics),
    }


def impact_from_obj(obj: dict) -> ArchitecturalImpactList:
    return ArchitecturalImpactList(
        version_pair=(obj.get("from_version"), obj["to_version"]),
        entries={
            issue_id: frozenset(entities) for issue_id, entities in obj["entries"].items()
        },
        diagnostics=diagnostics_from_obj(obj.get("diagnostics", {})),
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
        "schema_version": SCHEMA_VERSION,
        "kind": "changes",
        "from_version": version_pair[0],
        "to_version": version_pair[1],
        "changes": [change_to_obj(c) for c in sort_changes(changes)],
    }


def parse_changes_doc(obj: dict) -> tuple[tuple[str, str], frozenset[ArchitecturalChange]]:
    return _parse_doc(
        obj,
        "changes",
        lambda doc: (
            (doc["from_version"], doc["to_version"]),
            frozenset(change_from_obj(entry) for entry in doc["changes"]),
        ),
    )


def impact_doc(impact: ArchitecturalImpactList) -> dict:
    out = impact_to_obj(impact)
    out["schema_version"] = SCHEMA_VERSION
    out["kind"] = "impact"
    return out


def parse_impact_doc(obj: dict) -> ArchitecturalImpactList:
    return _parse_doc(obj, "impact", impact_from_obj)


def parse_run_summary(obj: dict) -> RunSummary:
    return _parse_doc(obj, "run", lambda doc: summary_from_obj(doc["summary"]))


def decisions_doc(version_pair, decisions: list[Decision], coverage: Fraction) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "decisions",
        "from_version": version_pair[0],
        "to_version": version_pair[1],
        "decisions": [decision_to_obj(d) for d in decisions],
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
        if self.decision_count == 0:
            return None
        return Fraction(self.issue_links, self.decision_count)

    @property
    def avg_changes_per_decision(self) -> Fraction | None:
        if self.decision_count == 0:
            return None
        return Fraction(self.change_links, self.decision_count)

    @property
    def coverage_before_cleanup(self) -> Fraction:
        if self.change_count == 0:
            return Fraction(1)
        return Fraction(self.covered_change_count, self.change_count)

    @property
    def coverage_after_cleanup(self) -> Fraction:
        if self.clean_change_count == 0:
            return Fraction(1)
        return Fraction(self.covered_change_count, self.clean_change_count)


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
        overall.issues_in_decisions += stats.issues_in_decisions
        overall.change_count += stats.change_count
        overall.decision_count += stats.decision_count
        overall.issue_links += stats.issue_links
        overall.change_links += stats.change_links
        overall.covered_change_count += stats.covered_change_count
        overall.clean_change_count += stats.clean_change_count
        for kind, count in stats.kind_distribution.items():
            overall.kind_distribution[kind] += count
    return RunSummary(pairs=list(pair_stats), overall=overall)


def stats_to_obj(stats: PairStats) -> dict:
    return {
        "scope": stats.scope,
        "from_version": stats.from_version,
        "to_version": stats.to_version,
        "issues_in_decisions": stats.issues_in_decisions,
        "change_count": stats.change_count,
        "decision_count": stats.decision_count,
        "issue_links": stats.issue_links,
        "change_links": stats.change_links,
        "covered_change_count": stats.covered_change_count,
        "clean_change_count": stats.clean_change_count,
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


def _format_avg(value: Fraction | None) -> str:
    return "-" if value is None else f"{float(value):.2f}"


def change_label(change: ArchitecturalChange) -> str:
    adds = sum(1 for d in change.deltas if d.kind is DeltaKind.ADD)
    removes = len(change.deltas) - adds
    if change.kind is ChangeKind.COMPONENT_ADDED:
        name = change.target_component
    elif change.kind is ChangeKind.COMPONENT_REMOVED:
        name = change.source_component
    elif change.source_component == change.target_component:
        name = change.target_component
    else:
        name = f"{change.source_component} -> {change.target_component}"
    return f"{name} {change.kind.value} (+{adds}/-{removes} entities)"


def render_decision(
    decision: Decision,
    issues_by_id: dict[str, IssueRecord],
    changes_by_id: dict[str, ArchitecturalChange],
) -> str:
    """One decision as a text card: header, then its issues and changes."""
    header = (
        f"[{decision.kind.value}] {decision.id} "
        f"({decision.version_pair[0]} -> {decision.version_pair[1]}, "
        f"{'tractable' if decision.tractable else 'not tractable'})"
    )
    lines = [header]
    for issue_id in sorted(decision.issue_ids):
        issue = issues_by_id.get(issue_id)
        summary = f": {issue.summary}" if issue is not None and issue.summary else ""
        lines.append(f"  issue {issue_id}{summary}")
    known = [changes_by_id[cid] for cid in decision.change_ids if cid in changes_by_id]
    for change in sort_changes(known):
        lines.append(f"  change {change_label(change)}")
    for change_id in sorted(decision.change_ids):
        if change_id not in changes_by_id:
            lines.append(f"  change {change_id}")
    return "\n".join(lines)


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    for row in [header] + rows:
        padded = [cell.ljust(widths[0]) if i == 0 else cell.rjust(widths[i])
                  for i, cell in enumerate(row)]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)


def render_summary_table(summary: RunSummary) -> str:
    header = [
        "pair",
        "iss-in-dec",
        "changes",
        "decisions",
        "avg-iss/dec",
        "avg-chg/dec",
        "cov-before",
        "cov-after",
    ]
    rows = []
    for stats in list(summary.pairs) + [summary.overall]:
        rows.append(
            [
                stats.scope,
                str(stats.issues_in_decisions),
                str(stats.change_count),
                str(stats.decision_count),
                _format_avg(stats.avg_issues_per_decision),
                _format_avg(stats.avg_changes_per_decision),
                f"{float(stats.coverage_before_cleanup):.2f}",
                f"{float(stats.coverage_after_cleanup):.2f}",
            ]
        )
    return f"# {ISSUE_COUNT_CONVENTION}\n" + _table(header, rows)


def render_distribution_table(summary: RunSummary) -> str:
    """Decision-kind counts and proportions per pair with decisions, then overall."""
    scoped = sorted((s for s in summary.pairs if s.decision_count > 0), key=lambda s: s.scope)
    header = ["scope"] + [kind.value for kind in _KIND_ORDER]
    rows = []
    for stats in scoped + [summary.overall]:
        total = stats.decision_count
        row = [stats.scope]
        for kind in _KIND_ORDER:
            count = stats.kind_distribution[kind.value]
            row.append(f"{count} ({count / total if total else 0.0:.2f})")
        rows.append(row)
    return _table(header, rows)


def render_coverage_table(summary: RunSummary) -> str:
    header = ["pair", "before-cleanup", "after-cleanup"]
    rows = []
    for stats in list(summary.pairs) + [summary.overall]:
        rows.append(
            [
                stats.scope,
                f"{float(stats.coverage_before_cleanup):.2f}",
                f"{float(stats.coverage_after_cleanup):.2f}",
            ]
        )
    return _table(header, rows)


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
    "diagnostics_to_obj",
    "diagnostics_from_obj",
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

"""End-to-end orchestration over a version sequence.

For every consecutive version pair: analyze changes, build the impact list
for the pair's target version, connect both into the decision graph, and
extract decisions. A failing pair is reported and skipped; the remaining
pairs still run (strict mode turns any failure into a nonzero exit at the
CLI). Pairs run one after another in version order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import report
from .changes import analyze_changes, matching_cost
from .decisions import (
    DEFAULT_TRACTABILITY_THRESHOLD,
    Decision,
    build_decision_graph,
    drop_external_changes,
    find_decisions,
)
from .errors import ArchddError, ConfigError, InputError
from .ingestion import (
    ArchitecturalImpactList,
    DEFAULT_PATH_RULES,
    build_impact_list,
    load_commits,
    load_exclusions,
    load_issues,
    load_path_rules,
    select_issues,
)
from .model import ArchitecturalChange, ArchitectureSnapshot, entity_universe, parse_snapshot


@dataclass
class RunConfig:
    """Parsed pipeline configuration."""

    versions: list[tuple[str, Path]]
    issues_path: Path
    commits_path: Path
    exclusions_path: Path | None = None
    rules_path: Path | None = None
    tractability_threshold: int = DEFAULT_TRACTABILITY_THRESHOLD
    link_by_message: bool = False
    output_dir: Path = Path("archdd-out")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config {path}: {exc.msg}") from None
        return cls.from_obj(obj, base_dir=path.parent)

    @classmethod
    def from_obj(cls, obj: dict, base_dir: Path) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        raw_versions = obj.get("versions")
        if not isinstance(raw_versions, list) or not raw_versions:
            raise ConfigError("config needs a non-empty `versions` array")
        versions = []
        seen: set[str] = set()
        for entry in raw_versions:
            if not isinstance(entry, dict) or "label" not in entry or "snapshot" not in entry:
                raise ConfigError("each version needs `label` and `snapshot` fields")
            for key in ("label", "snapshot"):
                if not isinstance(entry[key], str):
                    raise ConfigError(f"version `{key}` must be a string")
            label = entry["label"]
            if label in seen:
                raise ConfigError(f"duplicate version label {label!r}")
            seen.add(label)
            versions.append((label, base_dir / entry["snapshot"]))
        for key in ("issues", "commits"):
            if not isinstance(obj.get(key), str):
                raise ConfigError(f"config needs a `{key}` file path")
        for key in ("exclusions", "path_rules", "output_dir"):
            if key in obj and not isinstance(obj[key], str):
                raise ConfigError(f"config `{key}` must be a file path string")
        threshold = obj.get("tractability_threshold", DEFAULT_TRACTABILITY_THRESHOLD)
        if not isinstance(threshold, int) or threshold < 1:
            raise ConfigError("tractability_threshold must be a positive integer")
        return cls(
            versions=versions,
            issues_path=base_dir / obj["issues"],
            commits_path=base_dir / obj["commits"],
            exclusions_path=base_dir / obj["exclusions"] if obj.get("exclusions") else None,
            rules_path=base_dir / obj["path_rules"] if obj.get("path_rules") else None,
            tractability_threshold=threshold,
            link_by_message=bool(obj.get("link_by_message", False)),
            output_dir=base_dir / obj.get("output_dir", "archdd-out"),
        )


@dataclass
class PairOutcome:
    """Everything computed for one successful version pair."""

    from_version: str
    to_version: str
    changes: frozenset[ArchitecturalChange]
    clean_changes: frozenset[ArchitecturalChange]
    impact: ArchitecturalImpactList
    decisions: list[Decision]
    stats: report.PairStats
    entity_overlap: tuple[int, int]


@dataclass
class PipelineResult:
    summary: report.RunSummary
    outcomes: list[PairOutcome]
    failures: list[dict]
    run_doc: dict
    written: list[Path] = field(default_factory=list)


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def _process_pair(
    snap_a: ArchitectureSnapshot,
    snap_b: ArchitectureSnapshot,
    issues,
    commits,
    rules,
    exclusions,
    threshold: int,
    link_by_message: bool,
) -> PairOutcome:
    version_pair = (snap_a.version, snap_b.version)
    changes = analyze_changes(snap_a, snap_b)
    selected = select_issues(issues, snap_b.version)
    impact = build_impact_list(
        selected,
        commits,
        rules=rules,
        exclusions=exclusions,
        version_pair=version_pair,
        link_by_message=link_by_message,
    )
    graph = build_decision_graph(impact, changes)
    decisions = find_decisions(graph, tractability_threshold=threshold)
    clean_changes = drop_external_changes(changes, exclusions)
    stats = report.build_pair_stats(
        snap_a.version, snap_b.version, changes, clean_changes, decisions
    )
    mapped: set[str] = set()
    for entities in impact.entries.values():
        mapped |= entities
    universe = entity_universe(snap_b)
    overlap = (len(mapped & universe), len(mapped))
    return PairOutcome(
        from_version=snap_a.version,
        to_version=snap_b.version,
        changes=changes,
        clean_changes=clean_changes,
        impact=impact,
        decisions=decisions,
        stats=stats,
        entity_overlap=overlap,
    )


def _pair_to_obj(outcome: PairOutcome) -> dict:
    external = sorted(
        change.id for change in outcome.changes if change not in outcome.clean_changes
    )
    return {
        "from_version": outcome.from_version,
        "to_version": outcome.to_version,
        "matching_cost": matching_cost(outcome.changes),
        "changes": [report.change_to_obj(c) for c in report.sort_changes(outcome.changes)],
        "external_change_ids": external,
        "impact": report.impact_to_obj(outcome.impact),
        "decisions": [report.decision_to_obj(d) for d in outcome.decisions],
        "entity_overlap": list(outcome.entity_overlap),
        "stats": report.stats_to_obj(outcome.stats),
    }


def run_pipeline(config: RunConfig, write: bool = True) -> PipelineResult:
    """Run the full pipeline; returns the aggregated result.

    With ``write`` enabled the structured run document plus text reports are
    written under ``config.output_dir``.
    """
    issues = load_issues(_read_text(config.issues_path, "issue export"))
    commits = load_commits(_read_text(config.commits_path, "commit log"))
    exclusions = (
        load_exclusions(_read_text(config.exclusions_path, "exclusion list"))
        if config.exclusions_path
        else []
    )
    rules = (
        load_path_rules(_read_text(config.rules_path, "path rules"))
        if config.rules_path
        else list(DEFAULT_PATH_RULES)
    )

    snapshots: dict[str, ArchitectureSnapshot | ArchddError] = {}
    for label, path in config.versions:
        try:
            snapshots[label] = parse_snapshot(_read_text(path, "snapshot"), label)
        except ArchddError as exc:
            snapshots[label] = exc

    outcomes: list[PairOutcome] = []
    failures: list[dict] = []
    for (from_label, _), (to_label, _) in zip(config.versions, config.versions[1:]):
        try:
            for label in (from_label, to_label):
                if isinstance(snapshots[label], ArchddError):
                    raise snapshots[label]
            outcomes.append(
                _process_pair(
                    snapshots[from_label],
                    snapshots[to_label],
                    issues,
                    commits,
                    rules,
                    exclusions,
                    config.tractability_threshold,
                    config.link_by_message,
                )
            )
        except ArchddError as exc:
            failures.append(_failure((from_label, to_label), exc))
    summary = report.build_run_summary([outcome.stats for outcome in outcomes])

    run_doc = {
        "schema_version": report.SCHEMA_VERSION,
        "kind": "run",
        "issue_count_convention": report.ISSUE_COUNT_CONVENTION,
        "tractability_threshold": config.tractability_threshold,
        "versions": [label for label, _ in config.versions],
        "pairs": [_pair_to_obj(outcome) for outcome in outcomes],
        "failures": failures,
        "summary": report.summary_to_obj(summary),
    }

    result = PipelineResult(
        summary=summary, outcomes=outcomes, failures=failures, run_doc=run_doc
    )
    if write:
        result.written = _write_outputs(config, result, issues)
    return result


def _failure(pair: tuple[str, str], exc: ArchddError) -> dict:
    return {"from_version": pair[0], "to_version": pair[1], "error": str(exc)}


def _write_outputs(config: RunConfig, result: PipelineResult, issues) -> list[Path]:
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    issues_by_id = {issue.id: issue for issue in issues}

    run_path = out_dir / "run.json"
    run_path.write_text(report.canonical_json(result.run_doc), encoding="utf-8")

    cards = []
    for outcome in result.outcomes:
        cards.append(f"== {outcome.from_version} -> {outcome.to_version}")
        changes_by_id = {change.id: change for change in outcome.changes}
        if not outcome.decisions:
            cards.append("(no decisions)")
        for decision in outcome.decisions:
            cards.append(report.render_decision(decision, issues_by_id, changes_by_id))
        cards.append("")
    decisions_path = out_dir / "decisions.txt"
    decisions_path.write_text("\n".join(cards), encoding="utf-8")

    sections = [
        report.render_summary_table(result.summary),
        "",
        "coverage",
        report.render_coverage_table(result.summary),
        "",
        "decision kinds",
        report.render_distribution_table(result.summary),
        "",
    ]
    if result.failures:
        sections.append("failed pairs")
        for failure in result.failures:
            sections.append(
                f"  {failure['from_version']} -> {failure['to_version']}: {failure['error']}"
            )
        sections.append("")
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(sections), encoding="utf-8")

    return [run_path, decisions_path, summary_path]

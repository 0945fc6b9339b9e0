"""End-to-end orchestration over a version sequence.

Every target version's impact list, the ``impact`` object of its pair's
``run.json`` entry without the version fields, is built once, up front.
The snapshots are streamed: each version's file is read and parsed in
order, as a diff against the last snapshot that parsed cleanly, and each
consecutive pair runs as soon as its target is parsed: analyze changes,
connect them and the impact list of the pair's target version into the
decision graph, and extract decisions. So at most the pair's two snapshots
and the diff base are held at once. A finished pair leaves behind only its
``run.json`` entry, whose ``stats`` object is its summary row, whose
``impact`` is a new dict around the list's entries and diagnostics, and
whose ``changes`` and ``decisions`` are new dicts that add the version
fields to the ones ``analyze_changes`` and ``find_decisions`` return, and
its rendered ``decisions.txt`` cards; its changes, impact list and
decisions are not kept.
A config names at least two versions. A pair fails only when one of its
snapshots cannot be read or parsed, so a bad snapshot fails both of its
pairs; each failure is reported with the first bad snapshot's error, and
the other pairs still run (strict mode turns any failure into a nonzero
exit at the CLI). An invariant violation is a bug, not bad input: it stops
the run before any output is written.

Every input file is read by ``read_input`` and every JSON file decoded by
``load_json``, whose errors name the file; a config path, printed in errors
and ``summary.txt``, is one line (``model.check_line``).
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from . import report
from .changes import analyze_changes, matching_cost
from .decisions import (
    DEFAULT_TRACTABILITY_THRESHOLD,
    build_decision_graph,
    check_threshold,
    drop_external_changes,
    find_decisions,
)
from .errors import ConfigError, InputError
from .ingestion import (
    DEFAULT_PATH_RULES,
    add_message_links,
    build_impact_lists,
    decode_json,
    load_commits,
    load_exclusions,
    load_issues,
    load_path_rules,
)
from .model import ArchitectureSnapshot, check_label, check_line, entity_universe, parse_snapshot


def _path(value, key: str) -> str:
    """A config file path: a string, without NUL (no OS path holds one), on one line."""
    if not isinstance(value, str):
        raise ConfigError(f"config `{key}` must be a file path string")
    if "\0" in value:
        raise ConfigError(f"config `{key}` must not contain a NUL character")
    return check_line(value, f"config `{key}`", ConfigError)


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
        return cls.from_obj(load_json(path, "config"), base_dir=Path(path).parent)

    @classmethod
    def from_obj(cls, obj: dict, base_dir: Path) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        raw_versions = obj.get("versions")
        if not isinstance(raw_versions, list):
            raise ConfigError("config needs a `versions` array")
        versions = []
        seen: set[str] = set()
        for entry in raw_versions:
            if not isinstance(entry, dict) or "label" not in entry or "snapshot" not in entry:
                raise ConfigError("each version needs `label` and `snapshot` fields")
            if not isinstance(entry["label"], str):
                raise ConfigError("version `label` must be a string")
            label = check_label(entry["label"], ConfigError)
            if label in seen:
                raise ConfigError(f"duplicate version label {label!r}")
            seen.add(label)
            versions.append((label, base_dir / _path(entry["snapshot"], "snapshot")))
        for key in ("issues", "commits"):
            if key not in obj:
                raise ConfigError(f"config needs a `{key}` file path")
        paths = {
            key: base_dir / _path(obj[key], key)
            for key in ("issues", "commits", "exclusions", "path_rules", "output_dir")
            if key in obj
        }
        threshold = check_threshold(
            obj.get("tractability_threshold", DEFAULT_TRACTABILITY_THRESHOLD)
        )
        link_by_message = obj.get("link_by_message", False)
        if not isinstance(link_by_message, bool):
            raise ConfigError("link_by_message must be true or false")
        if len(versions) < 2:
            raise ConfigError("config needs at least two versions")
        return cls(
            versions=versions,
            issues_path=paths["issues"],
            commits_path=paths["commits"],
            exclusions_path=paths.get("exclusions"),
            rules_path=paths.get("path_rules"),
            tractability_threshold=threshold,
            link_by_message=link_by_message,
            output_dir=paths.get("output_dir", base_dir / "archdd-out"),
        )


@dataclass
class PipelineResult:
    summary: dict  # the ``summary`` object of ``run.json``
    failures: list[dict]
    written: list[Path]


def read_input(path: str | Path | None, what: str) -> str:
    """Read a UTF-8 input file, or standard input when ``path`` is None.

    Any failure, undecodable bytes and a path the OS cannot take (a NUL
    byte) included, is an InputError naming the source. One leading BOM is dropped.
    """
    try:
        if path is None:
            return sys.stdin.buffer.read().decode("utf-8-sig")
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        source = "<stdin>" if path is None else path
        raise InputError(f"cannot read {what} {source}: {exc}") from None


def load_json(path: str | Path, what: str):
    """The JSON value of the file at ``path``; any error is an InputError naming the file."""
    return decode_json(
        read_input(path, what), lambda msg: InputError(f"invalid JSON in {what} {path}: {msg}")
    )


def load_issue_side(issues_path, commits_path, rules_path, exclusions_path, link_by_message):
    """Read issues, commits, path rules and exclusions once; apply message-key links."""
    issues = load_issues(read_input(issues_path, "issue export"))
    commits = load_commits(read_input(commits_path, "commit log"))
    if link_by_message:
        issues = add_message_links(issues, commits)
    rules, exclusions = DEFAULT_PATH_RULES, ()
    if rules_path is not None:
        rules = load_path_rules(load_json(rules_path, "path rules"))
    if exclusions_path is not None:
        exclusions = load_exclusions(read_input(exclusions_path, "exclusion list"))
    return issues, commits, rules, exclusions


def _run_pair(
    snap_a: ArchitectureSnapshot,
    snap_b: ArchitectureSnapshot,
    impact: dict,
    exclusions,
    threshold: int,
    issues_by_id: dict,
) -> tuple[dict, str]:
    """Analyze one version pair and return what it leaves behind: its
    ``run.json`` entry and its ``decisions.txt`` cards.
    """
    pair = (snap_a.version, snap_b.version)
    changes = analyze_changes(snap_a, snap_b)
    edges = build_decision_graph(impact, changes)
    decisions = find_decisions(edges, pair, tractability_threshold=threshold)
    external = drop_external_changes(changes, exclusions)
    mapped = set().union(*impact["entries"].values())
    header = {"from_version": pair[0], "to_version": pair[1]}
    entry = {
        **header,
        "matching_cost": matching_cost(changes),
        "changes": [{**header, **c} for c in changes],
        "external_change_ids": external,
        "impact": {**header, **impact},
        "decisions": [{**header, **d} for d in decisions],
        "entity_overlap": [len(mapped & entity_universe(snap_b)), len(mapped)],
        "stats": report.build_pair_stats(
            *pair, len(changes), len(changes) - len(external), decisions
        ),
    }
    changes_by_id = {change["id"]: change for change in changes}
    cards = [f"== {pair[0]} -> {pair[1]}"]
    if not decisions:
        cards.append("(no decisions)")
    for decision in decisions:
        cards.append(report.render_decision(decision, pair, issues_by_id, changes_by_id))
    cards.append("")
    return entry, "\n".join(cards)


def _read_snapshots(
    versions: list[tuple[str, Path]],
) -> Iterator[tuple[str, ArchitectureSnapshot | InputError]]:
    """Yield each version's label with its snapshot, or the error that kept
    it from being read or parsed. Each snapshot is parsed as a diff against
    the last one that parsed cleanly.
    """
    base = None
    for label, path in versions:
        try:
            snapshot = base = parse_snapshot(read_input(path, "snapshot"), label, base=base)
        except InputError as exc:
            snapshot = exc
        yield label, snapshot


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full pipeline; write the run document and text reports under
    ``config.output_dir`` and return the aggregated result.
    """
    issues, commits, rules, exclusions = load_issue_side(
        config.issues_path, config.commits_path, config.rules_path, config.exclusions_path,
        config.link_by_message,
    )
    targets = [label for label, _ in config.versions[1:]]
    impacts = build_impact_lists(issues, commits, targets, rules, exclusions)
    issues_by_id = {issue.id: issue for issue in issues}

    pairs: list[dict] = []
    cards: list[str] = []
    failures: list[dict] = []
    snapshots = _read_snapshots(config.versions)
    from_label, snap_a = next(snapshots)
    for to_label, snap_b in snapshots:
        impact = impacts.pop(to_label)
        errors = [s for s in (snap_a, snap_b) if isinstance(s, InputError)]
        if errors:
            failures.append(
                {"from_version": from_label, "to_version": to_label, "error": str(errors[0])}
            )
        else:
            entry, pair_cards = _run_pair(
                snap_a, snap_b, impact, exclusions, config.tractability_threshold, issues_by_id
            )
            pairs.append(entry)
            cards.append(pair_cards)
        from_label, snap_a = to_label, snap_b
    summary = report.build_run_summary([entry["stats"] for entry in pairs])

    document = {
        "schema_version": report.SCHEMA_VERSION,
        "kind": "run",
        "issue_count_convention": report.ISSUE_COUNT_CONVENTION,
        "tractability_threshold": config.tractability_threshold,
        "versions": [label for label, _ in config.versions],
        "pairs": pairs,
        "failures": failures,
        "summary": summary,
    }
    written = _write_outputs(config.output_dir, document, "\n".join(cards))
    return PipelineResult(summary=summary, failures=failures, written=written)


def _write_outputs(out_dir: Path, document: dict, cards: str) -> list[Path]:
    """Publish run.json, decisions.txt and summary.txt in ``out_dir``.

    A directory at any of the three paths is an error before anything is
    written. All three are written to temporary names in ``out_dir`` first,
    so a failed write leaves the previous outputs as they were. Only then
    are they renamed into place, run.json last, so a new run.json means the
    reports beside it are new too; a failed rename stops there. On any
    error the temporary files are removed.
    """
    texts = {
        "decisions.txt": cards,
        "summary.txt": report.render_summary_txt(document["summary"], document["failures"]),
        "run.json": report.canonical_json(document),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in texts:
        if (out_dir / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_dir / name))
    staged = []
    try:
        for name, text in texts.items():
            temp = out_dir / f".{name}.tmp"
            staged.append(temp)
            temp.write_text(text, encoding="utf-8")
        for temp, name in zip(staged, texts):
            os.replace(temp, out_dir / name)
    finally:
        for temp in staged:
            temp.unlink(missing_ok=True)
    return [out_dir / name for name in ("run.json", "decisions.txt", "summary.txt")]

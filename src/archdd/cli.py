"""Command-line interface.

Subcommands mirror the pipeline stages so each can be run and inspected in
isolation: analyze-changes, build-impact, extract-decisions, pipeline,
convert-log, report. Exit codes: 0 success, 1 input error, 2 internal
invariant violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__, report
from .changes import analyze_changes
from .decisions import (
    DEFAULT_TRACTABILITY_THRESHOLD,
    build_decision_graph,
    change_coverage,
    find_decisions,
)
from .errors import ArchddError, ConfigError, InputError
from .ingestion import (
    DEFAULT_PATH_RULES,
    build_impact_list,
    convert_name_status_log,
    load_commits,
    load_exclusions,
    load_issues,
    load_path_rules,
    select_issues,
    serialize_commits,
)
from .model import parse_snapshot
from .pipeline import RunConfig, run_pipeline


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def _load_json(path: str, what: str) -> dict:
    try:
        return json.loads(_read(path, what))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {what} {path}: {exc.msg}") from None


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="archdd", message="%(prog)s %(version)s")
def cli():
    """Mine architectural design decisions from a system's evolution history."""


@cli.command("analyze-changes")
@click.option("--arch-a", required=True, help="snapshot file for the older version")
@click.option("--arch-b", required=True, help="snapshot file for the newer version")
@click.option("--label-a", default=None, help="version label for --arch-a (default: file stem)")
@click.option("--label-b", default=None, help="version label for --arch-b (default: file stem)")
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]), default="text")
@click.option("--out", default=None, help="write output here instead of stdout")
def analyze_changes_cmd(arch_a, arch_b, label_a, label_b, fmt, out):
    """Match two snapshots and list the architectural changes between them."""
    label_a = label_a or Path(arch_a).stem
    label_b = label_b or Path(arch_b).stem
    snap_a = parse_snapshot(_read(arch_a, "snapshot"), label_a)
    snap_b = parse_snapshot(_read(arch_b, "snapshot"), label_b)
    changes = analyze_changes(snap_a, snap_b)
    if fmt == "structured":
        _emit(report.canonical_json(report.changes_doc((label_a, label_b), changes)), out)
        return
    lines = [f"changes {label_a} -> {label_b}: {len(changes)}"]
    for change in report.sort_changes(changes):
        lines.append(f"  {report.change_label(change)}")
        for delta in sorted(change.deltas, key=lambda d: (d.entity, d.kind.value)):
            sign = "+" if delta.kind.value == "add" else "-"
            lines.append(f"    {sign} {delta.entity}")
    _emit("\n".join(lines) + "\n", out)


@cli.command("build-impact")
@click.option("--issues", "issues_path", required=True, help="issue export (JSON Lines)")
@click.option("--commits", "commits_path", required=True, help="commit log (JSON Lines)")
@click.option("--version", "version", required=True, help="target version label")
@click.option("--rules", "rules_path", default=None, help="path-rule config (JSON)")
@click.option("--exclusions", "exclusions_path", default=None, help="namespace exclusion list")
@click.option("--link-by-message", is_flag=True, help="also attach commits whose messages cite the issue key")
@click.option("--out", default=None)
def build_impact_cmd(issues_path, commits_path, version, rules_path, exclusions_path, link_by_message, out):
    """Build the architectural impact list for one version."""
    issues = load_issues(_read(issues_path, "issue export"))
    commits = load_commits(_read(commits_path, "commit log"))
    rules = (
        load_path_rules(_read(rules_path, "path rules"))
        if rules_path
        else list(DEFAULT_PATH_RULES)
    )
    exclusions = (
        load_exclusions(_read(exclusions_path, "exclusion list")) if exclusions_path else []
    )
    impact = build_impact_list(
        select_issues(issues, version),
        commits,
        rules=rules,
        exclusions=exclusions,
        version_pair=(None, version),
        link_by_message=link_by_message,
    )
    _emit(report.canonical_json(report.impact_doc(impact)), out)


@cli.command("extract-decisions")
@click.option("--changes", "changes_path", required=True, help="structured changes document")
@click.option("--impact", "impact_path", required=True, help="impact document")
@click.option(
    "--tractability-threshold",
    type=int,
    default=DEFAULT_TRACTABILITY_THRESHOLD,
    show_default=True,
    help="max changes a decision may carry and still count as tractable",
)
@click.option("--out", default=None)
def extract_decisions_cmd(changes_path, impact_path, tractability_threshold, out):
    """Connect issues to changes and extract classified decisions."""
    if tractability_threshold < 1:
        raise ConfigError("tractability threshold must be positive")
    version_pair, changes = report.parse_changes_doc(
        _load_json(changes_path, "changes document")
    )
    impact = report.parse_impact_doc(_load_json(impact_path, "impact document"))
    graph = build_decision_graph(impact, changes)
    decisions = find_decisions(graph, tractability_threshold=tractability_threshold)
    coverage = change_coverage(changes, decisions)
    _emit(report.canonical_json(report.decisions_doc(version_pair, decisions, coverage)), out)


@cli.command("pipeline")
@click.option("--config", "config_path", required=True, help="run configuration (JSON)")
@click.option("--strict", is_flag=True, help="nonzero exit when any version pair fails")
def pipeline_cmd(config_path, strict):
    """Run the full pipeline over a version sequence."""
    config = RunConfig.from_file(config_path)
    result = run_pipeline(config)
    click.echo(report.render_summary_table(result.summary))
    for failure in result.failures:
        click.echo(
            f"pair {failure['from_version']} -> {failure['to_version']} failed: "
            f"{failure['error']}",
            err=True,
        )
    for path in result.written:
        click.echo(f"wrote {path}", err=True)
    if strict and result.failures:
        raise InputError(f"{len(result.failures)} version pair(s) failed")


@cli.command("convert-log")
@click.option("--in", "in_path", default=None, help="raw name-status log (default: stdin)")
@click.option("--out", default=None, help="commit log output (default: stdout)")
def convert_log_cmd(in_path, out):
    """Convert raw name-status VCS log text to the commit-log format."""
    text = _read(in_path, "raw log") if in_path else sys.stdin.read()
    _emit(serialize_commits(convert_name_status_log(text)), out)


@cli.command("report")
@click.option("--in", "in_path", required=True, help="structured run document")
@click.option(
    "--out",
    "which",
    required=True,
    type=click.Choice(["summary", "distribution", "coverage"]),
    help="which report to print",
)
def report_cmd(in_path, which):
    """Print a summary, kind-distribution, or coverage table from a run document."""
    summary = report.parse_run_summary(_load_json(in_path, "run document"))
    if which == "summary":
        click.echo(report.render_summary_table(summary))
    elif which == "coverage":
        click.echo(report.render_coverage_table(summary))
    else:
        click.echo(report.render_distribution_table(summary))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.ClickException as exc:
        exc.show()
        return 1
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except ArchddError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

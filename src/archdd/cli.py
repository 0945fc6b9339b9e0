"""Command-line interface.

Subcommands mirror the pipeline stages so each can be run and inspected in
isolation: analyze-changes, build-impact, extract-decisions, pipeline,
convert-log, report. Exit codes: 0 success, 1 input error, 2 internal
invariant violation, 130 interrupted.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__, decisions, report
from .changes import analyze_changes
from .errors import ArchddError, InputError
from .ingestion import build_impact_lists, convert_name_status_log, serialize_commits
from .model import check_label, check_line, parse_snapshot
from .pipeline import RunConfig, load_issue_side, load_json, read_input, run_pipeline


def _path_option(*decls, **kwargs):
    """An option naming a file, by one non-empty line: an empty path names no
    file, and does not stand for the option's default either."""
    def check(ctx, param, value: str | None) -> str | None:
        return value if value is None else check_line(value, param.opts[0], InputError)

    return click.option(*decls, callback=check, **kwargs)


def _emit(text: str, out: str | None):
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="archdd", message="%(prog)s %(version)s")
def cli():
    """Mine architectural design decisions from a system's evolution history."""


@cli.command("analyze-changes")
@_path_option("--arch-a", required=True, help="snapshot file for the older version")
@_path_option("--arch-b", required=True, help="snapshot file for the newer version")
@click.option("--label-a", default=None, help="version label for --arch-a (default: file stem)")
@click.option("--label-b", default=None, help="version label for --arch-b (default: file stem)")
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]), default="text")
@_path_option("--out", default=None, help="write output here instead of stdout")
def analyze_changes_cmd(arch_a, arch_b, label_a, label_b, fmt, out):
    """Match two snapshots and list the architectural changes between them."""
    label_a = check_label(Path(arch_a).stem if label_a is None else label_a, InputError)
    label_b = check_label(Path(arch_b).stem if label_b is None else label_b, InputError)
    snap_a = parse_snapshot(read_input(arch_a, "snapshot"), label_a)
    snap_b = parse_snapshot(read_input(arch_b, "snapshot"), label_b, base=snap_a)
    changes = analyze_changes(snap_a, snap_b)
    if fmt == "structured":
        _emit(report.canonical_json(report.changes_doc((label_a, label_b), changes)), out)
        return
    lines = [f"changes {label_a} -> {label_b}: {len(changes)}"]
    for change in changes:
        lines.append(f"  {report.change_label(change)}")
        for delta in change["deltas"]:
            sign = "+" if delta["op"] == "add" else "-"
            lines.append(f"    {sign} {delta['entity']}")
    _emit("\n".join(lines) + "\n", out)


@cli.command("build-impact")
@_path_option("--issues", "issues_path", required=True, help="issue export (JSON Lines)")
@_path_option("--commits", "commits_path", required=True, help="commit log (JSON Lines)")
@click.option("--version", "version", required=True, help="target version label")
@_path_option("--rules", "rules_path", default=None, help="path-rule config (JSON)")
@_path_option("--exclusions", "exclusions_path", default=None, help="namespace exclusion list")
@click.option("--link-by-message", is_flag=True, help="also attach commits whose messages cite the issue key")
@_path_option("--out", default=None)
def build_impact_cmd(issues_path, commits_path, version, rules_path, exclusions_path, link_by_message, out):
    """Build the architectural impact list for one version."""
    version = check_label(version, InputError)
    issues, commits, rules, exclusions = load_issue_side(
        issues_path, commits_path, rules_path, exclusions_path, link_by_message
    )
    impact = build_impact_lists(issues, commits, [version], rules, exclusions)[version]
    _emit(report.canonical_json(report.impact_doc((None, version), impact)), out)


@cli.command("extract-decisions")
@_path_option("--changes", "changes_path", required=True, help="structured changes document")
@_path_option("--impact", "impact_path", required=True, help="impact document")
@click.option(
    "--tractability-threshold",
    type=int,
    default=decisions.DEFAULT_TRACTABILITY_THRESHOLD,
    show_default=True,
    help="max changes a decision may carry and still count as tractable",
)
@_path_option("--out", default=None)
def extract_decisions_cmd(changes_path, impact_path, tractability_threshold, out):
    """Connect issues to changes and extract classified decisions."""
    decisions.check_threshold(tractability_threshold)
    version_pair, changes = report.parse_changes_doc(load_json(changes_path, "changes document"))
    impact_pair, impact = report.parse_impact_doc(load_json(impact_path, "impact document"))
    if impact_pair[1] != version_pair[1]:
        raise InputError(
            f"impact list is for version {impact_pair[1]!r} but changes target {version_pair[1]!r}"
        )
    edges = decisions.build_decision_graph(impact, changes)
    found = decisions.find_decisions(edges, version_pair, tractability_threshold)
    stats = report.build_pair_stats(*version_pair, len(changes), len(changes), found)
    doc = report.decisions_doc(version_pair, found, stats["coverage_before_cleanup"])
    _emit(report.canonical_json(doc), out)


@cli.command("pipeline")
@_path_option("--config", "config_path", required=True, help="run configuration (JSON)")
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
@_path_option("--in", "in_path", default=None, help="raw name-status log (default: stdin)")
@_path_option("--out", default=None, help="commit log output (default: stdout)")
def convert_log_cmd(in_path, out):
    """Convert raw name-status VCS log text to the commit-log format."""
    text = read_input(in_path, "raw log")
    _emit(serialize_commits(convert_name_status_log(text)), out)


@cli.command("report")
@_path_option("--in", "in_path", required=True, help="structured run document")
@click.option(
    "--out",
    "which",
    required=True,
    type=click.Choice(list(report.SECTIONS)),
    help="which report to print",
)
def report_cmd(in_path, which):
    """Print one table of summary.txt, rebuilt from a run document."""
    summary = report.parse_run_summary(load_json(in_path, "run document"))
    _, render = report.SECTIONS[which]
    click.echo(render(summary))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.ClickException as exc:
        exc.show()
        return 1
    except (InputError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except ArchddError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

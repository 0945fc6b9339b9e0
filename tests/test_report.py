import json
from fractions import Fraction

from archdd.changes import analyze_changes
from archdd.decisions import Decision, DecisionKind, decision_id
from archdd.ingestion import ArchitecturalImpactList, ImpactDiagnostics, IssueRecord
from archdd.report import (
    PairStats,
    build_pair_stats,
    build_run_summary,
    canonical_json,
    changes_doc,
    decision_to_obj,
    decisions_doc,
    impact_doc,
    parse_changes_doc,
    parse_impact_doc,
    render_coverage_table,
    render_decision,
    render_distribution_table,
    render_summary_table,
    stats_from_obj,
    stats_to_obj,
    summary_from_obj,
    summary_to_obj,
)

from conftest import snap


def decision(issues, changes, kind, tractable=True, pair=("v1", "v2")):
    issue_ids = frozenset(issues)
    change_ids = frozenset(changes)
    return Decision(
        id=decision_id(issue_ids, change_ids, pair),
        issue_ids=issue_ids,
        change_ids=change_ids,
        kind=kind,
        version_pair=pair,
        tractable=tractable,
    )


def sample_changes():
    snap_a = snap("v1", {"core": "a b", "io": "c"})
    snap_b = snap("v2", {"core": "a b x", "io": "c", "ui": "z"})
    return analyze_changes(snap_a, snap_b)


def test_changes_doc_round_trip():
    changes = sample_changes()
    doc = changes_doc(("v1", "v2"), changes)
    text = canonical_json(doc)
    pair, parsed = parse_changes_doc(json.loads(text))
    assert pair == ("v1", "v2")
    assert parsed == changes
    assert canonical_json(changes_doc(pair, parsed)) == text


def test_impact_doc_round_trip():
    impact = ArchitecturalImpactList(
        version_pair=(None, "v2"),
        entries={"A-1": frozenset({"x", "y"}), "A-2": frozenset()},
        diagnostics=ImpactDiagnostics(
            orphaned_commit_refs=[("A-1", "ghost")],
            skipped_paths=["docs/readme.md"],
            excluded_entity_count=3,
        ),
    )
    text = canonical_json(impact_doc(impact))
    parsed = parse_impact_doc(json.loads(text))
    assert parsed.entries == impact.entries
    assert parsed.version_pair == impact.version_pair
    assert parsed.diagnostics.orphaned_commit_refs == [("A-1", "ghost")]
    assert canonical_json(impact_doc(parsed)) == text


def test_decisions_doc_round_trip():
    decisions = [
        decision({"i1"}, {"c1"}, DecisionKind.SIMPLE),
        decision({"i1", "i2"}, {"c1", "c2"}, DecisionKind.CROSSCUTTING, tractable=False),
    ]
    doc = decisions_doc(("v1", "v2"), decisions, Fraction(2, 3))
    assert json.loads(canonical_json(doc)) == doc
    assert doc["decisions"] == [decision_to_obj(d) for d in decisions]
    assert doc["decisions"][1]["issue_ids"] == ["i1", "i2"]
    assert doc["decisions"][1]["tractable"] is False
    assert doc["coverage"] == [2, 3]


def test_render_decision_text():
    issues = {
        "i1": IssueRecord(id="i1", summary="first summary"),
        "i2": IssueRecord(id="i2", summary="second summary"),
    }
    changes = {c.id: c for c in sample_changes()}
    ids = sorted(changes)
    simple = decision({"i1"}, {ids[0]}, DecisionKind.SIMPLE)
    card = render_decision(simple, issues, changes)
    assert card.splitlines()[0].startswith("[simple]")
    assert "issue i1: first summary" in card
    assert "entities)" in card

    compound = decision({"i1", "i2"}, {ids[0]}, DecisionKind.COMPOUND)
    card = render_decision(compound, issues, changes)
    assert card.count("issue ") == 2
    assert card.count("change ") == 1

    crosscutting = decision({"i1", "i2"}, set(ids), DecisionKind.CROSSCUTTING)
    card = render_decision(crosscutting, issues, changes)
    assert card.count("change ") == len(ids)


def distribution_summary(*pairs):
    """A run summary whose pairs hold the given {version_pair: decisions}."""
    return build_run_summary(
        [build_pair_stats(a, b, frozenset(), frozenset(), ds) for (a, b), ds in pairs]
    )


def test_emit_distribution_proportions():
    decisions = [
        decision({"i1"}, {"c1"}, DecisionKind.SIMPLE),
        decision({"i2"}, {"c2"}, DecisionKind.SIMPLE),
        decision({"i3"}, {"c3", "c4"}, DecisionKind.CROSSCUTTING),
    ]
    later = [decision({"i4"}, {"c5"}, DecisionKind.SIMPLE, pair=("v3", "v4"))]
    summary = distribution_summary(
        (("v3", "v4"), later), (("v1", "v2"), decisions), (("v2", "v3"), [])
    )
    rows = [line.split() for line in render_distribution_table(summary).splitlines()[1:]]
    # pairs without decisions are left out; the rest sort by scope, then overall
    assert [row[0] for row in rows] == ["v1", "v3", "overall"]
    assert rows[0][3:] == ["2", "(0.67)", "0", "(0.00)", "1", "(0.33)"]
    assert rows[1][3:] == ["1", "(1.00)", "0", "(0.00)", "0", "(0.00)"]
    assert rows[2][1:] == ["3", "(0.75)", "0", "(0.00)", "1", "(0.25)"]


def test_emit_distribution_empty():
    table = render_distribution_table(distribution_summary((("v1", "v2"), [])))
    header, *rows = table.splitlines()
    assert header.split() == ["scope", "simple", "compound", "crosscutting"]
    assert rows == ["overall  0 (0.00)  0 (0.00)      0 (0.00)"]


def test_pair_stats_identities():
    changes = sample_changes()
    ids = sorted(c.id for c in changes)
    decisions = [
        decision({"i1"}, {ids[0]}, DecisionKind.SIMPLE),
        decision({"i2", "i3"}, {ids[1]}, DecisionKind.COMPOUND),
    ]
    stats = build_pair_stats("v1", "v2", changes, changes, decisions)
    assert stats.decision_count == 2
    assert stats.avg_issues_per_decision * stats.decision_count == stats.issue_links
    assert stats.avg_changes_per_decision * stats.decision_count == stats.change_links
    assert sum(stats.kind_distribution.values()) == stats.decision_count
    assert stats.avg_issues_per_decision == Fraction(3, 2)  # exact, not a float


def test_pair_stats_empty_scope():
    stats = build_pair_stats("v1", "v2", frozenset(), frozenset(), [])
    assert stats.avg_issues_per_decision is None
    assert stats.coverage_before_cleanup == Fraction(1)  # 0/0 convention
    assert stats.coverage_after_cleanup == Fraction(1)


def test_summary_round_trip_and_tables():
    changes = sample_changes()
    ids = sorted(c.id for c in changes)
    decisions = [decision({"i1"}, {ids[0]}, DecisionKind.SIMPLE)]
    pair_stats = build_pair_stats("v1", "v2", changes, changes, decisions)
    summary = build_run_summary([pair_stats])
    obj = summary_to_obj(summary)
    again = summary_from_obj(obj)
    assert summary_to_obj(again) == obj
    assert stats_from_obj(stats_to_obj(pair_stats)) == pair_stats

    table = render_summary_table(summary)
    assert "overall" in table and "v1 -> v2" in table
    assert render_coverage_table(summary).count("\n") >= 2
    assert "simple" in render_distribution_table(summary)

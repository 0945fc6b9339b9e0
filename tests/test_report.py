import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archdd import report
from archdd.changes import analyze_changes, change_id
from archdd.decisions import classify, decision_id
from archdd.ingestion import IssueRecord
from archdd.report import (
    SCHEMA_VERSION,
    build_pair_stats,
    build_run_summary,
    canonical_json,
    changes_doc,
    decisions_doc,
    impact_doc,
    parse_changes_doc,
    parse_impact_doc,
    parse_run_summary,
    render_coverage_table,
    render_decision,
    render_distribution_table,
    render_summary_table,
)

from conftest import snap


def decision(issues, changes, kind, tractable=True, pair=("v1", "v2")):
    """A decision as ``find_decisions`` returns it for ``pair``."""
    made = {
        "id": decision_id(issues, changes, pair),
        "kind": classify(len(issues), len(changes)),
        "issue_ids": sorted(issues),
        "change_ids": sorted(changes),
        "tractable": tractable,
    }
    assert made["kind"] == kind  # the kind follows from the counts
    return made


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


def test_changes_doc_reader_sorts_and_deduplicates():
    changes = sample_changes()
    assert len(changes) > 1
    doc = json.loads(canonical_json(changes_doc(("v1", "v2"), changes)))
    doc["changes"].reverse()
    doc["changes"][0]["deltas"] = [*reversed(doc["changes"][0]["deltas"])] * 2
    assert parse_changes_doc(doc) == (("v1", "v2"), changes)


def test_impact_doc_round_trip():
    impact = {
        "entries": {"A-1": ["x", "y"], "A-2": []},
        "diagnostics": {
            "orphaned_commit_refs": [{"issue": "A-1", "commit": "ghost"}],
            "skipped_paths": ["docs/readme.md"],
            "excluded_entity_count": 3,
        },
    }
    text = canonical_json(impact_doc((None, "v2"), impact))
    pair, parsed = parse_impact_doc(json.loads(text))
    assert pair == (None, "v2")
    assert parsed["entries"] == impact["entries"]
    assert parsed["diagnostics"]["orphaned_commit_refs"] == [{"issue": "A-1", "commit": "ghost"}]
    assert canonical_json(impact_doc(*parse_impact_doc(json.loads(text)))) == text
    assert parsed == impact  # the reader returns the shape build_impact_lists does
    # Entity lists come back de-duplicated and sorted, refs and paths sorted,
    # so writing a parsed document gives its canonical bytes.
    unordered = dict(
        json.loads(text),
        entries={"A-2": [], "A-1": ["y", "x", "y"]},
        diagnostics={
            "orphaned_commit_refs": [
                {"issue": "A-2", "commit": "c"}, {"issue": "A-1", "commit": "ghost"},
            ],
            "skipped_paths": ["z.md", "docs/readme.md"],
            "excluded_entity_count": 3,
        },
    )
    pair, parsed = parse_impact_doc(unordered)
    assert parsed["entries"] == impact["entries"]
    assert parsed["diagnostics"] == {
        "orphaned_commit_refs": [
            {"issue": "A-1", "commit": "ghost"}, {"issue": "A-2", "commit": "c"},
        ],
        "skipped_paths": ["docs/readme.md", "z.md"],
        "excluded_entity_count": 3,
    }


def test_decisions_doc_round_trip():
    decisions = [
        decision({"i1"}, {"c1"}, "simple"),
        decision({"i1", "i2"}, {"c1", "c2"}, "crosscutting", tractable=False),
    ]
    doc = decisions_doc(("v1", "v2"), decisions, [2, 3])
    assert json.loads(canonical_json(doc)) == doc
    assert doc["decisions"] == [{"from_version": "v1", "to_version": "v2", **d} for d in decisions]
    assert doc["decisions"][1]["issue_ids"] == ["i1", "i2"]
    assert doc["decisions"][1]["tractable"] is False
    assert doc["coverage"] == [2, 3]


# Characters JSON escapes or passes through: quote, backslash, control
# characters, U+2028, non-ASCII and a non-BMP character.
SPECIAL_CHARACTERS = ('"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "é", "\U0001f600")
JSON_TEXT = st.text(st.one_of(st.sampled_from(SPECIAL_CHARACTERS), st.characters()), max_size=8)
JSON_SCALARS = st.one_of(
    JSON_TEXT,
    st.integers(),
    st.integers(min_value=2**64),
    st.booleans(),
    st.none(),
    st.floats(),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(JSON_TEXT, max_size=4),
        st.dictionaries(JSON_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(tree=JSON_TREES)
def test_canonical_json_equals_indented_json_dumps(tree):
    expected = json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(tree) == expected


@pytest.mark.parametrize("value", [{1, 2}, {"a": ["b", frozenset()]}, ["a", object()], (b"x",)])
def test_canonical_json_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        canonical_json(value)


def test_render_decision_text():
    issues = {
        "i1": IssueRecord(id="i1", summary="first summary"),
        "i2": IssueRecord(id="i2", summary="second summary"),
    }
    changes = {c["id"]: c for c in sample_changes()}
    ids = sorted(changes)
    simple = decision({"i1"}, {ids[0]}, "simple")
    card = render_decision(simple, ("v1", "v2"), issues, changes)
    assert card.splitlines()[0].startswith("[simple]")
    assert "issue i1: first summary" in card
    assert "entities)" in card

    compound = decision({"i1", "i2"}, {ids[0]}, "compound")
    card = render_decision(compound, ("v1", "v2"), issues, changes)
    assert card.count("issue ") == 2
    assert card.count("change ") == 1

    crosscutting = decision({"i1", "i2"}, set(ids), "crosscutting")
    card = render_decision(crosscutting, ("v1", "v2"), issues, changes)
    assert card.count("change ") == len(ids)


def distribution_summary(*pairs):
    """A run summary whose pairs hold the given {version_pair: decisions},
    each pair's changes being the ones its decisions cover."""
    rows = []
    for (a, b), ds in pairs:
        change_count = sum(len(d["change_ids"]) for d in ds)
        rows.append(build_pair_stats(a, b, change_count, change_count, ds))
    return build_run_summary(rows)


def test_emit_distribution_proportions():
    decisions = [
        decision({"i1"}, {"c1"}, "simple"),
        decision({"i2"}, {"c2"}, "simple"),
        decision({"i3"}, {"c3", "c4"}, "crosscutting"),
    ]
    later = [decision({"i4"}, {"c5"}, "simple", pair=("v3", "v4"))]
    summary = distribution_summary(
        (("v3", "v4"), later), (("v1", "v2"), decisions), (("v2", "v3"), [])
    )
    rows = [line.split() for line in render_distribution_table(summary).splitlines()[1:]]
    # pairs without decisions are left out; the rest keep document order, then overall
    assert [row[0] for row in rows] == ["v3", "v1", "overall"]
    assert rows[0][3:] == ["1", "(1.00)", "0", "(0.00)", "0", "(0.00)"]
    assert rows[1][3:] == ["2", "(0.67)", "0", "(0.00)", "1", "(0.33)"]
    assert rows[2][1:] == ["3", "(0.75)", "0", "(0.00)", "1", "(0.25)"]


def test_emit_distribution_empty():
    table = render_distribution_table(distribution_summary((("v1", "v2"), [])))
    header, *rows = table.splitlines()
    assert header.split() == ["scope", "simple", "compound", "crosscutting"]
    assert rows == ["overall  0 (0.00)  0 (0.00)      0 (0.00)"]


def test_pair_stats_identities():
    changes = sample_changes()
    ids = sorted(c["id"] for c in changes)
    decisions = [
        decision({"i1"}, {ids[0]}, "simple"),
        decision({"i2", "i3"}, {ids[1]}, "compound"),
    ]
    stats = build_pair_stats("v1", "v2", len(changes), len(changes), decisions)
    assert stats["decision_count"] == 2
    avg_issues = Fraction(*stats["avg_issues_per_decision"])
    avg_changes = Fraction(*stats["avg_changes_per_decision"])
    assert avg_issues * stats["decision_count"] == stats["issue_links"]
    assert avg_changes * stats["decision_count"] == stats["change_links"]
    assert sum(stats["kind_distribution"].values()) == stats["decision_count"]
    assert avg_issues == Fraction(3, 2)  # exact, not a float
    # decisions are disjoint, so each issue and change link is a distinct one
    assert stats["issues_in_decisions"] == stats["issue_links"] == 3
    assert stats["covered_change_count"] == stats["change_links"] == 2


def test_pair_stats_empty_scope():
    stats = build_pair_stats("v1", "v2", 0, 0, [])
    assert stats["avg_issues_per_decision"] is None
    assert Fraction(*stats["coverage_before_cleanup"]) == Fraction(1)  # 0/0 convention
    assert Fraction(*stats["coverage_after_cleanup"]) == Fraction(1)


def test_summary_round_trip_and_tables():
    changes = sample_changes()
    ids = sorted(c["id"] for c in changes)
    decisions = [decision({"i1"}, {ids[0]}, "simple")]
    pair_stats = build_pair_stats("v1", "v2", len(changes), len(changes), decisions)
    summary = build_run_summary([pair_stats])
    obj = json.loads(canonical_json(summary))
    again = parse_run_summary({"schema_version": SCHEMA_VERSION, "kind": "run", "summary": obj})
    assert again == obj
    assert again["pairs"] == [pair_stats]

    table = render_summary_table(summary)
    assert "overall" in table and "v1 -> v2" in table
    assert render_coverage_table(summary).count("\n") >= 2
    assert "simple" in render_distribution_table(summary)


def test_change_label_names_both_components_of_a_renamed_match():
    change = {
        "id": change_id("a", "b", ["x"], ["y"], ("v1", "v2")),
        "kind": "modified",
        "source_component": "a",
        "target_component": "b",
        "deltas": [{"op": "remove", "entity": "x"}, {"op": "add", "entity": "y"}],
    }
    assert report.change_label(change) == "a -> b modified (+1/-1 entities)"

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archdd.decisions import (
    DEFAULT_TRACTABILITY_THRESHOLD,
    KINDS,
    build_decision_graph,
    classify,
    decision_id,
    drop_external_changes,
    find_decisions,
)
from archdd.errors import InvariantViolation
from archdd.changes import analyze_changes
from archdd.changes import change_deltas, change_id, change_kind
from archdd.report import build_pair_stats

from conftest import random_snapshot


PAIR = ("v1", "v2")


def chg(component, entities, kind="modified"):
    """A change of ``component`` as ``analyze_changes`` returns it: a removal
    of ``entities`` when ``kind`` is ``"removed"``, else an addition of them."""
    source = None if kind == "added" else component
    target = None if kind == "removed" else component
    removed, added = (entities, []) if kind == "removed" else ([], entities)
    return {
        "id": change_id(source, target, removed, added, PAIR),
        "kind": change_kind(source, target),
        "source_component": source,
        "target_component": target,
        "deltas": change_deltas(set(removed), set(added)),
    }


def impact(entries):
    """An impact list as ``build_impact_lists`` returns it: sorted entity lists per issue."""
    return {"entries": {k: sorted(set(v)) for k, v in entries.items()}}


def test_build_decision_graph_edge_rule():
    c1 = chg("core", ["e1"])
    c2 = chg("io", ["e2"])
    imp = impact({"i1": ["e1"], "i2": ["e9"], "i3": ["e1", "e2"]})
    edges = build_decision_graph(imp, [c1, c2])
    assert edges == {("i1", c1["id"]), ("i3", c1["id"]), ("i3", c2["id"])}
    # i2 touched no changed entity: an orphan, so no decision names it
    assert all("i2" not in d["issue_ids"] for d in find_decisions(edges, PAIR))


def dense_edges(impact_list, changes):
    """Reference edge rule: test every issue against every change."""
    return {
        (issue_id, change["id"])
        for issue_id, entities in impact_list["entries"].items()
        for change in changes
        if {delta["entity"] for delta in change["deltas"]}.intersection(entities)
    }


def test_build_decision_graph_equals_dense_scan():
    rng = random.Random(2718)
    pool = [f"e{i:02d}" for i in range(40)]
    probe = pool + ["outside.x", "outside.y"]
    total_edges = 0
    for _ in range(60):
        snap_a = random_snapshot(rng, "v1", pool, max_components=8)
        snap_b = random_snapshot(rng, "v2", pool, max_components=8)
        changes = analyze_changes(snap_a, snap_b)
        entries = {
            f"i{k:02d}": rng.sample(probe, rng.randint(0, 6)) for k in range(rng.randint(0, 12))
        }
        imp = impact(entries)
        edges = build_decision_graph(imp, changes)
        assert edges == dense_edges(imp, changes)
        assert {i for i, _ in edges} <= set(entries)
        assert {c for _, c in edges} <= {c["id"] for c in changes}
        total_edges += len(edges)
    assert total_edges > 100


def test_find_decisions_simple():
    decisions = find_decisions(frozenset({("i1", "c1")}), PAIR)
    assert len(decisions) == 1
    assert decisions[0]["kind"] == "simple"
    assert decisions[0]["issue_ids"] == ["i1"] and decisions[0]["change_ids"] == ["c1"]


def test_find_decisions_compound():
    decisions = find_decisions(frozenset({("i1", "c1"), ("i2", "c1")}), PAIR)
    assert [d["kind"] for d in decisions] == ["compound"]


def test_find_decisions_crosscutting_and_orphans():
    c1, c2, c3 = chg("a", ["e1"]), chg("b", ["e2"]), chg("c", ["e3"])
    imp = impact({"i1": ["e1", "e2"], "i2": ["e2"], "i3": ["e9"]})  # i3 and c3 are orphans
    decisions = find_decisions(build_decision_graph(imp, [c1, c2, c3]), PAIR)
    assert len(decisions) == 1
    decision = decisions[0]
    assert decision["kind"] == "crosscutting"
    assert decision["issue_ids"] == ["i1", "i2"]
    assert decision["change_ids"] == sorted([c1["id"], c2["id"]])


def test_find_decisions_ordering_and_no_empty_sides():
    decisions = find_decisions(frozenset({("i9", "c1"), ("i2", "c2"), ("i5", "c3")}), PAIR)
    assert [min(d["issue_ids"]) for d in decisions] == ["i2", "i5", "i9"]
    for decision in decisions:
        assert decision["issue_ids"] and decision["change_ids"]


def test_classify_table():
    assert classify(1, 1) == "simple"
    assert classify(3, 1) == "compound"
    assert classify(1, 2) == "crosscutting"
    assert classify(4, 7) == "crosscutting"
    with pytest.raises(InvariantViolation):
        classify(0, 1)
    with pytest.raises(InvariantViolation):
        classify(1, 0)


def test_classification_exhaustive_and_exclusive():
    for issues in range(1, 6):
        for changes in range(1, 6):
            kind = classify(issues, changes)
            simple = issues == 1 and changes == 1
            compound = issues >= 2 and changes == 1
            crosscutting = changes >= 2
            assert [simple, compound, crosscutting].count(True) == 1
            assert kind == {
                (True, False, False): "simple",
                (False, True, False): "compound",
                (False, False, True): "crosscutting",
            }[(simple, compound, crosscutting)]
            assert kind in KINDS


def decision(issue_ids, change_ids, tractable=True, id="d:x"):
    """A decision as ``find_decisions`` returns it; its kind follows from the counts."""
    return {
        "id": id,
        "kind": classify(len(issue_ids), len(change_ids)),
        "issue_ids": sorted(issue_ids),
        "change_ids": sorted(change_ids),
        "tractable": tractable,
    }


def test_decision_kind_follows_counts_and_sides_are_non_empty():
    assert decision({"i1"}, {"c1"})["kind"] == "simple"
    assert decision({"i1", "i2"}, {"c1"})["kind"] == "compound"
    assert decision({"i1"}, {"c1", "c2"})["kind"] == "crosscutting"
    with pytest.raises(InvariantViolation):
        decision(set(), {"c1"})
    with pytest.raises(InvariantViolation):
        decision({"i1"}, set())
    # find_decisions gives the same dict for the same sets.
    [found] = find_decisions(frozenset({("i1", "c1"), ("i2", "c1")}), PAIR)
    assert found == decision({"i1", "i2"}, {"c1"}, id=decision_id({"i1", "i2"}, {"c1"}, PAIR))


def coverage(changes, decisions):
    stats = build_pair_stats("v1", "v2", changes, len(changes), decisions)
    return Fraction(*stats["coverage_before_cleanup"])


def test_change_coverage_examples():
    changes = [chg(f"comp{i}", [f"e{i}"]) for i in range(10)]
    ordered = sorted(changes, key=lambda c: c["id"])
    covered = ordered[:2]
    decisions = [decision({"i1"}, {c["id"] for c in covered}, id="d:1")]
    assert coverage(changes, decisions) == Fraction(1, 5)  # 0.20
    all_ids = frozenset(c["id"] for c in changes)
    full = [decision({"i1"}, all_ids, tractable=False, id="d:2")]
    assert coverage(changes, full) == Fraction(1)
    assert coverage([], []) == Fraction(1)


def test_change_coverage_after_cleanup_fixture():
    # 10 changes, 3 third-party-only; 2 of the internal ones covered
    internal = [chg(f"comp{i}", [f"app.mod{i}.C"]) for i in range(7)]
    external = [chg(f"ext{i}", [f"ext.lib{i}.C"]) for i in range(3)]
    changes = internal + external
    dropped = drop_external_changes(changes, ["ext.lib0", "ext.lib1", "ext.lib2"])
    assert dropped == sorted(c["id"] for c in external)
    decisions = [decision({"i1"}, {c["id"] for c in internal[:2]}, id="d:3")]
    stats = build_pair_stats("v1", "v2", changes, len(changes) - len(dropped), decisions)
    assert Fraction(*stats["coverage_before_cleanup"]) == Fraction(2, 10)
    assert Fraction(*stats["coverage_after_cleanup"]) == Fraction(2, 7)


def test_drop_external_changes_requires_all_entities_excluded():
    mixed = chg("core", ["app.X", "ext.lib.Y"])
    pure_external = chg("ext", ["ext.lib.Y"])
    assert drop_external_changes([mixed, pure_external], ["ext.lib"]) == [pure_external["id"]]
    assert drop_external_changes([mixed], ["ext.lib", "app"]) == [mixed["id"]]
    assert drop_external_changes([mixed, pure_external], []) == []


def reachability_partition(edges, issues, changes):
    """Independent oracle: fixpoint closure over the edge list, no union-find."""
    nodes = {("i", i) for i in issues} | {("c", c) for c in changes}
    neighbours = {node: set() for node in nodes}
    for i, c in edges:
        neighbours[("i", i)].add(("c", c))
        neighbours[("c", c)].add(("i", i))
    remaining = {node for node in nodes if neighbours[node]}
    parts = set()
    while remaining:
        component = {next(iter(remaining))}
        while True:
            expanded = set(component)
            for node in component:
                expanded |= neighbours[node]
            if expanded == component:
                break
            component = expanded
        parts.add(frozenset(component))
        remaining -= component
    return parts


def test_connected_components_match_reachability_oracle():
    rng = random.Random(4242)
    for _ in range(100):
        n_issues = rng.randint(0, 14)
        n_changes = rng.randint(0, 14)
        issues = [f"i{k:02d}" for k in range(n_issues)]
        changes = [f"c{k:02d}" for k in range(n_changes)]
        edges = {
            (i, c)
            for i in issues
            for c in changes
            if rng.random() < 0.12
        }
        decisions = find_decisions(frozenset(edges), PAIR)
        got = {
            frozenset({("i", i) for i in d["issue_ids"]} | {("c", c) for c in d["change_ids"]})
            for d in decisions
        }
        assert got == reachability_partition(edges, issues, changes)


def union_find_decisions(
    edges, version_pair, tractability_threshold=DEFAULT_TRACTABILITY_THRESHOLD
):
    """Reference: the union-find ``find_decisions`` that set growth replaced.

    Issues and changes are kept apart by ``("i", id)`` and ``("c", id)``
    tags, and the components are grouped by root and then sorted.
    """
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for issue_id, change_id_ in edges:
        parent.setdefault(("i", issue_id), ("i", issue_id))
        parent.setdefault(("c", change_id_), ("c", change_id_))
        ra, rb = find(("i", issue_id)), find(("c", change_id_))
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for node in parent:
        issues, changes = groups.setdefault(find(node), (set(), set()))
        (issues if node[0] == "i" else changes).add(node[1])
    decisions = [
        decision(
            issues,
            changes,
            tractable=len(changes) <= tractability_threshold,
            id=decision_id(issues, changes, version_pair),
        )
        for issues, changes in groups.values()
    ]
    decisions.sort(key=lambda d: min(d["issue_ids"]))
    return decisions


# Issue and change ids come from one pool, so an issue "x" and a change "x"
# are drawn often; the two must stay different nodes.
SHARED_IDS = st.sampled_from(["x", "y", "z", "a", "b", "c", "i1", "c1"])


def star(centre, leaves, issue_centre):
    return [(centre, leaf) if issue_centre else (leaf, centre) for leaf in leaves]


def chain(labels):
    """Alternating path issue 0 - change 0 - issue 1 - change 1 - ... over ``labels``."""
    return [(labels[k + dk], labels[k]) for k in range(len(labels) - 1) for dk in (0, 1)]


@st.composite
def edge_lists(draw):
    """Edges as a list, unions of random pairs, stars and alternating chains,
    with repeats, before they are made a frozenset."""
    edges = []
    for shape in draw(st.lists(st.sampled_from(["pairs", "star", "chain"]), max_size=4)):
        if shape == "pairs":
            edges += draw(st.lists(st.tuples(SHARED_IDS, SHARED_IDS), max_size=12))
        elif shape == "star":
            leaves = draw(st.lists(SHARED_IDS | st.text("pq", min_size=1, max_size=3), max_size=9))
            edges += star(draw(SHARED_IDS), leaves, draw(st.booleans()))
        else:
            # Several thousand nodes; the same labels name both the issues and
            # the changes, and a shuffle lets id order cut across the path.
            labels = [str(k) for k in range(draw(st.integers(2, 3000)))]
            draw(st.randoms(use_true_random=False)).shuffle(labels)
            edges += chain(labels)
    repeats = draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return edges + repeats


@settings(max_examples=100, deadline=None)
@given(edges=edge_lists(), threshold=st.integers(0, 6))
@example(edges=[("x", "x")], threshold=5)
@example(edges=[("x", "y"), ("y", "x")], threshold=5)  # two decisions, not one cycle
@example(edges=chain([str(k) for k in range(4000)]), threshold=5)
@example(edges=star("hub", [f"c{k}" for k in range(50)], True) * 2, threshold=5)
def test_find_decisions_matches_union_find_reference(edges, threshold):
    got = find_decisions(frozenset(edges), PAIR, tractability_threshold=threshold)
    want = union_find_decisions(frozenset(edges), PAIR, tractability_threshold=threshold)
    assert got == want


def test_coverage_monotone_in_edges():
    rng = random.Random(77)
    changes = [chg(f"comp{i}", [f"e{i}"]) for i in range(6)]
    change_list = sorted(changes, key=lambda c: c["id"])
    issues = [f"i{k}" for k in range(4)]
    all_pairs = [(i, c["id"]) for i in issues for c in change_list]
    rng.shuffle(all_pairs)
    edges = set()
    last = Fraction(0)
    for pair in all_pairs:
        edges.add(pair)
        covered = coverage(changes, find_decisions(frozenset(edges), PAIR))
        assert covered >= last
        last = covered


def test_decision_ids_stable_across_runs():
    edges = frozenset({("i1", "c1"), ("i2", "c1")})
    first = find_decisions(edges, PAIR)
    second = find_decisions(edges, PAIR)
    assert [d["id"] for d in first] == [d["id"] for d in second]
    assert first[0]["id"].startswith("d:")

import random
from fractions import Fraction

import pytest

from archdd.decisions import (
    Decision,
    DecisionGraph,
    DecisionKind,
    build_decision_graph,
    change_coverage,
    classify,
    drop_external_changes,
    find_decisions,
    is_external_change,
)
from archdd.errors import InvariantViolation
from archdd.ingestion import ArchitecturalImpactList
from archdd.changes import analyze_changes
from archdd.model import ChangeKind, Delta, DeltaKind, new_change

from conftest import random_snapshot


def chg(component, entities, kind=ChangeKind.COMPONENT_MODIFIED, pair=("v1", "v2")):
    if kind is ChangeKind.COMPONENT_ADDED:
        deltas = frozenset(Delta(DeltaKind.ADD, e) for e in entities)
        return new_change(kind, None, component, deltas, pair)
    if kind is ChangeKind.COMPONENT_REMOVED:
        deltas = frozenset(Delta(DeltaKind.REMOVE, e) for e in entities)
        return new_change(kind, component, None, deltas, pair)
    deltas = frozenset(Delta(DeltaKind.ADD, e) for e in entities)
    return new_change(kind, component, component, deltas, pair)


def impact(entries, pair=("v1", "v2")):
    return ArchitecturalImpactList(
        version_pair=pair, entries={k: frozenset(v) for k, v in entries.items()}
    )


def graph_of(edges, issues=(), changes=(), pair=("v1", "v2")):
    issue_nodes = set(issues) | {i for i, _ in edges}
    change_nodes = set(changes) | {c for _, c in edges}
    return DecisionGraph(
        version_pair=pair,
        issue_nodes=frozenset(issue_nodes),
        change_nodes=frozenset(change_nodes),
        edges=frozenset(edges),
    )


def test_build_decision_graph_edge_rule():
    c1 = chg("core", ["e1"])
    c2 = chg("io", ["e2"])
    imp = impact({"i1": ["e1"], "i2": ["e9"], "i3": ["e1", "e2"]})
    graph = build_decision_graph(imp, frozenset({c1, c2}))
    assert graph.edges == {("i1", c1.id), ("i3", c1.id), ("i3", c2.id)}
    assert "i2" in graph.issue_nodes  # isolated but present until orphan removal


def dense_edges(impact_list, changes):
    """Reference edge rule: test every issue against every change."""
    return {
        (issue_id, change.id)
        for issue_id, entities in impact_list.entries.items()
        for change in changes
        if entities & change.delta_entities
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
        graph = build_decision_graph(imp, changes)
        assert graph.edges == dense_edges(imp, changes)
        assert graph.issue_nodes == frozenset(entries)
        assert graph.change_nodes == frozenset(c.id for c in changes)
        total_edges += len(graph.edges)
    assert total_edges > 100


def test_build_decision_graph_version_mismatch():
    from archdd.errors import InputError

    c1 = chg("core", ["e1"], pair=("v1", "v2"))
    with pytest.raises(InputError):
        build_decision_graph(impact({"i1": ["e1"]}, pair=(None, "v9")), frozenset({c1}))


def test_decision_graph_rejects_dangling_edges():
    with pytest.raises(InvariantViolation):
        DecisionGraph(
            version_pair=("a", "b"),
            issue_nodes=frozenset({"i1"}),
            change_nodes=frozenset(),
            edges=frozenset({("i1", "ch:x")}),
        )


def test_find_decisions_simple():
    decisions = find_decisions(graph_of({("i1", "c1")}))
    assert len(decisions) == 1
    assert decisions[0].kind is DecisionKind.SIMPLE
    assert decisions[0].issue_ids == {"i1"} and decisions[0].change_ids == {"c1"}


def test_find_decisions_compound():
    decisions = find_decisions(graph_of({("i1", "c1"), ("i2", "c1")}))
    assert [d.kind for d in decisions] == [DecisionKind.COMPOUND]


def test_find_decisions_crosscutting_and_orphans():
    graph = graph_of(
        {("i1", "c1"), ("i1", "c2"), ("i2", "c2")}, issues={"i3"}, changes={"c3"}
    )
    decisions = find_decisions(graph)
    assert len(decisions) == 1
    decision = decisions[0]
    assert decision.kind is DecisionKind.CROSSCUTTING
    assert decision.issue_ids == {"i1", "i2"}
    assert decision.change_ids == {"c1", "c2"}


def test_find_decisions_ordering_and_no_empty_sides():
    graph = graph_of({("i9", "c1"), ("i2", "c2"), ("i5", "c3")})
    decisions = find_decisions(graph)
    assert [min(d.issue_ids) for d in decisions] == ["i2", "i5", "i9"]
    for decision in decisions:
        assert decision.issue_ids and decision.change_ids


def test_classify_table():
    assert classify(1, 1) is DecisionKind.SIMPLE
    assert classify(3, 1) is DecisionKind.COMPOUND
    assert classify(1, 2) is DecisionKind.CROSSCUTTING
    assert classify(4, 7) is DecisionKind.CROSSCUTTING
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
            assert kind is {
                (True, False, False): DecisionKind.SIMPLE,
                (False, True, False): DecisionKind.COMPOUND,
                (False, False, True): DecisionKind.CROSSCUTTING,
            }[(simple, compound, crosscutting)]


def test_decision_kind_consistency_enforced():
    with pytest.raises(InvariantViolation):
        Decision(
            id="d:x",
            issue_ids=frozenset({"i1"}),
            change_ids=frozenset({"c1"}),
            kind=DecisionKind.CROSSCUTTING,
            version_pair=("a", "b"),
            tractable=True,
        )


def test_change_coverage_examples():
    changes = frozenset(chg(f"comp{i}", [f"e{i}"]) for i in range(10))
    ordered = sorted(changes, key=lambda c: c.id)
    covered = ordered[:2]
    decisions = [
        Decision(
            id="d:1",
            issue_ids=frozenset({"i1"}),
            change_ids=frozenset(c.id for c in covered),
            kind=DecisionKind.CROSSCUTTING,
            version_pair=("v1", "v2"),
            tractable=True,
        )
    ]
    assert change_coverage(changes, decisions) == Fraction(1, 5)  # 0.20
    all_ids = frozenset(c.id for c in changes)
    full = [
        Decision(
            id="d:2",
            issue_ids=frozenset({"i1"}),
            change_ids=all_ids,
            kind=DecisionKind.CROSSCUTTING,
            version_pair=("v1", "v2"),
            tractable=False,
        )
    ]
    assert change_coverage(changes, full) == Fraction(1)
    assert change_coverage(frozenset(), []) == Fraction(1)


def test_change_coverage_after_cleanup_fixture():
    # 10 changes, 3 third-party-only; 2 of the internal ones covered
    internal = [chg(f"comp{i}", [f"app.mod{i}.C"]) for i in range(7)]
    external = [chg(f"ext{i}", [f"ext.lib{i}.C"]) for i in range(3)]
    changes = frozenset(internal + external)
    clean = drop_external_changes(changes, ["ext.lib0", "ext.lib1", "ext.lib2"])
    assert clean == frozenset(internal)
    decisions = [
        Decision(
            id="d:3",
            issue_ids=frozenset({"i1"}),
            change_ids=frozenset(c.id for c in internal[:2]),
            kind=DecisionKind.CROSSCUTTING,
            version_pair=("v1", "v2"),
            tractable=True,
        )
    ]
    assert change_coverage(changes, decisions) == Fraction(2, 10)
    assert change_coverage(clean, decisions) == Fraction(2, 7)


def test_is_external_change_requires_all_entities_excluded():
    mixed = chg("core", ["app.X", "ext.lib.Y"])
    pure_external = chg("ext", ["ext.lib.Y"])
    assert not is_external_change(mixed, ["ext.lib"])
    assert is_external_change(pure_external, ["ext.lib"])
    assert drop_external_changes(frozenset({mixed, pure_external}), []) == {
        mixed,
        pure_external,
    }


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
        graph = graph_of(edges, issues=issues, changes=changes)
        decisions = find_decisions(graph)
        got = {
            frozenset({("i", i) for i in d.issue_ids} | {("c", c) for c in d.change_ids})
            for d in decisions
        }
        assert got == reachability_partition(edges, issues, changes)


def test_coverage_monotone_in_edges():
    rng = random.Random(77)
    changes = frozenset(chg(f"comp{i}", [f"e{i}"]) for i in range(6))
    change_list = sorted(changes, key=lambda c: c.id)
    issues = [f"i{k}" for k in range(4)]
    all_pairs = [(i, c.id) for i in issues for c in change_list]
    rng.shuffle(all_pairs)
    edges = set()
    last = Fraction(0)
    for pair in all_pairs:
        edges.add(pair)
        graph = graph_of(edges, issues=issues, changes={c.id for c in change_list})
        coverage = change_coverage(changes, find_decisions(graph))
        assert coverage >= last
        last = coverage


def test_decision_ids_stable_across_runs():
    graph = graph_of({("i1", "c1"), ("i2", "c1")})
    first = find_decisions(graph)
    second = find_decisions(graph)
    assert [d.id for d in first] == [d.id for d in second]
    assert first[0].id.startswith("d:")

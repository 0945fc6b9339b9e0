"""Acceptance suite: one test per acceptance criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail line
per criterion. Oracles here are deliberately independent of the production
code paths they check (exhaustive enumeration for the matcher, fixpoint
reachability for connected components).
"""

import itertools
import json
import random
import time
from fractions import Fraction

from archdd.changes import analyze_changes, get_change_instances
from archdd.decisions import DecisionGraph, DecisionKind, find_decisions
from archdd.matching import balance, build_matching_problem, min_cost_matching
from archdd.model import ChangeKind
from archdd.pipeline import RunConfig, run_pipeline

from conftest import random_snapshot, write_mini_project

PASS = "ACCEPTANCE PASS:"


def _delta_cost(c_a, c_b):
    """Reference price of a pairing: the size of the entity symmetric difference."""
    return len(c_a.entities ^ c_b.entities)


def _exhaustive_minimum(components_a, components_b):
    a, b = balance(components_a, components_b)
    a = sorted(a, key=lambda c: c.name)
    b = sorted(b, key=lambda c: c.name)
    best = None
    for perm in itertools.permutations(range(len(b))):
        total = sum(_delta_cost(a[i], b[j]) for i, j in enumerate(perm))
        if best is None or total < best:
            best = total
    return best


def _matching_corpus(seed=20260811, pairs=200):
    rng = random.Random(seed)
    pool = [f"e{i:02d}" for i in range(30)]
    for _ in range(pairs):
        yield (
            random_snapshot(rng, "a", pool, max_components=6, max_entities=10),
            random_snapshot(rng, "b", pool, max_components=6, max_entities=10),
        )


def test_matching_optimality_against_enumeration():
    """200 random pairs, 2-6 components, 1-10 entities: optimum in 100% of cases, <5s."""
    started = time.perf_counter()
    checked = 0
    for snap_a, snap_b in _matching_corpus():
        problem = build_matching_problem(list(snap_a.components), list(snap_b.components))
        chosen = min_cost_matching(problem)
        total = sum(_delta_cost(c_a, c_b) for c_a, c_b in chosen)
        assert total == _exhaustive_minimum(
            list(snap_a.components), list(snap_b.components)
        ), f"suboptimal matching on pair {checked}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 200
    assert elapsed < 5.0, f"matching optimality run took {elapsed:.2f}s (budget 5s)"
    print(f"{PASS} matching optimality (200/200 optimal, {elapsed:.2f}s)")


def test_change_instance_conformance():
    """Every matched pair: deltas == symmetric difference; disjoint branch -> 2 changes."""
    violations = 0
    pairs_checked = 0
    for snap_a, snap_b in _matching_corpus(seed=777):
        problem = build_matching_problem(list(snap_a.components), list(snap_b.components))
        chosen = min_cost_matching(problem)
        for c_a, c_b in chosen:
            changes = get_change_instances(c_a, c_b, ("va", "vb"))
            emitted = set()
            for change in changes:
                emitted |= change.delta_entities
            expected = c_a.entities ^ c_b.entities
            if emitted != expected:
                violations += 1
            if c_a.entities and c_b.entities and not (c_a.entities & c_b.entities):
                kinds = sorted(c.kind for c in changes)
                if len(changes) != 2 or kinds != [
                    ChangeKind.COMPONENT_ADDED,
                    ChangeKind.COMPONENT_REMOVED,
                ]:
                    violations += 1
            if c_a.entities == c_b.entities and changes:
                violations += 1
            pairs_checked += 1
    assert violations == 0, f"{violations} conformance violations"
    print(f"{PASS} change-instance conformance ({pairs_checked} matched pairs, 0 violations)")


def test_self_comparison_is_empty():
    """analyze_changes(A, A) == empty set for 100 random snapshots."""
    rng = random.Random(31337)
    pool = [f"pkg.m{i:02d}.C" for i in range(40)]
    for index in range(100):
        snapshot = random_snapshot(rng, f"v{index}", pool)
        assert analyze_changes(snapshot, snapshot) == frozenset()
    print(f"{PASS} self-comparison empty (100/100 snapshots)")


def _reachability_partition(edges, issues, changes):
    nodes = {("i", i) for i in issues} | {("c", c) for c in changes}
    neighbours = {node: set() for node in nodes}
    for issue_id, change_id in edges:
        neighbours[("i", issue_id)].add(("c", change_id))
        neighbours[("c", change_id)].add(("i", issue_id))
    remaining = {node for node in nodes if neighbours[node]}
    parts = set()
    while remaining:
        component = {next(iter(remaining))}
        while True:
            grown = set(component)
            for node in component:
                grown |= neighbours[node]
            if grown == component:
                break
            component = grown
        parts.add(frozenset(component))
        remaining -= component
    return parts


def test_connected_component_oracle():
    """find_decisions matches brute-force reachability on 500 random graphs (<=30 nodes)."""
    rng = random.Random(2718281)
    for trial in range(500):
        n_issues = rng.randint(0, 15)
        n_changes = rng.randint(0, 30 - n_issues)
        issues = [f"i{k:02d}" for k in range(n_issues)]
        changes = [f"c{k:02d}" for k in range(n_changes)]
        density = rng.choice([0.03, 0.1, 0.25, 0.6])
        edges = {
            (i, c) for i in issues for c in changes if rng.random() < density
        }
        graph = DecisionGraph(
            version_pair=("va", "vb"),
            issue_nodes=frozenset(issues),
            change_nodes=frozenset(changes),
            edges=frozenset(edges),
        )
        decisions = find_decisions(graph)
        got = {
            frozenset(
                {("i", i) for i in d.issue_ids} | {("c", c) for c in d.change_ids}
            )
            for d in decisions
        }
        expected = _reachability_partition(edges, issues, changes)
        assert got == expected, f"partition mismatch on trial {trial}"
        for decision in decisions:
            issue_count = len(decision.issue_ids)
            change_count = len(decision.change_ids)
            assert issue_count >= 1 and change_count >= 1
            if change_count >= 2:
                assert decision.kind is DecisionKind.CROSSCUTTING
            elif issue_count >= 2:
                assert decision.kind is DecisionKind.COMPOUND
            else:
                assert decision.kind is DecisionKind.SIMPLE
    print(f"{PASS} connected-component oracle (500 graphs, classification exact)")


def test_end_to_end_fixture_ledger(tmp_path):
    """Mini project reproduces the hand-derived ledger exactly."""
    config = RunConfig.from_file(write_mini_project(tmp_path))
    result = run_pipeline(config, write=False)
    assert not result.failures
    outcome = result.outcomes[0]

    kinds = sorted(d.kind.value for d in outcome.decisions)
    assert kinds == ["crosscutting", "simple"], f"got {kinds}"
    crosscutting = next(d for d in outcome.decisions if d.kind is DecisionKind.CROSSCUTTING)
    simple = next(d for d in outcome.decisions if d.kind is DecisionKind.SIMPLE)
    assert crosscutting.issue_ids == {"APP-1", "APP-2"}
    assert simple.issue_ids == {"APP-3"}

    before = outcome.stats.coverage_before_cleanup
    after = outcome.stats.coverage_after_cleanup
    assert before == Fraction(3, 4) and after == Fraction(1)
    assert before < after

    excluded = [
        c for c in outcome.changes if c.delta_entities == {"thirdparty.jetty.Http"}
    ]
    assert len(excluded) == 1
    assert excluded[0] not in outcome.clean_changes  # absent after cleanup
    print(f"{PASS} end-to-end fixture ledger (1 simple, 1 crosscutting, {before}->{after})")


def test_pipeline_determinism(tmp_path):
    """Two pipeline runs on the fixture produce byte-identical structured output."""
    config = RunConfig.from_file(write_mini_project(tmp_path))
    run_pipeline(config)
    first = (config.output_dir / "run.json").read_bytes()
    run_pipeline(config)
    second = (config.output_dir / "run.json").read_bytes()
    assert first == second
    print(f"{PASS} determinism (byte-identical run.json, {len(first)} bytes)")


def _write_scale_history(root, rng):
    n_versions = 50
    n_components = 200
    n_entities = 5000
    n_issues = 3000
    entities = [f"app.pkg{i % n_components:03d}.Class{i:04d}" for i in range(n_entities)]
    component_of = [i % n_components for i in range(n_entities)]
    labels = [f"v{k:03d}" for k in range(1, n_versions + 1)]

    moved_into: dict[str, list[int]] = {}
    for step, label in enumerate(labels):
        if step:
            moved = rng.sample(range(n_entities), 40)
            for index in moved:
                component_of[index] = (
                    component_of[index] + rng.randint(1, n_components - 1)
                ) % n_components
            moved_into[label] = moved
        lines = [
            f"contain comp{component_of[index]:03d} {entities[index]}"
            for index in range(n_entities)
        ]
        (root / f"{label}.rsf").write_text("\n".join(lines) + "\n", encoding="utf-8")

    issue_lines = []
    commit_lines = []
    counter = 0
    per_version = -(-n_issues // (n_versions - 1))  # ceil
    for label in labels[1:]:
        moved = moved_into[label]
        for _ in range(per_version):
            if counter >= n_issues:
                break
            counter += 1
            issue_id = f"SC-{counter}"
            commit_id = f"c{counter:05d}"
            touched = rng.sample(moved, rng.randint(1, 3))
            if rng.random() < 0.3:
                touched.append(rng.randrange(n_entities))
            paths = [
                "src/main/java/" + entities[index].replace(".", "/") + ".java"
                for index in touched
            ]
            issue_lines.append(
                json.dumps(
                    {
                        "id": issue_id,
                        "summary": f"synthetic issue {counter}",
                        "resolved": rng.random() < 0.9,
                        "merged": rng.random() < 0.95,
                        "versions": [label],
                        "commits": [commit_id],
                    }
                )
            )
            commit_lines.append(json.dumps({"id": commit_id, "paths": paths}))
    (root / "issues.jsonl").write_text("\n".join(issue_lines) + "\n", encoding="utf-8")
    (root / "commits.jsonl").write_text("\n".join(commit_lines) + "\n", encoding="utf-8")

    config = {
        "versions": [{"label": label, "snapshot": f"{label}.rsf"} for label in labels],
        "issues": "issues.jsonl",
        "commits": "commits.jsonl",
        "output_dir": "out",
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path, counter


def test_scale_sanity(tmp_path):
    """50 versions, 200 components, 5000 entities, 3000 issues: full pipeline < 60s."""
    rng = random.Random(987654)
    config_path, issue_count = _write_scale_history(tmp_path, rng)
    assert issue_count == 3000
    config = RunConfig.from_file(config_path)
    started = time.perf_counter()
    result = run_pipeline(config)
    elapsed = time.perf_counter() - started
    assert not result.failures
    assert len(result.outcomes) == 49
    total_changes = sum(outcome.stats.change_count for outcome in result.outcomes)
    total_decisions = sum(outcome.stats.decision_count for outcome in result.outcomes)
    assert total_changes > 0 and total_decisions > 0
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s (budget 60s)"
    print(
        f"{PASS} scale sanity (49 pairs, {total_changes} changes, "
        f"{total_decisions} decisions, {elapsed:.1f}s)"
    )

"""Seeded generators for the benchmark's three version histories.

Each generator writes snapshot files, an issue export, a commit log and a
run configuration into a directory and returns the configuration path. The
program under test sees only those files. The same seed always gives the
same bytes.

Why each workload exists:

* ``steady-1x`` -- the acceptance-scale history (50 versions, 200
  components, 5000 entities, 3000 issues, 40 entity moves per version).
  Near-diagonal costs over a long chain make cost pricing and snapshot
  parsing dominate; there are no dummies.
* ``recluster-wide`` -- three versions of 655-710 components and 15,000
  entities, re-clustered at every version (10% of entities move; 200
  components split, merge or are renamed). Component counts differ between
  versions, so dummies are padded in and under 1% of component pairs
  overlap. This is the shape where the assignment kernel and its lexmin
  tie-breaking do real work.
* ``issue-heavy`` -- 25 versions of a small architecture (60 components,
  6000 entities) against 24,000 issues with local footprints, exclusions,
  skipped paths, message-key links and dangling commit refs. The issue side
  dominates; matching and kernel changes should leave it unmoved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("steady-1x", "recluster-wide", "issue-heavy")


def generate(workload: str, seed: int, root: Path) -> Path:
    """Write the named workload's inputs under ``root``; return the config path."""
    generators = {
        "steady-1x": _steady,
        "recluster-wide": _recluster,
        "issue-heavy": _issue_heavy,
    }
    rng = random.Random(f"{workload}:{seed}")
    return generators[workload](rng, root)


def _source_path(entity: str) -> str:
    return "src/main/java/" + entity.replace(".", "/") + ".java"


def _write_snapshot(path: Path, component_of: dict[str, str]) -> None:
    lines = [f"contain {component} {entity}" for entity, component in component_of.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _write_config(root: Path, labels: list[str], **extra) -> Path:
    config = {
        "versions": [{"label": label, "snapshot": f"{label}.rsf"} for label in labels],
        "issues": "issues.jsonl",
        "commits": "commits.jsonl",
        "output_dir": "out",
        **extra,
    }
    path = root / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _steady(rng: random.Random, root: Path) -> Path:
    """Acceptance-scale history, shaped like the acceptance suite's scale test."""
    n_versions, n_components, n_entities, n_issues = 50, 200, 5000, 3000
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
        _write_snapshot(
            root / f"{label}.rsf",
            {entities[i]: f"comp{component_of[i]:03d}" for i in range(n_entities)},
        )

    issues, commits = [], []
    per_version = -(-n_issues // (n_versions - 1))
    for label in labels[1:]:
        moved = moved_into[label]
        for _ in range(per_version):
            if len(issues) >= n_issues:
                break
            counter = len(issues) + 1
            commit_id = f"c{counter:05d}"
            touched = rng.sample(moved, rng.randint(1, 3))
            if rng.random() < 0.3:
                touched.append(rng.randrange(n_entities))
            issues.append(
                {
                    "id": f"SC-{counter}",
                    "summary": f"synthetic issue {counter}",
                    "resolved": rng.random() < 0.9,
                    "merged": rng.random() < 0.95,
                    "versions": [label],
                    "commits": [commit_id],
                }
            )
            commits.append({"id": commit_id, "paths": [_source_path(entities[i]) for i in touched]})
    _write_jsonl(root / "issues.jsonl", issues)
    _write_jsonl(root / "commits.jsonl", commits)
    return _write_config(root, labels)


RECLUSTER_VERSIONS = 3


def _recluster(rng: random.Random, root: Path) -> Path:
    """Wide architecture re-clustered at each version; component counts drift."""
    n_components, n_entities = 600, 15000
    entities = [f"org.wide.p{i % 97:02d}.Type{i:05d}" for i in range(n_entities)]
    next_name = 0

    def fresh() -> str:
        nonlocal next_name
        next_name += 1
        return f"m{rng.randrange(10**6):06d}x{next_name:05d}"

    members: dict[str, list[str]] = {}
    for index, entity in enumerate(entities):
        members.setdefault(f"m{index % n_components:06d}", []).append(entity)
    # Step 0 re-clusters once without writing a version, so the first
    # written snapshot is already as irregular as the later ones.
    labels = [None] + [f"r{k:02d}" for k in range(1, RECLUSTER_VERSIONS + 1)]
    moved_per_version: dict[str, list[str]] = {}

    for step, label in enumerate(labels):
        if step != 1:
            names = sorted(members)
            # Entity churn: 10% of entities move to another component.
            moved = rng.sample(entities, n_entities // 10)
            owner = {e: name for name, group in members.items() for e in group}
            for entity in moved:
                members[owner[entity]].remove(entity)
                members[rng.choice(names)].append(entity)
            # Structural churn: 200 splits, merges and renames. The component
            # count moves by exactly 55 per step, alternately up and down, so
            # every pair pads 55 dummies and pairs cost about the same.
            splits, merges = (45, 100) if step % 2 else (100, 45)
            renames = 200 - merges - splits
            for _ in range(splits):
                name = rng.choice(sorted(n for n in members if len(members[n]) >= 4))
                group = members[name]
                rng.shuffle(group)
                half = len(group) // 2
                members[name], members[fresh()] = group[:half], group[half:]
            for _ in range(merges):
                source, target = rng.sample(sorted(members), 2)
                members[target].extend(members.pop(source))
            for _ in range(renames):
                name = rng.choice(sorted(members))
                members[fresh()] = members.pop(name)
            members = {name: group for name, group in members.items() if group}
            moved_per_version[label] = moved
        if label is None:
            continue
        _write_snapshot(
            root / f"{label}.rsf",
            {e: name for name in sorted(members) for e in sorted(members[name])},
        )

    labels = labels[1:]
    issues, commits = [], []
    for label in labels[1:]:
        moved = moved_per_version[label]
        for _ in range(100):
            counter = len(issues) + 1
            commit_id = f"w{counter:05d}"
            touched = rng.sample(moved, rng.randint(1, 3))
            issues.append(
                {
                    "id": f"RW-{counter}",
                    "resolved": True,
                    "merged": rng.random() < 0.95,
                    "versions": [label],
                    "commits": [commit_id],
                }
            )
            commits.append({"id": commit_id, "paths": [_source_path(e) for e in touched]})
    _write_jsonl(root / "issues.jsonl", issues)
    _write_jsonl(root / "commits.jsonl", commits)
    return _write_config(root, labels)


VENDOR_NAMESPACE = "org.vendor"


def _issue_heavy(rng: random.Random, root: Path) -> Path:
    """Small architecture, many issues with local footprints and noisy links."""
    n_versions, n_app, n_vendor, n_entities, n_issues = 25, 51, 9, 6000, 24000
    names = [f"mod{k:02d}" for k in range(n_app)] + [f"lib{k:02d}" for k in range(n_vendor)]
    vendor = set(names[n_app:])
    members: dict[str, list[str]] = {name: [] for name in names}
    created = 0

    def new_entity(component: str) -> str:
        nonlocal created
        created += 1
        package = f"{VENDOR_NAMESPACE}.{component}" if component in vendor else f"app.{component}"
        return f"{package}.Class{created:05d}"

    # About 15% of entities sit in the vendor namespace.
    for index in range(n_entities):
        component = names[n_app + index % n_vendor] if index % 20 < 3 else names[index % n_app]
        members[component].append(new_entity(component))

    labels = [f"v{k:02d}" for k in range(1, n_versions + 1)]
    per_version = n_issues // (n_versions - 1)
    issues: list[dict] = []
    commits: list[dict] = []
    commit_counter = 0

    def add_issue(label: str, touched: list[str]) -> None:
        """One issue with 1-3 commits spreading ``touched`` over them."""
        nonlocal commit_counter
        issue_id = f"IH-{len(issues) + 1}"
        listed = []
        n_commits = rng.randint(1, 3)
        for k in range(n_commits):
            commit_counter += 1
            commit_id = f"h{commit_counter:06d}"
            paths = [_source_path(e) for e in touched[k::n_commits]]
            if rng.random() < 0.2:
                paths.append(f"docs/{rng.choice(names)}/notes-{rng.randrange(400)}.md")
            record = {"id": commit_id, "paths": paths}
            if rng.random() < 0.2:
                record["issue_keys"] = [issue_id]  # linked by message key only
            else:
                listed.append(commit_id)
            commits.append(record)
        if rng.random() < 0.04:
            listed.append(f"gone{len(issues):06d}")  # dangling ref
        issues.append(
            {
                "id": issue_id,
                "summary": f"issue {len(issues) + 1}",
                "resolved": rng.random() < 0.92,
                "merged": rng.random() < 0.95,
                "versions": [label],
                "commits": listed,
            }
        )

    for step, label in enumerate(labels):
        if step:
            changed = rng.sample(names, 45)
            delta: dict[str, list[str]] = {}
            for component in changed:
                group = members[component]
                removed = [group.pop(rng.randrange(len(group))) for _ in range(rng.randint(0, 2))]
                added = [new_entity(component) for _ in range(rng.randint(1, 3))]
                group.extend(added)
                delta[component] = removed + added
            # A few entities move between two changed components, so the
            # two changes share an issue-visible entity.
            for _ in range(4):
                source, target = rng.sample(changed, 2)
                entity = members[source].pop(rng.randrange(len(members[source])))
                members[target].append(entity)
                delta[source].append(entity)
                delta[target].append(entity)
            # Issues that touch changed entities: 0 (uncovered change),
            # 1 (simple) or 2-3 (compound) per component; some span two.
            planned = 0
            for component in changed:
                for _ in range(rng.choice((0, 1, 1, 2, 3))):
                    touched = rng.sample(delta[component], 1)
                    touched += rng.sample(members[component], rng.randint(0, 2))
                    if rng.random() < 0.1:
                        other = rng.choice(changed)
                        touched.append(rng.choice(delta[other]))
                    add_issue(label, touched)
                    planned += 1
            # The rest touch only unchanged entities inside one component
            # (sometimes two): they cost edge tests but produce no edges.
            touched_now = {e for group in delta.values() for e in group}
            unchanged = {c: [e for e in members[c] if e not in touched_now] for c in names}
            for _ in range(per_version - planned):
                component = rng.choice(names)
                touched = rng.sample(unchanged[component], rng.randint(1, 3))
                if rng.random() < 0.15:
                    touched.append(rng.choice(unchanged[rng.choice(names)]))
                add_issue(label, touched)
        _write_snapshot(
            root / f"{label}.rsf",
            {e: name for name in names for e in members[name]},
        )

    _write_jsonl(root / "issues.jsonl", issues)
    _write_jsonl(root / "commits.jsonl", commits)
    (root / "exclusions.txt").write_text(VENDOR_NAMESPACE + "\n", encoding="utf-8")
    return _write_config(root, labels, exclusions="exclusions.txt", link_by_message=True)

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from archdd.changes import balance
from archdd.model import Component, parse_snapshot


def contain_lines(components):
    """Snapshot text with one ``contain`` line per entity of each ``(name, entities)`` pair."""
    return "".join(
        f"contain {name} {entity}\n" for name, entities in components for entity in entities
    )


def under_namespace(entity, prefixes):
    """Oracle for the exclusion rule: ``entity`` is excluded when it, or its
    text up to or through one of its separators (``.``, ``/``, ``$``), is one
    of ``prefixes``."""
    cuts = {entity} | {
        entity[:end] for i, ch in enumerate(entity) if ch in "./$" for end in (i, i + 1)
    }
    return not cuts.isdisjoint(prefixes)


def comp(name, entities=""):
    return Component(name, frozenset(entities.split()))


def delta_cost(c_a, c_b):
    """Reference price of a pairing: the size of the entity symmetric difference."""
    return len(c_a.entities ^ c_b.entities)


def enumerate_best(components_a, components_b):
    """Exhaustive oracle: (min total, lex-min b-name vector in a-name order)."""
    a, b = balance(components_a, components_b)
    a = sorted(a, key=lambda c: c.name)
    b = sorted(b, key=lambda c: c.name)
    best = None
    for perm in itertools.permutations(range(len(b))):
        total = sum(delta_cost(a[i], b[j]) for i, j in enumerate(perm))
        names = tuple(b[j].name for j in perm)
        if best is None or (total, names) < best:
            best = (total, names)
    return best


def snap(version, components):
    """Parse a snapshot from {name: "e1 e2 ..."} mappings."""
    pairs = ((name, entities.split()) for name, entities in components.items())
    return parse_snapshot(contain_lines(pairs), version)


def random_snapshot(rng: random.Random, version, pool, max_components=6, max_entities=10):
    """Random partition snapshot drawing entities from a shared pool."""
    n_components = rng.randint(2, max_components)
    available = list(pool)
    rng.shuffle(available)
    components = {}
    cursor = 0
    for index in range(n_components):
        size = rng.randint(1, max_entities)
        chunk = available[cursor:cursor + size]
        cursor += size
        if not chunk:
            chunk = [f"{version}.filler{index}"]
        components[f"comp{index:02d}"] = " ".join(chunk)
    return snap(version, components)


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


MINI_SNAPSHOT_A = """\
contain core app.core.Engine
contain core app.core.Scheduler
contain io app.io.Reader
contain web thirdparty.jetty.Server
"""

MINI_SNAPSHOT_B = """\
contain core app.core.Engine
contain core app.core.Scheduler
contain core app.core.Cache
contain io app.io.Reader
contain io app.util.Log
contain metrics app.metrics.Meter
contain web thirdparty.jetty.Server
contain web thirdparty.jetty.Http
"""

MINI_ISSUES = [
    {
        "id": "APP-1",
        "summary": "Cache compiled execution plans in the engine",
        "resolved": True,
        "merged": True,
        "versions": ["1.1.0"],
        "commits": ["c100"],
    },
    {
        "id": "APP-2",
        "summary": "Unify logging across engine and io layers",
        "resolved": True,
        "merged": True,
        "versions": ["1.1.0"],
        "commits": ["c200"],
    },
    {
        "id": "APP-3",
        "summary": "Expose runtime metrics endpoint",
        "resolved": True,
        "merged": True,
        "versions": ["1.1.0"],
        "commits": ["c300"],
    },
]

MINI_COMMITS = [
    {
        "id": "c100",
        "paths": ["src/main/java/app/core/Cache.java", "src/main/java/app/core/Engine.java"],
        "issue_keys": ["APP-1"],
    },
    {
        "id": "c200",
        "paths": ["src/main/java/app/core/Cache.java", "src/main/java/app/util/Log.java"],
        "issue_keys": ["APP-2"],
    },
    {
        "id": "c300",
        "paths": [
            "src/main/java/app/metrics/Meter.java",
            "src/main/java/thirdparty/jetty/Http.java",
            "docs/metrics.md",
        ],
        "issue_keys": ["APP-3"],
    },
]

MINI_EXCLUSIONS = "# imported namespaces treated as third party\nthirdparty.jetty\n"


def write_mini_project(root):
    """Write the two-version mini project; returns the config path.

    Hand-derived ledger (frozen before implementation): the unique optimal
    matching pairs core/io/web with themselves and a dummy with the new
    metrics component (total cost 4). Changes: core +app.core.Cache,
    io +app.util.Log, web +thirdparty.jetty.Http (excluded namespace),
    metrics added (+app.metrics.Meter). Decisions: one crosscutting
    {APP-1, APP-2} x {core, io} and one simple {APP-3} x {metrics}; the web
    change stays an orphan. Coverage 3/4 before cleanup, 3/3 after.
    """
    (root / "arch-1.0.0.rsf").write_text(MINI_SNAPSHOT_A, encoding="utf-8")
    (root / "arch-1.1.0.rsf").write_text(MINI_SNAPSHOT_B, encoding="utf-8")
    (root / "issues.jsonl").write_text(
        "".join(json.dumps(obj) + "\n" for obj in MINI_ISSUES), encoding="utf-8"
    )
    (root / "commits.jsonl").write_text(
        "".join(json.dumps(obj) + "\n" for obj in MINI_COMMITS), encoding="utf-8"
    )
    (root / "exclusions.txt").write_text(MINI_EXCLUSIONS, encoding="utf-8")
    config = {
        "versions": [
            {"label": "1.0.0", "snapshot": "arch-1.0.0.rsf"},
            {"label": "1.1.0", "snapshot": "arch-1.1.0.rsf"},
        ],
        "issues": "issues.jsonl",
        "commits": "commits.jsonl",
        "exclusions": "exclusions.txt",
        "output_dir": "out",
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def output_digests(output_dir):
    """sha256 of each pipeline output file under ``output_dir``."""
    return {
        name: hashlib.sha256((output_dir / name).read_bytes()).hexdigest()
        for name in ("run.json", "summary.txt", "decisions.txt")
    }


def run_cli_with_hash_seed(seed, *argv):
    """Run ``python -m archdd.cli`` in a child process with ``PYTHONHASHSEED=seed``.

    Set iteration order follows the hash seed, so two seeds tell whether an
    output depends on it.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "archdd.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def mini_project(tmp_path):
    return write_mini_project(tmp_path)

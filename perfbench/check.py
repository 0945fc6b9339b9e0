"""Independent oracles and outside counters for one pipeline run.

Both oracles read only the generated inputs and the run document; neither
imports the program:

* matching -- for every pair, scipy's ``linear_sum_assignment`` on
  C = |A| + |B| - 2|A n B| (dummies padded in as empty components) must
  equal the run's ``matching_cost``;
* decisions -- networkx connected components of the issue-change graph,
  rebuilt from the impact entries and delta entities, must equal the run's
  decisions, kinds included.

While they work, both count the shape of the input and of the output; the
counters feed the traced run's per-layer metrics and the workload-shape
assertions.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment


def read_snapshot(path: Path) -> dict[str, list[str]]:
    components: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if len(tokens) == 3 and tokens[0] == "contain":
            components.setdefault(tokens[1], []).append(tokens[2])
    return components


def matching_oracle(config_path: Path, run_doc: dict, counters: Counter) -> list[str]:
    """Check each pair's matching cost against scipy; count pricing shape."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    files = {v["label"]: config_path.parent / v["snapshot"] for v in config["versions"]}
    snapshots = {label: read_snapshot(path) for label, path in files.items()}
    counters["model.snapshot_lines"] = sum(
        len(members) for snap in snapshots.values() for members in snap.values()
    )
    errors = []
    for pair in run_doc["pairs"]:
        a = snapshots[pair["from_version"]]
        b = snapshots[pair["to_version"]]
        n = max(len(a), len(b))
        size_a = np.zeros(n, dtype=np.int64)
        size_b = np.zeros(n, dtype=np.int64)
        column: dict[str, int] = {}
        for j, members in enumerate(b.values()):
            size_b[j] = len(members)
            column.update(dict.fromkeys(members, j))
        rows, cols = [], []
        for i, members in enumerate(a.values()):
            size_a[i] = len(members)
            for entity in members:
                j = column.get(entity)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
        overlap = np.zeros((n, n), dtype=np.int64)
        np.add.at(overlap, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), 1)
        cost = size_a[:, None] + size_b[None, :] - 2 * overlap
        row_ind, col_ind = linear_sum_assignment(cost)
        optimum = int(cost[row_ind, col_ind].sum())
        if optimum != pair["matching_cost"]:
            errors.append(
                f"matching oracle: {pair['from_version']}->{pair['to_version']} "
                f"cost {pair['matching_cost']} != scipy optimum {optimum}"
            )
        counters["matching.edges_priced"] += n * n
        counters["matching.overlap_pairs"] += int(np.count_nonzero(overlap))
        counters["matching.dummies"] += abs(len(a) - len(b))
        counters["kernel.n_max"] = max(counters["kernel.n_max"], n)
    return errors


def decision_oracle(run_doc: dict, counters: Counter) -> list[str]:
    """Check each pair's decisions against networkx; count issue-side work."""
    errors = []
    for pair in run_doc["pairs"]:
        entries = pair["impact"]["entries"]
        diagnostics = pair["impact"]["diagnostics"]
        counters["ingestion.issues_selected"] += len(entries)
        counters["ingestion.orphaned_refs"] += len(diagnostics["orphaned_commit_refs"])
        counters["ingestion.skipped_paths"] += len(diagnostics["skipped_paths"])
        counters["ingestion.excluded_entities"] += diagnostics["excluded_entity_count"]

        changes_of: dict[str, list[str]] = {}
        for change in pair["changes"]:
            counters[f"changes.{change['kind']}"] += 1
            counters["changes.deltas"] += len(change["deltas"])
            for delta in change["deltas"]:
                changes_of.setdefault(delta["entity"], []).append(change["id"])
        graph = nx.Graph()
        nonempty = 0
        for issue_id, entities in entries.items():
            nonempty += bool(entities)
            for entity in entities:
                for change_id in changes_of.get(entity, ()):
                    graph.add_edge(("i", issue_id), ("c", change_id))
        counters["decisions.tests"] += nonempty * len(pair["changes"])
        counters["decisions.edges"] += graph.number_of_edges()

        expected = set()
        for nodes in nx.connected_components(graph):
            issues = frozenset(name for side, name in nodes if side == "i")
            changes = frozenset(name for side, name in nodes if side == "c")
            kind = (
                "crosscutting" if len(changes) >= 2
                else "compound" if len(issues) >= 2
                else "simple"
            )
            expected.add((issues, changes, kind))
        got = set()
        for decision in pair["decisions"]:
            counters[f"decisions.{decision['kind']}"] += 1
            got.add(
                (frozenset(decision["issue_ids"]), frozenset(decision["change_ids"]), decision["kind"])
            )
        if got != expected:
            errors.append(
                f"decision oracle: {pair['from_version']}->{pair['to_version']} "
                f"{len(got ^ expected)} decisions differ from networkx components"
            )
    return errors


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def counters_and_errors(config_path: Path, run_json: bytes) -> tuple[Counter, list[str]]:
    """Run both oracles on one run document; return (counters, mismatches)."""
    run_doc = json.loads(run_json)
    counters: Counter = Counter()
    counters["pipeline.pairs"] = len(run_doc["pairs"]) + len(run_doc["failures"])
    counters["report.run_json_bytes"] = len(run_json)
    errors = [
        f"pair {f['from_version']}->{f['to_version']} failed: {f['error']}"
        for f in run_doc["failures"]
    ]
    errors += matching_oracle(config_path, run_doc, counters)
    errors += decision_oracle(run_doc, counters)
    counters["matching.overlap_ratio"] = _ratio(
        counters["matching.overlap_pairs"], counters["matching.edges_priced"]
    )
    counters["decisions.edge_yield"] = _ratio(counters["decisions.edges"], counters["decisions.tests"])
    return counters, errors

import errno
import gc
import json
import random
import re
import tempfile
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archdd import pipeline, report
from archdd.cli import main
from archdd.errors import ConfigError, InputError, InvariantViolation, RecordParseError
from archdd.pipeline import RunConfig, run_pipeline

from conftest import output_digests, run_cli_with_hash_seed, under_namespace, write_mini_project


def run_pairs(config):
    """The ``pairs`` entries of the run document the last run wrote."""
    return json.loads((config.output_dir / "run.json").read_text(encoding="utf-8"))["pairs"]


def test_mini_project_matches_hand_derived_ledger(mini_project):
    config = RunConfig.from_file(mini_project)
    result = run_pipeline(config)
    assert not result.failures
    pairs = run_pairs(config)
    assert len(pairs) == 1
    pair = pairs[0]

    assert len(pair["changes"]) == 4
    by_component = {
        (c["target_component"] or c["source_component"]): c for c in pair["changes"]
    }
    assert set(by_component) == {"core", "io", "web", "metrics"}
    assert by_component["metrics"]["kind"] == "added"
    assert by_component["metrics"]["deltas"] == [{"entity": "app.metrics.Meter", "op": "add"}]
    assert by_component["core"]["deltas"] == [{"entity": "app.core.Cache", "op": "add"}]
    assert by_component["io"]["deltas"] == [{"entity": "app.util.Log", "op": "add"}]
    assert by_component["web"]["deltas"] == [{"entity": "thirdparty.jetty.Http", "op": "add"}]
    assert {by_component[name]["kind"] for name in ("core", "io", "web")} == {"modified"}

    assert pair["impact"]["entries"] == {
        "APP-1": ["app.core.Cache", "app.core.Engine"],
        "APP-2": ["app.core.Cache", "app.util.Log"],
        "APP-3": ["app.metrics.Meter"],
    }
    assert pair["impact"]["diagnostics"]["excluded_entity_count"] == 1
    assert pair["impact"]["diagnostics"]["skipped_paths"] == ["docs/metrics.md"]

    kinds = sorted(d["kind"] for d in pair["decisions"])
    assert kinds == ["crosscutting", "simple"]
    crosscutting = next(d for d in pair["decisions"] if d["kind"] == "crosscutting")
    simple = next(d for d in pair["decisions"] if d["kind"] == "simple")
    assert set(crosscutting["issue_ids"]) == {"APP-1", "APP-2"}
    assert set(crosscutting["change_ids"]) == {by_component["core"]["id"], by_component["io"]["id"]}
    assert simple["issue_ids"] == ["APP-3"]
    assert simple["change_ids"] == [by_component["metrics"]["id"]]

    stats = pair["stats"]
    assert Fraction(*stats["coverage_before_cleanup"]) == Fraction(3, 4)
    assert Fraction(*stats["coverage_after_cleanup"]) == Fraction(1)
    assert Fraction(*result.summary["pairs"][0]["coverage_before_cleanup"]) == Fraction(3, 4)
    assert Fraction(*result.summary["pairs"][0]["coverage_after_cleanup"]) == Fraction(1)
    assert pair["external_change_ids"] == [by_component["web"]["id"]]  # gone after cleanup
    assert stats["issues_in_decisions"] == 3
    assert Fraction(*stats["avg_issues_per_decision"]) == Fraction(3, 2)
    assert Fraction(*stats["avg_changes_per_decision"]) == Fraction(3, 2)

    # entity overlap diagnostic: all 4 distinct mapped entities exist in the v2 universe
    assert pair["entity_overlap"] == [4, 4]


def test_pipeline_writes_outputs(mini_project):
    config = RunConfig.from_file(mini_project)
    result = run_pipeline(config)
    names = {path.name for path in result.written}
    assert names == {"run.json", "decisions.txt", "summary.txt"}
    run_doc = json.loads((config.output_dir / "run.json").read_text())
    assert run_doc["schema_version"] == 1 and run_doc["kind"] == "run"
    assert run_doc["pairs"][0]["matching_cost"] == 4
    decisions_text = (config.output_dir / "decisions.txt").read_text()
    assert "[crosscutting]" in decisions_text and "[simple]" in decisions_text


def test_outputs_are_published_only_once_all_are_written(tmp_path, capsys, monkeypatch):
    config_path = write_mini_project(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    # A directory where summary.txt goes is found before anything is written:
    # every old output keeps its bytes, and no temporary file is left.
    (out / "summary.txt").mkdir()
    (out / "run.json").write_text("old run\n")
    (out / "decisions.txt").write_text("old decisions\n")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: {str(out / 'summary.txt')!r}\n", err
    assert (out / "run.json").read_text() == "old run\n"
    assert (out / "decisions.txt").read_text() == "old decisions\n"
    assert sorted(path.name for path in out.iterdir()) == [
        "decisions.txt", "run.json", "summary.txt"
    ]

    # A write that fails publishes nothing: every old output keeps its bytes.
    (out / "summary.txt").rmdir()
    for name in ("run.json", "decisions.txt", "summary.txt"):
        (out / name).write_text(f"old {name}\n")
    write_text, writes = Path.write_text, []

    def disk_full_on_the_second_write(path, *args, **kwargs):
        writes.append(path)
        if len(writes) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full_on_the_second_write)
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert {path.name: path.read_text() for path in out.iterdir()} == {
        name: f"old {name}\n" for name in ("run.json", "decisions.txt", "summary.txt")
    }


def test_pipeline_reruns_byte_identical(mini_project):
    config = RunConfig.from_file(mini_project)
    first = run_pipeline(config)
    first_bytes = (config.output_dir / "run.json").read_bytes()
    second = run_pipeline(config)
    second_bytes = (config.output_dir / "run.json").read_bytes()
    assert first_bytes == second_bytes
    assert first == second


def write_small_history(root):
    """Six versions of ~30 drifting components, with issues, commits and message links."""
    rng = random.Random(606)
    entities = [f"app.p{i % 9}.C{i}" for i in range(300)]
    owner = {entity: f"comp{rng.randrange(30):02d}" for entity in entities}
    labels = [f"v{k}" for k in range(1, 7)]
    issues, commits = [], []
    for step, label in enumerate(labels):
        if step:
            moved = rng.sample(entities, 30)
            for entity in moved:
                owner[entity] = f"comp{rng.randrange(36):02d}"  # some components are new
            for k in range(10):
                issue_id = f"SM-{step * 10 + k}"
                paths = [
                    "src/main/java/" + entity.replace(".", "/") + ".java"
                    for entity in rng.sample(moved, rng.randint(1, 3))
                ] + ["docs/notes.md"] * (k % 3 == 0)
                linked = k % 4 != 0  # the rest are reached only through the message key
                issues.append({"id": issue_id, "resolved": True, "merged": True,
                               "versions": [label],
                               "commits": [f"c{step}{k}"] if linked else []})
                commits.append({"id": f"c{step}{k}", "paths": paths, "issue_keys": [issue_id]})
        (root / f"{label}.rsf").write_text(
            "".join(f"contain {owner[entity]} {entity}\n" for entity in entities), encoding="utf-8"
        )
    for name, records in (("issues.jsonl", issues), ("commits.jsonl", commits)):
        (root / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (root / "exclusions.txt").write_text("app.p4\n", encoding="utf-8")
    config = {
        "versions": [{"label": label, "snapshot": f"{label}.rsf"} for label in labels],
        "issues": "issues.jsonl",
        "commits": "commits.jsonl",
        "exclusions": "exclusions.txt",
        "link_by_message": True,
        "output_dir": "out",
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


@pytest.mark.parametrize("write_project", [write_mini_project, write_small_history])
def test_outputs_ignore_input_line_order(tmp_path, write_project):
    """Shuffling snapshot, issue and commit lines changes no output byte.

    Guards the matching kernel, and every stage behind it, against any
    dependence on the order components, issues or commits arrive in.
    """
    config = RunConfig.from_file(write_project(tmp_path))
    result = run_pipeline(config)
    assert result.summary["pairs"] and not result.failures
    assert any(stats["decision_count"] for stats in result.summary["pairs"])
    before = output_digests(config.output_dir)
    rng = random.Random(11)
    inputs = [path for _, path in config.versions] + [config.issues_path, config.commits_path]
    for path in inputs:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = lines[:]
        while len(lines) > 1 and shuffled == lines:
            rng.shuffle(shuffled)
        path.write_text("".join(shuffled), encoding="utf-8")
    run_pipeline(config)
    assert output_digests(config.output_dir) == before


def write_history_with_a_failed_pair(root):
    config_path = write_small_history(root)
    with open(root / "v4.rsf", "a", encoding="utf-8") as snapshot:
        snapshot.write("contain only-two-tokens\n")  # fails v3 -> v4 and v4 -> v5
    return config_path


@pytest.mark.parametrize(
    "write_project", [write_mini_project, write_small_history, write_history_with_a_failed_pair]
)
def test_report_prints_the_sections_of_summary_txt(tmp_path, capsys, write_project):
    # The reader and the writer agree: `report --in` rebuilds the summary the
    # run returned, and prints each table of summary.txt exactly.
    config = RunConfig.from_file(write_project(tmp_path))
    result = run_pipeline(config)
    assert len(result.failures) == (2 if write_project is write_history_with_a_failed_pair else 0)
    run_json = config.output_dir / "run.json"
    doc = json.loads(run_json.read_text(encoding="utf-8"))
    assert report.parse_run_summary(doc) == result.summary
    sections = []
    for which, (title, _) in report.SECTIONS.items():
        assert main(["report", "--in", str(run_json), "--out", which]) == 0
        sections.append(("" if title is None else f"{title}\n") + capsys.readouterr().out)
    if result.failures:
        sections.append("failed pairs\n" + "".join(
            f"  {f['from_version']} -> {f['to_version']}: {f['error']}\n" for f in result.failures
        ))
    assert (config.output_dir / "summary.txt").read_text(encoding="utf-8") == "\n".join(sections)


# Entities under two packages and one third-party namespace, so exclusions
# drop some changes and some issue entities.
ROW_ENTITIES = [f"{package}.C{i}" for package in ("app.a", "app.b", "ext.x") for i in range(4)]

histories = st.fixed_dictionaries({
    # per version, each entity's component, or -1 when the version lacks it
    "owners": st.lists(
        st.lists(st.integers(-1, 3), min_size=len(ROW_ENTITIES), max_size=len(ROW_ENTITIES)),
        min_size=2, max_size=4,
    ),
    # per issue, the target version it lists and the entities its commit touched
    "issues": st.lists(
        st.tuples(st.integers(1, 3), st.sets(st.sampled_from(ROW_ENTITIES), max_size=4)),
        max_size=8,
    ),
    # `ext.x.C` stops short of a boundary, so it excludes no `ext.x.C<i>`
    "exclusions": st.sets(
        st.sampled_from(["ext", "ext.x.C1", "ext.x.C", "app.b", "app"]), max_size=2
    ),
})


@settings(max_examples=40, deadline=None)
@given(history=histories)
def test_report_accepts_every_row_a_run_writes(history):
    """`report --in` rejects rows no run could write; no run's own row is one of them.

    Each pair's third-party changes are recomputed with the test's own
    boundary rule, and no decision holds one of them.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        labels = [f"v{k}" for k in range(len(history["owners"]))]
        for label, owners in zip(labels, history["owners"]):
            lines = [f"contain c{o} {e}\n" for o, e in zip(owners, ROW_ENTITIES) if o >= 0]
            (root / f"{label}.rsf").write_text("".join(lines) or "contain c0 app.Z\n")
        issues = [
            {"id": f"I-{k}", "resolved": True, "merged": True,
             "versions": [labels[min(target, len(labels) - 1)]], "commits": [f"c{k}"]}
            for k, (target, _) in enumerate(history["issues"])
        ]
        commits = [
            {"id": f"c{k}", "paths": [
                "src/main/java/" + entity.replace(".", "/") + ".java" for entity in entities
            ]}
            for k, (_, entities) in enumerate(history["issues"])
        ]
        for name, records in (("issues.jsonl", issues), ("commits.jsonl", commits)):
            (root / name).write_text("".join(json.dumps(r) + "\n" for r in records))
        (root / "exclusions.txt").write_text("".join(p + "\n" for p in history["exclusions"]))
        config = RunConfig.from_obj({
            "versions": [{"label": label, "snapshot": f"{label}.rsf"} for label in labels],
            "issues": "issues.jsonl", "commits": "commits.jsonl",
            "exclusions": "exclusions.txt", "output_dir": "out",
        }, base_dir=root)
        result = run_pipeline(config)
        doc = json.loads((config.output_dir / "run.json").read_text(encoding="utf-8"))
        assert report.parse_run_summary(doc) == result.summary
        exclusions = history["exclusions"]
        for pair in doc["pairs"]:
            external = sorted(
                change["id"] for change in pair["changes"]
                if all(under_namespace(d["entity"], exclusions) for d in change["deltas"])
            )
            assert pair["external_change_ids"] == external
            assert pair["stats"]["clean_change_count"] == len(pair["changes"]) - len(external)
            for decision in pair["decisions"]:
                assert set(decision["change_ids"]).isdisjoint(external)
        # decisions are disjoint, so every issue and change link is a distinct one
        for row in [*doc["summary"]["pairs"], doc["summary"]["overall"]]:
            assert row["issues_in_decisions"] == row["issue_links"]
            assert row["covered_change_count"] == row["change_links"]


# One line of decisions.txt: a pair header, the empty-pair note, a card
# header, an issue line, a change line, or a blank line.
DECISIONS_TXT_LINE = re.compile(
    r"== \S+ -> \S+|\(no decisions\)|\[(simple|compound|crosscutting)\] d:[0-9a-f]{12} \(.*\)"
    r"|  issue .*|  change .*|"
)


# A line break of each kind `str.splitlines` knows: line feed, carriage
# return, a control separator and a Unicode separator.
LINE_BREAKS = ["\n", "\r", "\x1c", "\u2028"]


@settings(max_examples=40, deadline=None)
@given(
    summaries=st.lists(st.text(), min_size=3, max_size=3),
    broken_id=st.none() | st.tuples(st.integers(0, 2), st.sampled_from(LINE_BREAKS)),
)
@example(summaries=["a", "b", "c"], broken_id=(0, "\n"))
@example(summaries=["a", "b", "c"], broken_id=(1, "\r"))
@example(summaries=["a", "b", "c"], broken_id=(2, "\x1c"))
@example(summaries=["a", "b", "c"], broken_id=(2, "\u2028"))
def test_decisions_txt_stays_line_structured(summaries, broken_id):
    """No issue summary, whatever its line breaks, adds a line to decisions.txt,
    and an issue id holding a line break is an error before anything is written."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config_path = write_mini_project(root)
        issues_path = root / "issues.jsonl"
        issues = [json.loads(line) for line in issues_path.read_text().splitlines()]
        for issue, summary in zip(issues, summaries):
            issue["summary"] = summary
        if broken_id is not None:
            index, line_break = broken_id
            issues[index]["id"] += line_break + "== v9 -> v10"
        issues_path.write_text("".join(json.dumps(issue) + "\n" for issue in issues))
        config = RunConfig.from_file(config_path)
        if broken_id is not None:
            with pytest.raises(RecordParseError, match=f"^record line {index + 1}: field 'id' .* must be one line$"):
                run_pipeline(config)
            assert not config.output_dir.exists()
            return
        run_pipeline(config)
        text = (config.output_dir / "decisions.txt").read_bytes().decode("utf-8")
        lines = text.splitlines()
        assert len(lines) == 9
        assert [line for line in lines if not DECISIONS_TXT_LINE.fullmatch(line)] == []


def _decision_rows(decisions):
    keys = ("id", "kind", "issue_ids", "change_ids", "from_version", "to_version")
    return [{key: decision[key] for key in keys} for decision in decisions]


@pytest.mark.parametrize("write_project", [write_mini_project, write_small_history])
def test_stage_commands_agree_with_the_pipeline(tmp_path, write_project):
    """Each pair run through the three stage commands gives run.json's change ids, impact
    list and decisions."""
    config = RunConfig.from_file(write_project(tmp_path))
    run_pipeline(config)
    pairs = json.loads((config.output_dir / "run.json").read_text(encoding="utf-8"))["pairs"]
    assert len(pairs) == len(config.versions) - 1
    assert any(pair["decisions"] for pair in pairs)
    issue_side = ["--issues", str(config.issues_path), "--commits", str(config.commits_path)]
    if config.exclusions_path:
        issue_side += ["--exclusions", str(config.exclusions_path)]
    if config.link_by_message:
        issue_side.append("--link-by-message")
    changes, impact, decisions = (tmp_path / name for name in ("c.json", "i.json", "d.json"))
    for pair, (label_a, path_a), (label_b, path_b) in zip(
        pairs, config.versions, config.versions[1:]
    ):
        assert main(["analyze-changes", "--arch-a", str(path_a), "--arch-b", str(path_b),
                     "--label-a", label_a, "--label-b", label_b, "--format", "structured",
                     "--out", str(changes)]) == 0
        assert main(["build-impact", *issue_side, "--version", label_b,
                     "--out", str(impact)]) == 0
        assert main(["extract-decisions", "--changes", str(changes), "--impact", str(impact),
                     "--out", str(decisions)]) == 0
        changes_doc = json.loads(changes.read_text(encoding="utf-8"))
        assert [c["id"] for c in changes_doc["changes"]] == [c["id"] for c in pair["changes"]]
        impact_doc = json.loads(impact.read_text(encoding="utf-8"))
        for key in ("entries", "diagnostics"):
            assert impact_doc[key] == pair["impact"][key]
        decisions_doc = json.loads(decisions.read_text(encoding="utf-8"))
        assert _decision_rows(decisions_doc["decisions"]) == _decision_rows(pair["decisions"])


def test_run_json_holds_the_decisions_find_decisions_returns(tmp_path, monkeypatch):
    """Each pair's run.json decisions are ``find_decisions``' own dicts plus the
    version fields, and extract-decisions writes the same objects from the
    pair's stage documents."""
    config = RunConfig.from_file(write_small_history(tmp_path))
    find, calls = pipeline.find_decisions, []

    def recorded_find(edges, pair, **kwargs):
        calls.append((edges, pair, kwargs))
        return find(edges, pair, **kwargs)

    monkeypatch.setattr(pipeline, "find_decisions", recorded_find)
    run_pipeline(config)
    pairs = run_pairs(config)
    assert len(calls) == len(pairs) and sum(len(pair["decisions"]) for pair in pairs) > 5
    changes, impact, decisions = (tmp_path / name for name in ("c.json", "i.json", "d.json"))
    for pair, (edges, version_pair, kwargs) in zip(pairs, calls):
        assert pair["decisions"] == [
            {"from_version": version_pair[0], "to_version": version_pair[1], **d}
            for d in find(edges, version_pair, **kwargs)
        ]
        changes.write_text(report.canonical_json({
            "schema_version": report.SCHEMA_VERSION, "kind": "changes",
            "from_version": version_pair[0], "to_version": version_pair[1],
            "changes": pair["changes"],
        }), encoding="utf-8")
        impact.write_text(report.canonical_json(report.impact_doc(pair["impact"], version_pair)),
                          encoding="utf-8")
        assert main(["extract-decisions", "--changes", str(changes), "--impact", str(impact),
                     "--out", str(decisions)]) == 0
        assert json.loads(decisions.read_text(encoding="utf-8"))["decisions"] == pair["decisions"]


def test_run_json_holds_the_changes_analyze_changes_returns(tmp_path, monkeypatch):
    """Each pair's run.json changes are ``analyze_changes``' own dicts, in its
    order, plus the version fields, and analyze-changes writes the same objects
    in the pair's changes document."""
    config = RunConfig.from_file(write_small_history(tmp_path))
    analyze, calls = pipeline.analyze_changes, []

    def recorded_analyze(snap_a, snap_b):
        calls.append((snap_a, snap_b))
        return analyze(snap_a, snap_b)

    monkeypatch.setattr(pipeline, "analyze_changes", recorded_analyze)
    run_pipeline(config)
    pairs = run_pairs(config)
    assert len(calls) == len(pairs) and sum(len(pair["changes"]) for pair in pairs) > 5
    paths, changes = dict(config.versions), tmp_path / "c.json"
    for pair, (snap_a, snap_b) in zip(pairs, calls):
        versions = {"from_version": snap_a.version, "to_version": snap_b.version}
        assert pair["changes"] == [{**versions, **c} for c in analyze(snap_a, snap_b)]
        assert main(["analyze-changes", "--arch-a", str(paths[snap_a.version]),
                     "--arch-b", str(paths[snap_b.version]), "--label-a", snap_a.version,
                     "--label-b", snap_b.version, "--format", "structured",
                     "--out", str(changes)]) == 0
        assert json.loads(changes.read_text(encoding="utf-8"))["changes"] == pair["changes"]


def _run_chain(root, config_path, labels, name):
    """The run.json ``pairs`` of the config's history cut to ``labels``, written under ``name``."""
    config_obj = json.loads(config_path.read_text(encoding="utf-8"))
    config_obj["versions"] = [{"label": label, "snapshot": f"{label}.rsf"} for label in labels]
    config_obj["output_dir"] = name
    path = root / f"{name}.json"
    path.write_text(json.dumps(config_obj), encoding="utf-8")
    config = RunConfig.from_file(path)
    assert not run_pipeline(config).failures
    return run_pairs(config)


def test_sub_chains_and_reversed_chain_agree_with_the_full_chain(tmp_path):
    """A pair's entry depends on its two versions only, and matching cost is symmetric."""
    config_path = write_small_history(tmp_path)
    labels = [label for label, _ in RunConfig.from_file(config_path).versions]
    full = {
        (pair["from_version"], pair["to_version"]): pair
        for pair in _run_chain(tmp_path, config_path, labels, "full")
    }
    assert len(full) == len(labels) - 1 == 5
    sub_chains = [(i, j) for i in range(len(labels)) for j in range(i + 2, len(labels) + 1)]
    assert len(sub_chains) == 15
    for i, j in sub_chains:
        pairs = _run_chain(tmp_path, config_path, labels[i:j], f"sub-{i}-{j}")
        assert pairs == [full[p["from_version"], p["to_version"]] for p in pairs]
        assert len(pairs) == j - i - 1
    backward = _run_chain(tmp_path, config_path, labels[::-1], "reversed")
    costs = [full[pair]["matching_cost"] for pair in zip(labels, labels[1:])]
    assert [p["matching_cost"] for p in reversed(backward)] == costs
    assert all(costs)


def test_outputs_ignore_hash_seed(tmp_path):
    """A snapshot whose components share two entities fails the same way under any seed."""
    config_path = write_mini_project(tmp_path)
    (tmp_path / "arch-1.2.0.rsf").write_text(
        "contain C1 x\ncontain C1 y\ncontain C2 x\ncontain C2 y\n", encoding="utf-8"
    )
    config_obj = json.loads(config_path.read_text())
    config_obj["versions"].append({"label": "1.2.0", "snapshot": "arch-1.2.0.rsf"})
    config_path.write_text(json.dumps(config_obj))
    outputs = []
    for seed in (1, 2):
        child = run_cli_with_hash_seed(seed, "pipeline", "--config", str(config_path))
        assert child.returncode == 0, child.stderr
        outputs.append({
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("run.json", "summary.txt", "decisions.txt")
        })
    assert outputs[0] == outputs[1]
    failures = json.loads(outputs[0]["run.json"])["failures"]
    assert [failure["to_version"] for failure in failures] == ["1.2.0"]
    assert failures[0]["error"].startswith(
        "entity 'x' appears in both component 'C1' and component 'C2'"
    )


@pytest.mark.parametrize("write_project", [write_mini_project, write_small_history])
def test_decisions_partition_the_issue_change_graph(tmp_path, write_project):
    """Decisions are the connected components of the graph rebuilt from run.json."""
    nx = pytest.importorskip("networkx")
    config = RunConfig.from_file(write_project(tmp_path))
    run_pipeline(config)
    run_doc = json.loads((config.output_dir / "run.json").read_text(encoding="utf-8"))
    assert any(pair["decisions"] for pair in run_doc["pairs"])
    for pair in run_doc["pairs"]:
        changes_of: dict[str, set[str]] = {}
        for change in pair["changes"]:
            for delta in change["deltas"]:
                changes_of.setdefault(delta["entity"], set()).add(change["id"])
        graph = nx.Graph()
        for issue_id, entities in pair["impact"]["entries"].items():
            for entity in entities:
                for change_id in changes_of.get(entity, ()):
                    graph.add_edge(("i", issue_id), ("c", change_id))
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
        got = [
            (frozenset(d["issue_ids"]), frozenset(d["change_ids"]), d["kind"])
            for d in pair["decisions"]
        ]
        assert set(got) == expected
        issue_sets = [issues for issues, _, _ in got]
        change_sets = [changes for _, changes, _ in got]
        issue_union = frozenset().union(*issue_sets)
        change_union = frozenset().union(*change_sets)
        assert len(issue_union) == sum(map(len, issue_sets))
        assert len(change_union) == sum(map(len, change_sets))
        endpoints = {("i", i) for i in issue_union} | {("c", c) for c in change_union}
        assert endpoints == set(graph.nodes)


def test_pipeline_identical_snapshots_contribute_nothing(tmp_path):
    write_mini_project(tmp_path)
    config_obj = json.loads((tmp_path / "config.json").read_text())
    config_obj["versions"] = [
        {"label": "1.0.0", "snapshot": "arch-1.0.0.rsf"},
        {"label": "1.0.0b", "snapshot": "arch-1.0.0.rsf"},
    ]
    path = tmp_path / "config2.json"
    path.write_text(json.dumps(config_obj))
    config = RunConfig.from_file(path)
    result = run_pipeline(config)
    [pair] = run_pairs(config)
    assert pair["changes"] == []
    assert pair["decisions"] == []
    assert Fraction(*result.summary["pairs"][0]["coverage_before_cleanup"]) == Fraction(1)


def test_pipeline_three_versions_two_pairs(tmp_path):
    write_mini_project(tmp_path)
    (tmp_path / "arch-1.2.0.rsf").write_text(
        (tmp_path / "arch-1.1.0.rsf").read_text() + "contain core app.core.Planner\n"
    )
    config_obj = json.loads((tmp_path / "config.json").read_text())
    config_obj["versions"].append({"label": "1.2.0", "snapshot": "arch-1.2.0.rsf"})
    path = tmp_path / "config3.json"
    path.write_text(json.dumps(config_obj))
    config = RunConfig.from_file(path)
    result = run_pipeline(config)
    assert len(result.summary["pairs"]) == 2
    assert [(p["from_version"], p["to_version"]) for p in run_pairs(config)] == [
        ("1.0.0", "1.1.0"),
        ("1.1.0", "1.2.0"),
    ]


def test_pipeline_failure_isolation(tmp_path):
    write_mini_project(tmp_path)
    (tmp_path / "arch-bad.rsf").write_text("contain only-two-tokens\n")
    config_obj = json.loads((tmp_path / "config.json").read_text())
    config_obj["versions"].append({"label": "1.2.0", "snapshot": "arch-bad.rsf"})
    path = tmp_path / "config4.json"
    path.write_text(json.dumps(config_obj))
    result = run_pipeline(RunConfig.from_file(path))
    assert len(result.summary["pairs"]) == 1  # the good pair still ran
    assert len(result.failures) == 1
    assert result.failures[0]["from_version"] == "1.1.0"
    assert "snapshot line 1" in result.failures[0]["error"]


@pytest.mark.parametrize("stage", ["parse_snapshot", "find_decisions"])
def test_invariant_violation_stops_the_run_with_exit_2(tmp_path, capsys, monkeypatch, stage):
    # A broken internal contract is a bug, not a failed pair: one line, and no outputs.
    config_path = write_mini_project(tmp_path)

    def broken(*args, **kwargs):
        raise InvariantViolation(f"{stage} broke")

    monkeypatch.setattr(pipeline, stage, broken)
    code = main(["pipeline", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"internal error: {stage} broke\n")
    assert not (tmp_path / "out").exists()


def test_nothing_a_pair_makes_outlives_it(tmp_path, monkeypatch):
    """Each pair's changes, decisions and impact list are gone before the next
    pair starts, and none is kept in the result."""
    config = RunConfig.from_file(write_small_history(tmp_path))
    build_lists = pipeline.build_impact_lists
    analyze, find = pipeline.analyze_changes, pipeline.find_decisions
    impact_refs = {}  # target version -> its impact list
    pair_refs = []  # (target version, its changes and decisions), one per pair started

    def alive_from_earlier_pairs():
        gc.collect()
        return [
            ref for version, refs in pair_refs for ref in (impact_refs[version], *refs)
            if ref() is not None
        ]

    class Tracked(dict):  # a plain dict cannot be weakly referenced; a subclass can
        pass

    def tracked_lists(*args):
        impacts = {version: Tracked(impact) for version, impact in build_lists(*args).items()}
        impact_refs.update((version, weakref.ref(impact)) for version, impact in impacts.items())
        return impacts

    def tracked_analyze(snap_a, snap_b):
        assert not alive_from_earlier_pairs()
        changes = [Tracked(change) for change in analyze(snap_a, snap_b)]
        pair_refs.append((snap_b.version, [weakref.ref(change) for change in changes]))
        return changes

    def tracked_find(*args, **kwargs):
        decisions = [Tracked(decision) for decision in find(*args, **kwargs)]
        pair_refs[-1][1].extend(weakref.ref(decision) for decision in decisions)
        return decisions

    monkeypatch.setattr(pipeline, "build_impact_lists", tracked_lists)
    monkeypatch.setattr(pipeline, "analyze_changes", tracked_analyze)
    monkeypatch.setattr(pipeline, "find_decisions", tracked_find)
    result = run_pipeline(config)
    assert not result.failures
    assert [version for version, _ in pair_refs] == [label for label, _ in config.versions[1:]]
    assert sum(map(len, (refs for _, refs in pair_refs))) > 2 * len(pair_refs)
    assert not alive_from_earlier_pairs()
    assert len(result.summary["pairs"]) == len(pair_refs)  # the result is still held


def test_streamed_chain_matches_a_baseless_parse(tmp_path, monkeypatch):
    # 1.2.0 has a bad line and 1.3.0's file is missing: each fails both of its pairs.
    write_mini_project(tmp_path)
    good = (tmp_path / "arch-1.1.0.rsf").read_text()
    (tmp_path / "arch-1.2.0.rsf").write_text(good + "contain only-two-tokens\n")
    (tmp_path / "arch-1.4.0.rsf").write_text(good + "contain core app.core.Planner\n")
    (tmp_path / "arch-1.5.0.rsf").write_text(
        good.replace("contain io app.util.Log\n", "") + "contain core app.core.Planner \n"
    )
    config_obj = json.loads((tmp_path / "config.json").read_text())
    labels = ["1.0.0", "1.1.0", "1.2.0", "1.3.0", "1.4.0", "1.5.0"]
    config_obj["versions"] = [{"label": v, "snapshot": f"arch-{v}.rsf"} for v in labels]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(config_obj))

    parse = pipeline.parse_snapshot
    calls, refs = [], {}

    def tracked(text, version, base=None):
        # Only the previous version's snapshot and the diff base may still be alive.
        gc.collect()
        alive = {label for label, ref in refs.items() if ref() is not None}
        previous = labels[labels.index(version) - 1]
        assert alive <= {previous, base and base.version}
        calls.append((version, base and base.version))
        snapshot = parse(text, version, base=base)
        refs[version] = weakref.ref(snapshot)
        return snapshot

    monkeypatch.setattr(pipeline, "parse_snapshot", tracked)
    assert main(["pipeline", "--config", str(path), "--strict"]) == 1
    streamed = run_pipeline(RunConfig.from_file(path))
    gc.collect()
    assert all(ref() is None for ref in refs.values())
    # Each readable file is parsed once per run; a failed parse never becomes a base.
    per_run = [("1.0.0", None), ("1.1.0", "1.0.0"), ("1.2.0", "1.1.0"), ("1.4.0", "1.1.0"),
               ("1.5.0", "1.4.0")]
    assert calls == per_run * 2
    missing = tmp_path / "arch-1.3.0.rsf"
    bad_line = (
        "snapshot line 9: expected `contain <component> <entity>`, got 'contain only-two-tokens'"
    )
    assert streamed.failures == [
        {"from_version": "1.1.0", "to_version": "1.2.0", "error": bad_line},
        {"from_version": "1.2.0", "to_version": "1.3.0", "error": bad_line},
        {"from_version": "1.3.0", "to_version": "1.4.0",
         "error": f"cannot read snapshot {missing}: [Errno 2] No such file or directory: "
                  f"'{missing}'"},
    ]
    pairs = run_pairs(RunConfig.from_file(path))
    assert [(p["from_version"], p["to_version"]) for p in pairs] == [
        ("1.0.0", "1.1.0"), ("1.4.0", "1.5.0")
    ]

    monkeypatch.setattr(pipeline, "parse_snapshot", lambda text, label, base: parse(text, label))
    config = RunConfig.from_file(path)
    config.output_dir = tmp_path / "baseless"
    baseless = run_pipeline(config)
    assert baseless.failures == streamed.failures
    assert output_digests(config.output_dir) == output_digests(tmp_path / "out")


def test_config_validation(tmp_path):
    with pytest.raises(InputError, match="^cannot read config "):
        RunConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)
    bad.write_text(json.dumps({"versions": [{"label": "a", "snapshot": "s"}]}))
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)
    bad.write_text(
        json.dumps(
            {
                "versions": [
                    {"label": "a", "snapshot": "s"},
                    {"label": "a", "snapshot": "s"},
                ],
                "issues": "i",
                "commits": "c",
            }
        )
    )
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)


def test_config_path_the_os_cannot_open_is_an_input_error():
    with pytest.raises(InputError, match="^cannot read config .*: embedded null byte$"):
        RunConfig.from_file("a\0b.json")


BAD_CONFIG_VALUES = {
    "label": 5,
    "snapshot": 5,
    "exclusions": 5,
    "path_rules": 5,
    "output_dir": 5,
    "link_by_message": "false",  # truthy, so coercing it would turn linking on
    "tractability_threshold": True,  # a bool is an int, but not a count
}


@pytest.mark.parametrize("field", list(BAD_CONFIG_VALUES))
def test_config_rejects_non_string_fields(tmp_path, field):
    obj = {"versions": [{"label": "a", "snapshot": "s"}], "issues": "i", "commits": "c"}
    target = obj["versions"][0] if field in ("label", "snapshot") else obj
    target[field] = BAD_CONFIG_VALUES[field]
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_obj(obj, base_dir=tmp_path)


@pytest.mark.parametrize(
    "field", ["issues", "commits", "snapshot", "exclusions", "path_rules", "output_dir"]
)
def test_config_rejects_empty_paths(tmp_path, field):
    # An empty path would name the config's directory, or silently mean
    # "no exclusions" or "the default rules".
    obj = {"versions": [{"label": "a", "snapshot": "s"}], "issues": "i", "commits": "c"}
    target = obj["versions"][0] if field == "snapshot" else obj
    target[field] = ""
    with pytest.raises(ConfigError, match=f"^(config|version) `{field}` must not be empty$"):
        RunConfig.from_obj(obj, base_dir=tmp_path)


def test_config_needs_two_versions(tmp_path, capsys):
    # One version makes no pair, so its snapshot would never be read.
    config_path = write_mini_project(tmp_path)
    config_obj = json.loads(config_path.read_text())
    config_obj["versions"] = [{"label": "1.0.0", "snapshot": "missing.rsf"}]
    config_path.write_text(json.dumps(config_obj))
    code = main(["pipeline", "--config", str(config_path), "--strict"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: config needs at least two versions\n"
    assert not (tmp_path / "out").exists()

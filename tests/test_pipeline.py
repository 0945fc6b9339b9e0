import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from archdd import pipeline
from archdd.cli import main
from archdd.decisions import DecisionKind
from archdd.errors import ConfigError
from archdd.pipeline import RunConfig, run_pipeline

from conftest import output_digests, run_cli_with_hash_seed, write_mini_project


def test_mini_project_matches_hand_derived_ledger(mini_project):
    config = RunConfig.from_file(mini_project)
    result = run_pipeline(config)
    assert not result.failures
    assert len(result.outcomes) == 1
    outcome = result.outcomes[0]

    assert len(outcome.changes) == 4
    by_component = {
        (c.target_component or c.source_component): c for c in outcome.changes
    }
    assert set(by_component) == {"core", "io", "web", "metrics"}
    assert by_component["metrics"].kind.value == "added"
    assert by_component["core"].delta_entities == {"app.core.Cache"}
    assert by_component["io"].delta_entities == {"app.util.Log"}
    assert by_component["web"].delta_entities == {"thirdparty.jetty.Http"}

    assert outcome.impact.entries == {
        "APP-1": frozenset({"app.core.Cache", "app.core.Engine"}),
        "APP-2": frozenset({"app.core.Cache", "app.util.Log"}),
        "APP-3": frozenset({"app.metrics.Meter"}),
    }
    assert outcome.impact.diagnostics.excluded_entity_count == 1
    assert outcome.impact.diagnostics.skipped_paths == ["docs/metrics.md"]

    kinds = sorted(d.kind.value for d in outcome.decisions)
    assert kinds == ["crosscutting", "simple"]
    crosscutting = next(d for d in outcome.decisions if d.kind is DecisionKind.CROSSCUTTING)
    simple = next(d for d in outcome.decisions if d.kind is DecisionKind.SIMPLE)
    assert crosscutting.issue_ids == {"APP-1", "APP-2"}
    assert crosscutting.change_ids == {by_component["core"].id, by_component["io"].id}
    assert simple.issue_ids == {"APP-3"}
    assert simple.change_ids == {by_component["metrics"].id}

    stats = outcome.stats
    assert stats.coverage_before_cleanup == Fraction(3, 4)
    assert stats.coverage_after_cleanup == Fraction(1)
    assert stats.coverage_before_cleanup < stats.coverage_after_cleanup
    assert by_component["web"] not in outcome.clean_changes
    assert stats.issues_in_decisions == 3
    assert stats.avg_issues_per_decision == Fraction(3, 2)
    assert stats.avg_changes_per_decision == Fraction(3, 2)

    # entity overlap diagnostic: all 4 distinct mapped entities exist in the v2 universe
    assert outcome.entity_overlap == (4, 4)


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


def test_pipeline_reruns_byte_identical(mini_project):
    config = RunConfig.from_file(mini_project)
    first = run_pipeline(config)
    first_bytes = (config.output_dir / "run.json").read_bytes()
    second = run_pipeline(config)
    second_bytes = (config.output_dir / "run.json").read_bytes()
    assert first_bytes == second_bytes
    assert first.run_doc == second.run_doc


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
    assert result.outcomes and not result.failures
    assert any(outcome.decisions for outcome in result.outcomes)
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


@pytest.mark.parametrize("write_project", [write_mini_project, write_small_history])
def test_report_prints_the_sections_of_summary_txt(tmp_path, capsys, write_project):
    config = RunConfig.from_file(write_project(tmp_path))
    run_pipeline(config)
    run_json = str(config.output_dir / "run.json")
    printed = {}
    for which in ("summary", "coverage", "distribution"):
        assert main(["report", "--in", run_json, "--out", which]) == 0
        printed[which] = capsys.readouterr().out
    assert (config.output_dir / "summary.txt").read_text(encoding="utf-8") == (
        printed["summary"] + "\ncoverage\n" + printed["coverage"]
        + "\ndecision kinds\n" + printed["distribution"]
    )


def _decision_rows(decisions):
    keys = ("id", "kind", "issue_ids", "change_ids", "from_version", "to_version")
    return [{key: decision[key] for key in keys} for decision in decisions]


@pytest.mark.parametrize("write_project", [write_mini_project, write_small_history])
def test_stage_commands_agree_with_the_pipeline(tmp_path, write_project):
    """Each pair run through the three stage commands gives run.json's change ids and decisions."""
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
        decisions_doc = json.loads(decisions.read_text(encoding="utf-8"))
        assert _decision_rows(decisions_doc["decisions"]) == _decision_rows(pair["decisions"])


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
    result = run_pipeline(RunConfig.from_file(path))
    outcome = result.outcomes[0]
    assert outcome.changes == frozenset()
    assert outcome.decisions == []
    assert outcome.stats.coverage_before_cleanup == Fraction(1)


def test_pipeline_three_versions_two_pairs(tmp_path):
    write_mini_project(tmp_path)
    (tmp_path / "arch-1.2.0.rsf").write_text(
        (tmp_path / "arch-1.1.0.rsf").read_text() + "contain core app.core.Planner\n"
    )
    config_obj = json.loads((tmp_path / "config.json").read_text())
    config_obj["versions"].append({"label": "1.2.0", "snapshot": "arch-1.2.0.rsf"})
    path = tmp_path / "config3.json"
    path.write_text(json.dumps(config_obj))
    result = run_pipeline(RunConfig.from_file(path))
    assert len(result.outcomes) == 2
    assert [(o.from_version, o.to_version) for o in result.outcomes] == [
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
    assert len(result.outcomes) == 1  # the good pair still ran
    assert len(result.failures) == 1
    assert result.failures[0]["from_version"] == "1.1.0"
    assert "snapshot line 1" in result.failures[0]["error"]


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
    assert [(o.from_version, o.to_version) for o in streamed.outcomes] == [
        ("1.0.0", "1.1.0"), ("1.4.0", "1.5.0")
    ]

    monkeypatch.setattr(pipeline, "parse_snapshot", lambda text, label, base: parse(text, label))
    config = RunConfig.from_file(path)
    config.output_dir = tmp_path / "baseless"
    baseless = run_pipeline(config)
    assert baseless.failures == streamed.failures
    assert output_digests(config.output_dir) == output_digests(tmp_path / "out")


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
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

import json
import random

import pytest

from archdd.errors import ConfigError, RecordParseError
from archdd.ingestion import (
    CommitRecord,
    DEFAULT_PATH_RULES,
    IssueRecord,
    PathRule,
    apply_exclusions,
    build_impact_list,
    convert_name_status_log,
    load_commits,
    load_exclusions,
    load_issues,
    load_path_rules,
    path_to_entity,
    select_issues,
    serialize_commits,
)


def issue(id, **kw):
    defaults = dict(resolved=True, merged=True, versions=frozenset({"v2"}))
    defaults.update(kw)
    return IssueRecord(id=id, **defaults)


def test_load_issues_single_record():
    text = json.dumps(
        {"id": "A-1", "summary": "s", "resolved": True, "merged": True,
         "versions": ["v1"], "commits": ["c1"]}
    )
    records = load_issues(text)
    assert len(records) == 1
    assert records[0].id == "A-1"
    assert records[0].versions == {"v1"}
    assert records[0].commit_ids == {"c1"}


def test_load_issues_missing_id_is_error():
    with pytest.raises(RecordParseError) as excinfo:
        load_issues('{"summary": "no id"}')
    assert excinfo.value.lineno == 1


def test_load_issues_empty_input():
    assert load_issues("") == []


def test_load_issues_reports_line_numbers_and_duplicates():
    good = json.dumps({"id": "A-1"})
    with pytest.raises(RecordParseError) as excinfo:
        load_issues(good + "\nnot json\n")
    assert excinfo.value.lineno == 2
    with pytest.raises(RecordParseError) as excinfo:
        load_issues(good + "\n" + good)
    assert "duplicate issue id" in str(excinfo.value)


def test_load_issues_ignores_unknown_fields_and_defaults():
    records = load_issues('{"id": "A-1", "status": "weird", "priority": 3}')
    record = records[0]
    assert record.summary == "" and not record.resolved and not record.merged
    assert record.versions == frozenset() and record.commit_ids == frozenset()


def test_load_issues_type_errors():
    with pytest.raises(RecordParseError):
        load_issues('{"id": "A-1", "resolved": "yes"}')
    with pytest.raises(RecordParseError):
        load_issues('{"id": "A-1", "versions": "v1"}')
    with pytest.raises(RecordParseError):
        load_issues('[1, 2]')


def test_select_issues_filters():
    issues = [
        issue("A-1"),
        issue("A-2", versions=frozenset({"v9"})),
        issue("A-3", resolved=False),
        issue("A-4", merged=False),
    ]
    selected = select_issues(issues, "v2")
    assert [i.id for i in selected] == ["A-1"]
    assert select_issues(selected, "v2") == selected  # idempotent


def test_path_to_entity_java_default():
    entity = path_to_entity("src/java/org/apache/hadoop/fs/FileSystem.java")
    assert entity == "org.apache.hadoop.fs.FileSystem"
    assert path_to_entity("src/main/java/a/B.java") == "a.B"
    assert path_to_entity("README.md") is None
    assert path_to_entity("src/java/.java") is None  # empty derivation rejected
    for space in (" ", "\t", "\u3000", "\x1c", "\xa0"):  # names cannot hold whitespace
        assert path_to_entity(f"src/main/java/a/B{space}C.java") is None


def test_path_to_entity_first_match_wins():
    rules = [
        PathRule("src/*.py", "src/", ".py", ("/", ".")),
        PathRule("src/*.py", "", ".py", ("/", ".")),
    ]
    assert path_to_entity("src/a/b.py", rules) == "a.b"


def test_path_rule_glob_and_prefix_matching():
    glob_rule = PathRule("lib/*/gen/*.cc", "lib/", ".cc", ("/", "::"))
    assert glob_rule.matches("lib/x/gen/y.cc")
    assert not glob_rule.matches("lib/x/src/y.cc")
    prefix_rule = PathRule("vendor/", "vendor/", "")
    assert prefix_rule.matches("vendor/thing.java")
    assert not prefix_rule.matches("src/vendor.java")


def test_apply_exclusions_prefix_boundary():
    entities = frozenset({"org.mortbay.jetty.Server", "org.apache.hadoop.fs.FS"})
    assert apply_exclusions(entities, ["org.mortbay"]) == {"org.apache.hadoop.fs.FS"}
    assert apply_exclusions(entities, []) == entities
    mixed = frozenset({"org.apache.x", "org.apachefoo.x", "org.apache"})
    assert apply_exclusions(mixed, ["org.apache"]) == {"org.apachefoo.x"}
    # trailing separator in the prefix is honoured too
    assert apply_exclusions(mixed, ["org.apache."]) == {"org.apachefoo.x", "org.apache"}


def test_load_exclusions_skips_comments():
    assert load_exclusions("# c\n\norg.x\n org.y \n") == ["org.x", "org.y"]


def test_load_path_rules():
    text = json.dumps(
        {
            "rules": [
                {"match": "src/*.scala", "strip_prefix": "src/", "strip_suffix": ".scala",
                 "separator_replacement": ["/", "."]}
            ]
        }
    )
    rules = load_path_rules(text)
    assert rules[0].derive("src/a/B.scala") == "a.B"
    with pytest.raises(ConfigError):
        load_path_rules("{}")
    with pytest.raises(ConfigError):
        load_path_rules(json.dumps({"rules": [{"strip_prefix": "x"}]}))
    with pytest.raises(ConfigError):
        load_path_rules(json.dumps({"rules": [{"match": "x", "separator_replacement": ["/"]}]}))


def commits_for(mapping):
    return [
        CommitRecord(id=cid, paths=frozenset(paths)) for cid, paths in mapping.items()
    ]


def test_build_impact_list_basic_union():
    issues = [issue("A-1", commit_ids=frozenset({"c1"}))]
    commits = commits_for({"c1": ["src/a/X.java", "src/a/Y.java"]})
    impact = build_impact_list(issues, commits, version_pair=("v1", "v2"))
    assert impact.entries == {"A-1": frozenset({"a.X", "a.Y"})}


def test_build_impact_list_shared_commit_overlap():
    shared = commits_for({"c1": ["src/a/X.java"]})
    issues = [
        issue("A-1", commit_ids=frozenset({"c1"})),
        issue("A-2", commit_ids=frozenset({"c1"})),
    ]
    impact = build_impact_list(issues, shared, version_pair=("v1", "v2"))
    assert impact.entries["A-1"] == impact.entries["A-2"] == frozenset({"a.X"})


def test_build_impact_list_empty_and_missing_commits():
    issues = [
        issue("A-1"),
        issue("A-2", commit_ids=frozenset({"ghost"})),
    ]
    impact = build_impact_list(issues, [], version_pair=("v1", "v2"))
    assert impact.entries["A-1"] == frozenset()
    assert impact.entries["A-2"] == frozenset()
    assert impact.diagnostics.orphaned_commit_refs == [("A-2", "ghost")]


def test_build_impact_list_applies_exclusions_and_counts():
    issues = [issue("A-1", commit_ids=frozenset({"c1"}))]
    commits = commits_for({"c1": ["src/a/X.java", "src/ext/jetty/S.java", "docs/readme.md"]})
    impact = build_impact_list(
        issues, commits, exclusions=["ext.jetty"], version_pair=("v1", "v2")
    )
    assert impact.entries["A-1"] == frozenset({"a.X"})
    assert impact.diagnostics.excluded_entity_count == 1
    assert impact.diagnostics.skipped_paths == ["docs/readme.md"]


def test_build_impact_list_link_by_message_fallback():
    issues = [issue("A-1")]
    commits = [CommitRecord(id="c9", paths=frozenset({"src/a/Z.java"}),
                            issue_keys=frozenset({"A-1"}))]
    default = build_impact_list(issues, commits, version_pair=("v1", "v2"))
    assert default.entries["A-1"] == frozenset()
    linked = build_impact_list(
        issues, commits, version_pair=("v1", "v2"), link_by_message=True
    )
    assert linked.entries["A-1"] == frozenset({"a.Z"})


def test_build_impact_list_monotone_in_commits():
    rng = random.Random(8)
    paths = [f"src/p{i}/C{i}.java" for i in range(10)]
    base_commits = commits_for({"c1": rng.sample(paths, 4)})
    extra_commits = base_commits + commits_for({"c2": rng.sample(paths, 4)})
    small = build_impact_list(
        [issue("A-1", commit_ids=frozenset({"c1"}))], base_commits, version_pair=("a", "b")
    )
    large = build_impact_list(
        [issue("A-1", commit_ids=frozenset({"c1", "c2"}))], extra_commits,
        version_pair=("a", "b"),
    )
    assert small.entries["A-1"] <= large.entries["A-1"]


def test_load_commits_and_duplicates():
    text = '{"id": "c1", "paths": ["a"], "issue_keys": ["A-1"]}'
    commits = load_commits(text)
    assert commits[0].paths == {"a"}
    with pytest.raises(RecordParseError):
        load_commits(text + "\n" + text)
    with pytest.raises(RecordParseError):
        load_commits('{"paths": []}')


def test_convert_name_status_log_commit_header_style():
    raw = (
        "commit 6a1f2d3c4b5e6f708192a3b4c5d6e7f801920304\n"
        "Author: someone\n"
        "\n"
        "    APP-7 fix reader retry loop\n"
        "\n"
        "M\tsrc/main/java/app/io/Reader.java\n"
        "R100\tsrc/old/Name.java\tsrc/new/Name.java\n"
    )
    commits = convert_name_status_log(raw)
    assert len(commits) == 1
    commit = commits[0]
    assert commit.id.startswith("6a1f2d3c")
    assert commit.issue_keys == {"APP-7"}
    assert commit.paths == {
        "src/main/java/app/io/Reader.java",
        "src/old/Name.java",
        "src/new/Name.java",
    }


def test_convert_name_status_log_bare_hash_style():
    raw = (
        "9f8e7d6c5b4a39281706f5e4d3c2b1a098765432\n"
        "HDFS-12 and HDFS-34 mentioned here\n"
        "A\tsrc/x/Y.java\n"
        "\n"
        "0123456789abcdef0123456789abcdef01234567\n"
        "no files changed\n"
    )
    commits = convert_name_status_log(raw)
    assert [len(c.paths) for c in commits] == [1, 0]
    assert commits[0].issue_keys == {"HDFS-12", "HDFS-34"}
    round_tripped = load_commits(serialize_commits(commits))
    assert round_tripped == commits


def test_default_rules_are_ordered_most_specific_first():
    assert [rule.strip_prefix for rule in DEFAULT_PATH_RULES] == [
        "src/main/java/",
        "src/java/",
        "src/",
    ]

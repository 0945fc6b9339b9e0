import json
import random
from collections import Counter

import pytest

from archdd import ingestion
from archdd.errors import ConfigError, RecordParseError
from archdd.ingestion import (
    CommitRecord,
    DEFAULT_PATH_RULES,
    IssueRecord,
    PathRule,
    add_message_links,
    build_impact_lists,
    convert_name_status_log,
    is_excluded,
    load_commits,
    load_exclusions,
    load_issues,
    load_path_rules,
    path_to_entity,
    serialize_commits,
)

from conftest import under_namespace


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
    # a repeated key would keep only its last value: the record would load as X-2
    with pytest.raises(RecordParseError, match="repeated key 'id'") as excinfo:
        load_issues(good + '\n{"id": "X-1", "id": "X-2"}')
    assert excinfo.value.lineno == 2


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


def test_load_issues_summary_must_be_a_string():
    records = load_issues('{"id": "A-1", "summary": ""}\n{"id": "A-2", "summary": null}')
    assert [record.summary for record in records] == ["", ""]
    with pytest.raises(RecordParseError) as excinfo:
        load_issues('{"id": "A-1", "summary": 5}')
    assert str(excinfo.value) == "record line 1: field 'summary' must be a string"


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_jsonl_lines_end_only_where_json_forbids_a_raw_line_end(char):
    # JSON allows these raw in a string; str.splitlines would break a record there.
    issue_line = json.dumps({"id": "A-1", "summary": f"x{char}y"}, ensure_ascii=False)
    commit_line = json.dumps({"id": "c1", "paths": [f"a{char}b"]}, ensure_ascii=False)
    assert [r.summary for r in load_issues(issue_line + "\n")] == [f"x{char}y"]
    assert load_commits(commit_line)["c1"].paths == {f"a{char}b"}
    text = issue_line + "\r\n" + json.dumps({"id": "A-2"}) + "\r" + "not json\n"
    with pytest.raises(RecordParseError) as excinfo:
        load_issues(text)
    assert excinfo.value.lineno == 3


@pytest.mark.parametrize(
    "escape, value",
    [("caf\\u00e9", "caf\u00e9"), ("\\ud83d\\ude00", "\U0001f600"), ("\\ud800", None),
     ("\\uDFFF", None)],
)
def test_only_an_unpaired_surrogate_escape_fails_to_decode(escape, value):
    """Whole JSON texts and JSON Lines records apply one surrogate test."""
    text = '{"id": "A-1", "summary": "' + escape + '"}'
    if value is None:
        with pytest.raises(ValueError) as excinfo:
            ingestion.decode_json(text, ValueError)
        assert str(excinfo.value) == "string holds an unpaired surrogate escape"
        with pytest.raises(RecordParseError) as excinfo:
            load_issues(text)
        assert str(excinfo.value) == (
            "record line 1: invalid JSON: string holds an unpaired surrogate escape"
        )
    else:
        assert ingestion.decode_json(text, ValueError) == {"id": "A-1", "summary": value}
        assert [record.summary for record in load_issues(text)] == [value]


def test_select_issues_filters():
    issues = [
        issue("A-1"),
        issue("A-2", versions=frozenset({"v9"})),
        issue("A-3", resolved=False),
        issue("A-4", merged=False),
    ]
    impacts = build_impact_lists(issues, {}, ["v2", "v9"])
    assert list(impacts["v2"]["entries"]) == ["A-1"]
    assert list(impacts["v9"]["entries"]) == ["A-2"]
    assert build_impact_lists(issues[:1], {}, ["v2"]) == {"v2": impacts["v2"]}  # idempotent


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


def test_is_excluded_prefix_boundary():
    def kept(entities, prefixes):
        return {e for e in entities if not is_excluded(e, prefixes)}

    entities = {"org.mortbay.jetty.Server", "org.apache.hadoop.fs.FS"}
    assert kept(entities, ["org.mortbay"]) == {"org.apache.hadoop.fs.FS"}
    assert kept(entities, []) == entities
    mixed = {"org.apache.x", "org.apachefoo.x", "org.apache", "org.apache$Inner", "org.apache/y"}
    assert kept(mixed, ["org.apache"]) == {"org.apachefoo.x"}
    # trailing separator in the prefix is honoured too
    assert kept(mixed, ["org.apache."]) == {"org.apachefoo.x", "org.apache", "org.apache$Inner",
                                            "org.apache/y"}
    for prefixes in (["org.mortbay"], [], ["org.apache"], ["org.apache."], ["org.apache.x"]):
        for entity in entities | mixed:
            assert is_excluded(entity, prefixes) == under_namespace(entity, prefixes)


def test_load_exclusions_skips_comments():
    assert load_exclusions("# c\n\norg.x\n org.y \n") == ["org.x", "org.y"]


def test_load_exclusions_rejects_a_prefix_no_entity_can_match():
    # entity names hold no whitespace, so a trailing comment would exclude nothing
    for text, line in (("org.x\n# c\nvendor # jetty\n", 3), ("org.x y\n", 1),
                       ("vendor\tjetty\n", 1), ("vendor\u3000jetty\n", 1)):
        with pytest.raises(ConfigError) as caught:
            load_exclusions(text)
        prefix = text.splitlines()[line - 1]
        assert str(caught.value) == f"exclusion list line {line}: {prefix!r} can match no entity"


def test_load_path_rules():
    text = json.dumps(
        {
            "rules": [
                {"match": "src/*.scala", "strip_prefix": "src/", "strip_suffix": ".scala",
                 "separator_replacement": ["/", "."]}
            ]
        }
    )
    rules = load_path_rules(json.loads(text))
    assert rules[0].derive("src/a/B.scala") == "a.B"
    with pytest.raises(ConfigError):
        load_path_rules({})
    with pytest.raises(ConfigError):
        load_path_rules({"rules": [{"strip_prefix": "x"}]})
    with pytest.raises(ConfigError):
        load_path_rules({"rules": [{"match": "x", "separator_replacement": ["/"]}]})


@pytest.mark.parametrize(
    "rule",
    [
        {"match": 5},
        {"match": ""},
        {"match": None},
        {"match": ["src/"]},
        {"match": "src/", "strip_prefix": 3},
        {"match": "src/", "strip_suffix": [".java"]},
        {"match": "src/", "strip_prefix": None},
    ],
)
def test_load_path_rules_rejects_bad_fields(rule):
    with pytest.raises(ConfigError, match="rule 0"):
        load_path_rules({"rules": [rule]})


def commits_for(mapping):
    return {cid: CommitRecord(id=cid, paths=frozenset(paths)) for cid, paths in mapping.items()}


def impact_list(issues, commits, **kwargs):
    """The impact list of v2, the version ``issue`` files its records under."""
    return build_impact_lists(issues, commits, ["v2"], **kwargs)["v2"]


def test_build_impact_list_basic_union():
    issues = [issue("A-1", commit_ids=frozenset({"c1"}))]
    commits = commits_for({"c1": ["src/a/X.java", "src/a/Y.java"]})
    impact = impact_list(issues, commits)
    assert impact["entries"] == {"A-1": ["a.X", "a.Y"]}


def test_build_impact_list_shared_commit_overlap():
    shared = commits_for({"c1": ["src/a/X.java"]})
    issues = [
        issue("A-1", commit_ids=frozenset({"c1"})),
        issue("A-2", commit_ids=frozenset({"c1"})),
    ]
    impact = impact_list(issues, shared)
    assert impact["entries"]["A-1"] == impact["entries"]["A-2"] == ["a.X"]


def test_build_impact_list_empty_and_missing_commits():
    issues = [
        issue("A-1"),
        issue("A-2", commit_ids=frozenset({"ghost"})),
    ]
    impact = impact_list(issues, {})
    assert impact["entries"]["A-1"] == []
    assert impact["entries"]["A-2"] == []
    assert impact["diagnostics"]["orphaned_commit_refs"] == [{"issue": "A-2", "commit": "ghost"}]


def test_build_impact_list_applies_exclusions_and_counts():
    issues = [issue("A-1", commit_ids=frozenset({"c1"}))]
    commits = commits_for({"c1": ["src/a/X.java", "src/ext/jetty/S.java", "docs/readme.md"]})
    impact = impact_list(issues, commits, exclusions=["ext.jetty"])
    assert impact["entries"]["A-1"] == ["a.X"]
    assert impact["diagnostics"]["excluded_entity_count"] == 1
    assert impact["diagnostics"]["skipped_paths"] == ["docs/readme.md"]


def test_build_impact_list_link_by_message_fallback():
    issues = [issue("A-1"), issue("A-2", commit_ids=frozenset({"c1"}))]
    commits = {
        "c9": CommitRecord(id="c9", paths=frozenset({"src/a/Z.java"}),
                           issue_keys=frozenset({"A-1", "A-2", "X-9"})),
        "c1": CommitRecord(id="c1", paths=frozenset({"src/a/Y.java"})),
    }
    default = impact_list(issues, commits)
    assert default["entries"] == {"A-1": [], "A-2": ["a.Y"]}
    linked_issues = add_message_links(issues, commits)
    assert [i.commit_ids for i in linked_issues] == [{"c9"}, {"c1", "c9"}]
    assert issues[0].commit_ids == frozenset()  # the input records are left alone
    linked = impact_list(linked_issues, commits)
    assert linked["entries"] == {"A-1": ["a.Z"], "A-2": ["a.Y", "a.Z"]}
    uncited = [issue("A-3", commit_ids=frozenset({"c1"}))]
    assert add_message_links(uncited, commits)[0] is uncited[0]


def reference_impact_list(issues, commits, rules, exclusions, link_by_message):
    """Reference impact list that links by message key inside the call.

    Takes the commit log as a list and builds the id map and the message-key
    map on every call, so no link can leak from one call into the next.
    """
    by_id = {commit.id: commit for commit in commits}
    by_issue_key = {}
    if link_by_message:
        for commit in commits:
            for key in commit.issue_keys:
                by_issue_key.setdefault(key, set()).add(commit.id)
    orphaned, skipped, excluded, entries = [], set(), 0, {}
    for record in issues:
        commit_ids = set(record.commit_ids)
        if link_by_message:
            commit_ids |= by_issue_key.get(record.id, set())
        entities = set()
        for commit_id in sorted(commit_ids):
            commit = by_id.get(commit_id)
            if commit is None:
                orphaned.append((record.id, commit_id))
                continue
            for path in sorted(commit.paths):
                entity = path_to_entity(path, rules)
                if entity is None:
                    skipped.add(path)
                else:
                    entities.add(entity)
        kept = [entity for entity in entities if not under_namespace(entity, exclusions)]
        excluded += len(entities) - len(kept)
        entries[record.id] = sorted(kept)
    orphaned = [{"issue": issue, "commit": commit} for issue, commit in sorted(orphaned)]
    return entries, orphaned, sorted(skipped), excluded


def random_issue_side(rng):
    """A random issue export and commit log as JSON Lines text."""
    packages = ["app.core", "app.io", "org.vendor.x", "org.vendorfoo"]
    path_pool = [f"src/main/java/{p.replace('.', '/')}/C{i}.java"
                 for p in packages for i in range(3)]
    path_pool += ["docs/guide.md", "README", "src/main/java/.java"]
    issue_ids = [f"APP-{k}" for k in range(rng.randint(0, 15))]
    commit_ids = [f"c{k:03d}" for k in range(rng.randint(0, 20))]
    ghosts = ["ghost1", "ghost2", "ghost3"]  # dangling refs; also keep the pools non-empty
    commits = [
        {
            "id": cid,
            "paths": rng.sample(path_pool, rng.randint(0, 4)),
            "issue_keys": rng.sample(issue_ids + ["OTHER-1", "OTHER-2"], rng.randint(0, 2)),
        }
        for cid in commit_ids
    ]
    rng.shuffle(commits)
    issues = [
        {
            "id": iid,
            "resolved": rng.random() < 0.9,
            "merged": rng.random() < 0.9,
            "versions": rng.sample(["v1", "v2", "v3"], rng.randint(0, 3)),
            "commits": rng.sample(commit_ids + ghosts, rng.randint(0, 3)),
        }
        for iid in issue_ids
    ]
    return (
        "".join(json.dumps(obj) + "\n" for obj in issues),
        "".join(json.dumps(obj) + "\n" for obj in commits),
    )


# A prefix rule and a glob rule ahead of a second prefix rule, so a path
# can fall to a later rule or to none.
MIXED_RULES = (
    PathRule("src/main/java/app/", "src/main/java/", ".java"),
    PathRule("src/*/org/*.java", "src/main/java/", ".java"),
    PathRule("docs/", "docs/", ".md"),
)


def test_message_links_at_load_match_per_call_reference():
    """Per-run impact lists (one issue index, each path and entity decided once)
    equal a plain per-version scan plus the per-call reference."""
    rng = random.Random(4242)
    versions = ["v1", "v2", "v3", "v4"]  # no issue lists v4
    relinked = multi_version = shared_paths = 0
    for _ in range(100):
        issues_text, commits_text = random_issue_side(rng)
        issues = load_issues(issues_text)
        commits = load_commits(commits_text)
        assert list(commits.values()) == [
            CommitRecord(
                id=obj["id"], paths=frozenset(obj["paths"]), issue_keys=frozenset(obj["issue_keys"])
            )
            for obj in map(json.loads, commits_text.splitlines())
        ]
        exclusions = rng.choice([[], ["org.vendor"], ["org.vendor.", "app.io"]])
        rules = rng.choice([DEFAULT_PATH_RULES, MIXED_RULES])
        linked = add_message_links(issues, commits)
        selected = {
            version: [i for i in issues if i.resolved and i.merged and version in i.versions]
            for version in versions
        }
        multi_version += sum(len(i.versions) > 1 for i in selected["v1"])
        paths_by_version = [
            {path for i in selected[v] for c in i.commit_ids if c in commits
             for path in commits[c].paths}
            for v in versions
        ]
        shared_paths += len(paths_by_version[0] & paths_by_version[1])
        entries_by_mode = []
        for source, link_by_message in ((issues, False), (linked, True)):
            impacts = build_impact_lists(source, commits, versions, rules, exclusions)
            assert list(impacts) == versions
            entries_by_version = {}
            for version in versions:
                entries, orphaned, skipped, excluded = reference_impact_list(
                    selected[version], list(commits.values()), rules, exclusions,
                    link_by_message,
                )
                impact = impacts[version]
                assert list(impact["entries"].items()) == list(entries.items())
                assert impact["diagnostics"]["orphaned_commit_refs"] == orphaned
                assert impact["diagnostics"]["skipped_paths"] == skipped
                assert impact["diagnostics"]["excluded_entity_count"] == excluded
                entries_by_version[version] = entries
            entries_by_mode.append(entries_by_version)
        unlinked, relinked_entries = entries_by_mode
        relinked += sum(
            unlinked[v][key] != relinked_entries[v][key] for v in versions for key in unlinked[v]
        )
    assert relinked > 100  # message links change many entries, so both modes are exercised
    assert multi_version > 100 and shared_paths > 100


def test_build_impact_lists_decides_each_path_and_entity_once(monkeypatch):
    tested = Counter()  # first argument of each call: a path, or an entity

    def counted(real):
        return lambda first, *rest: tested.update([first]) or real(first, *rest)

    for name in ("path_to_entity", "is_excluded"):
        monkeypatch.setattr(ingestion, name, counted(getattr(ingestion, name)))
    commits = commits_for(
        {"c1": ["src/a/X.java", "docs/x.md"], "c2": ["src/a/X.java", "src/v/Y.java"]}
    )
    issues = [
        issue("A-1", versions=frozenset({"v1", "v2"}), commit_ids=frozenset({"c1"})),
        issue("A-2", versions=frozenset({"v2", "v3"}), commit_ids=frozenset({"c1", "c2"})),
    ]
    impacts = build_impact_lists(issues, commits, ["v1", "v2", "v3"], exclusions=["v"])
    assert impacts["v2"]["entries"] == {"A-1": ["a.X"], "A-2": ["a.X"]}
    assert impacts["v3"]["diagnostics"]["excluded_entity_count"] == 1
    paths = {"src/a/X.java", "docs/x.md", "src/v/Y.java"}
    assert tested == Counter(paths | {"a.X", "v.Y"})  # each path and each entity once


def test_build_impact_list_monotone_in_commits():
    rng = random.Random(8)
    paths = [f"src/p{i}/C{i}.java" for i in range(10)]
    base_commits = commits_for({"c1": rng.sample(paths, 4)})
    extra_commits = base_commits | commits_for({"c2": rng.sample(paths, 4)})
    small = impact_list([issue("A-1", commit_ids=frozenset({"c1"}))], base_commits)
    large = impact_list(
        [issue("A-1", commit_ids=frozenset({"c1", "c2"}))], extra_commits
    )
    assert set(small["entries"]["A-1"]) <= set(large["entries"]["A-1"])


def test_joined_array_counterexample_fails_at_line_one():
    # Joined into one array, these three invalid lines would decode as three objects.
    text = '{"a": [{}\n{}]}\n{}, {}\n'
    for load in (load_issues, load_commits):
        with pytest.raises(RecordParseError) as excinfo:
            load(text)
        assert excinfo.value.lineno == 1
        assert str(excinfo.value) == "record line 1: invalid JSON: Expecting ',' delimiter"


def test_loaded_records_share_empty_and_version_sets():
    issues = load_issues(
        '{"id": "A-1", "versions": ["v1", "v2"]}\n'
        '{"id": "A-2", "versions": ["v2", "v1"], "commits": []}\n'
        '{"id": "A-3"}\n'
    )
    assert issues[0].versions is issues[1].versions
    assert issues[1].commit_ids is issues[2].commit_ids is issues[2].versions
    commits = load_commits('{"id": "c1"}\n{"id": "c2", "paths": [], "issue_keys": []}\n')
    assert commits["c1"].paths is commits["c2"].paths is commits["c2"].issue_keys
    assert not hasattr(issues[0], "__dict__") and not hasattr(commits["c1"], "__dict__")


def test_load_commits_and_duplicates():
    text = '{"id": "c1", "paths": ["a"], "issue_keys": ["A-1"]}'
    commits = load_commits(text)
    assert commits == {"c1": CommitRecord(
        id="c1", paths=frozenset({"a"}), issue_keys=frozenset({"A-1"})
    )}
    second = '{"id": "c0", "paths": []}'
    assert list(load_commits(text + "\n" + second)) == ["c1", "c0"]  # log order
    with pytest.raises(RecordParseError, match="first seen on line 1") as excinfo:
        load_commits(text + "\n" + second + "\n" + text)
    assert excinfo.value.lineno == 3
    with pytest.raises(RecordParseError):
        load_commits('{"paths": []}')
    with pytest.raises(RecordParseError, match="repeated key 'paths'"):
        load_commits('{"id": "c1", "paths": ["a"], "paths": []}')


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
    assert list(round_tripped.values()) == commits


def test_convert_name_status_log_indented_hash_opens_no_commit():
    # git indents message lines; a revert message quoting hashes stays a message.
    raw = (
        "commit 6a1f2d3c4b5e6f708192a3b4c5d6e7f801920304\n"
        "Author: someone\n"
        "\n"
        "    Revert APP-9 reader change\n"
        "\n"
        "    This reverts\n"
        "    deadbeef\n"
        "    commit 1234567 broke it\n"
        "\n"
        "M\tsrc/main/java/app/io/Reader.java\n"
        "\n"
        "commit 0123456789abcdef0123456789abcdef01234567\n"
        "\n"
        "    APP-10 follow-up\n"
        "\n"
        "A\tsrc/main/java/app/io/Writer.java\n"
    )
    commits = convert_name_status_log(raw)
    assert [commit.id for commit in commits] == [
        "6a1f2d3c4b5e6f708192a3b4c5d6e7f801920304",
        "0123456789abcdef0123456789abcdef01234567",
    ]
    assert commits[0].paths == {"src/main/java/app/io/Reader.java"}
    assert commits[0].issue_keys == {"APP-9"}
    assert commits[1].paths == {"src/main/java/app/io/Writer.java"}
    assert commits[1].issue_keys == {"APP-10"}


def test_convert_name_status_log_bare_hash_log_keeps_commit_lines_in_messages():
    # Under a bare hash (``%H`` then ``%B``) message lines are not indented,
    # so only a bare hash may open a commit once the first header was one.
    raw = (
        "9f8e7d6c5b4a39281706f5e4d3c2b1a098765432\n"
        "Revert APP-9\n"
        "commit 1234567 broke it\n"
        "M\tsrc/a/X.java\n"
    )
    commits = convert_name_status_log(raw)
    assert len(commits) == 1
    assert commits[0].id == "9f8e7d6c5b4a39281706f5e4d3c2b1a098765432"
    assert commits[0].paths == {"src/a/X.java"}
    assert commits[0].issue_keys == {"APP-9"}


def test_convert_name_status_log_skips_lines_before_the_first_header():
    raw = "M\tsrc/early/A.java\nAPP-1 stray note\ncommit 6a1f2d3\nM\tsrc/b/B.java\n"
    [commit] = convert_name_status_log(raw)
    assert commit.id == "6a1f2d3"
    assert commit.paths == {"src/b/B.java"}
    assert commit.issue_keys == set()


def test_convert_name_status_log_merges_a_repeated_commit_id():
    # `git log -m --name-status` prints a merge once per parent
    raw = (
        "commit abcdef1 (from 1234567)\nMerge: 1234567 7654321\n\n    APP-1 merge\n\n"
        "M\tsrc/a/X.java\n"
        "commit abcdef1 (from 7654321)\nMerge: 1234567 7654321\n\n    APP-2 merge\n\n"
        "A\tsrc/b/Y.java\n"
        "commit 1234567\n    APP-3\n\nM\tsrc/a/X.java\n"
    )
    assert convert_name_status_log(raw) == [
        CommitRecord("abcdef1", frozenset({"src/a/X.java", "src/b/Y.java"}),
                     frozenset({"APP-1", "APP-2"})),
        CommitRecord("1234567", frozenset({"src/a/X.java"}), frozenset({"APP-3"})),
    ]


# str.splitlines also breaks at these; a log line ends only at \n, \r\n or \r.
UNICODE_SEPARATORS = ["\u2028", "\u2029", "\x85"]


@pytest.mark.parametrize("char", UNICODE_SEPARATORS)
def test_convert_name_status_log_keeps_a_unicode_separator_in_a_path(char):
    [commit] = convert_name_status_log(f"commit abcdef1\nM\tsrc/a{char}b.java\n")
    assert commit.paths == {f"src/a{char}b.java"}


@pytest.mark.parametrize("char", UNICODE_SEPARATORS)
def test_convert_name_status_log_opens_no_commit_after_a_unicode_separator(char):
    # the indented message line stays one line, so its quoted hash opens nothing
    raw = f"commit abcdef1\n    Revert{char}commit 1234567 broke it\nM\tsrc/a/X.java\n"
    [commit] = convert_name_status_log(raw)
    assert (commit.id, commit.paths) == ("abcdef1", {"src/a/X.java"})


@pytest.mark.parametrize("char", UNICODE_SEPARATORS)
def test_load_exclusions_ends_lines_only_at_line_breaks(char):
    # split at the separator, `app` would be a prefix and exclude every app.* entity;
    # whole, the line holds whitespace and is rejected as a prefix no entity can match
    with pytest.raises(ConfigError, match="line 3: "):
        load_exclusions(f"vendor\n# note\r\nthirdparty.x{char}app\rlib\n")
    assert load_exclusions("vendor\n# note\r\nthirdparty.x\rlib\n") == [
        "vendor", "thirdparty.x", "lib"
    ]


def test_convert_name_status_log_reads_crlf_and_cr_line_ends():
    raw = "commit abcdef1\n    APP-1 fix\n\nM\tsrc/a/X.java\ncommit 1234567\nA\tsrc/b/Y.java\n"
    expected = [
        CommitRecord(id="abcdef1", paths=frozenset({"src/a/X.java"}),
                     issue_keys=frozenset({"APP-1"})),
        CommitRecord(id="1234567", paths=frozenset({"src/b/Y.java"})),
    ]
    assert convert_name_status_log(raw) == expected
    assert convert_name_status_log(raw.replace("\n", "\r\n")) == expected
    assert convert_name_status_log(raw.replace("\n", "\r")) == expected


def test_default_rules_are_ordered_most_specific_first():
    assert [rule.strip_prefix for rule in DEFAULT_PATH_RULES] == [
        "src/main/java/",
        "src/java/",
        "src/",
    ]

"""Fuzz the CLI: whatever lands in an input slot, exit 0 or 1 with one line.

Every input slot of ``build-impact``, ``extract-decisions``, ``report``,
``analyze-changes`` and ``pipeline`` gets raw bytes, arbitrary JSON, or a
near-valid document whose fields now and then hold an arbitrary JSON value.
Documents are kept mostly valid so that later slots and the stages behind
the parsers are reached, not only the first parser. The version labels of
``analyze-changes`` and ``build-impact`` come from arguments and file names,
so those are drawn too, lone surrogates included. An empty path option is
named in its error, whatever the subcommand, and a path of more than one
line is rejected, whatever the option or config key.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archdd.cli import cli, main

from conftest import MINI_SNAPSHOT_A, MINI_SNAPSHOT_B, write_mini_project

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=4,
)


def mostly(strategy, other, odds=10):
    """Draw from ``other`` about once in ``odds`` draws, else from ``strategy``."""
    return st.integers(1, odds).flatmap(lambda i: other if i == odds else strategy)


def maybe(strategy):
    """A well-typed record field, rarely replaced by any JSON value."""
    return mostly(strategy, json_values, odds=40)


def often_bad(strategy):
    """A rule field, replaced by any JSON value one time in three (rules are few)."""
    return mostly(strategy, json_values, odds=3)


ISSUE_IDS = ["APP-1", "APP-2", "APP-3"]
COMMIT_IDS = ["c1", "c2", "c3"]
PATHS = ["src/main/java/app/A.java", "src/app/B.java", "docs/x.md", "src/", "lib/a.cc"]

issue_records = st.fixed_dictionaries(
    {
        "id": maybe(st.sampled_from(ISSUE_IDS)),
        "resolved": maybe(st.just(True)),
        "merged": maybe(st.just(True)),
        "versions": maybe(st.sampled_from([["2.0"], ["1.0", "2.0"], ["1.0"], []])),
        "commits": maybe(st.lists(st.sampled_from(COMMIT_IDS + ["ghost"]), min_size=1)),
    },
    optional={"summary": maybe(st.text(max_size=8))},
)
commit_records = st.fixed_dictionaries(
    {
        "id": maybe(st.sampled_from(COMMIT_IDS)),
        "paths": maybe(st.lists(st.sampled_from(PATHS) | st.text(max_size=12), min_size=1)),
    },
    optional={"issue_keys": maybe(st.lists(st.sampled_from(ISSUE_IDS)))},
)
rule_entries = st.fixed_dictionaries(
    {"match": often_bad(st.sampled_from(["src/", "src/*.java", "src/main/java/", "docs/", ""]))},
    optional={
        "strip_prefix": often_bad(st.sampled_from(["src/", "src/main/java/"])),
        "strip_suffix": often_bad(st.just(".java")),
        "separator_replacement": often_bad(st.sampled_from([["/", "."], ["/", ""], ["", "x"]])),
    },
)


def record_key(obj):
    return repr(obj.get("id")) if isinstance(obj, dict) else "not an object"


def jsonl(records):
    """JSON Lines bytes, mostly without duplicate ids so that later slots are read too."""
    unique = st.lists(maybe(records), min_size=1, max_size=4, unique_by=record_key)
    return mostly(unique, st.lists(maybe(records), max_size=4)).map(
        lambda objs: "".join(json.dumps(obj) + "\n" for obj in objs).encode()
    )


def slot(documents):
    """Mostly a near-valid document; else raw bytes or arbitrary JSON."""
    return mostly(
        documents,
        st.binary(max_size=40) | json_values.map(lambda obj: json.dumps(obj).encode()),
    )


rules_files = st.fixed_dictionaries(
    {"rules": maybe(st.lists(maybe(rule_entries), max_size=3))}
).map(lambda obj: json.dumps(obj).encode())
exclusion_files = st.lists(
    st.sampled_from(["app", "app.", "src", "#c", ""]) | st.text(max_size=8)
).map(lambda lines: "\n".join(lines).encode())


HUGE_INTEGER = b'{"id": "c1", "n": ' + b"7" * 5000 + b"}\n"
LONE_SURROGATE = b'{"id": "c1", "paths": ["src/a/\\ud800.java"]}\n'


def run_cli(argv, slots, root, reports=()):
    """Write each slot's bytes to a file under ``root``, run the CLI, check the outcome.

    Lines that start with one of ``reports`` are progress or per-pair reports,
    not errors, and are left out of the line count.
    """
    argv = list(argv)
    for option, content in slots.items():
        if content is not None:
            path = root / option.strip("-")
            path.write_bytes(content)
            argv += [option, str(path)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines(keepends=True) if not line.startswith(reports)]
    assert len(errors) == code, err  # one line on failure, nothing on success


@settings(max_examples=150, deadline=None)
@given(
    issues=slot(jsonl(issue_records)),
    commits=slot(jsonl(commit_records)),
    rules=mostly(slot(rules_files), st.none(), odds=4),
    exclusions=st.none() | slot(exclusion_files),
    link_by_message=st.booleans(),
)
@example(issues=HUGE_INTEGER, commits=b"", rules=None, exclusions=None, link_by_message=False)
@example(issues=b"", commits=LONE_SURROGATE, rules=None, exclusions=None, link_by_message=False)
def test_build_impact_never_leaks_a_traceback(issues, commits, rules, exclusions, link_by_message):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = ["build-impact", "--version", "2.0", "--out", str(root / "impact.json")]
        if link_by_message:
            argv.append("--link-by-message")
        slots = {"--issues": issues, "--commits": commits, "--rules": rules,
                 "--exclusions": exclusions}
        run_cli(argv, slots, root)


ENTITIES = ["app.A", "app.B", "app.C"]
VERSIONS = ["1.0", "2.0"]


def documents(kind, body):
    """A structured document: the header fields, then ``body``'s fields."""
    header = {
        "schema_version": maybe(st.just(1)),
        "kind": maybe(st.just(kind)),
        "from_version": maybe(st.just("1.0")),
        "to_version": maybe(st.just("2.0")),
    }
    return st.fixed_dictionaries({**header, **body}).map(lambda obj: json.dumps(obj).encode())


# Kinds and endpoints are drawn independently, so flipped kinds and null
# endpoints are common; an entity drawn twice with both ops is both added and
# removed; "move" is an unknown op.
change_entries = st.fixed_dictionaries(
    {
        "id": maybe(st.sampled_from(["ch:1", "ch:2", "ch:3"])),
        "kind": maybe(st.sampled_from(["added", "removed", "modified"])),
        "source_component": maybe(st.sampled_from([None, "core", "io"])),
        "target_component": maybe(st.sampled_from([None, "core", "web"])),
        "from_version": maybe(st.sampled_from(VERSIONS)),
        "to_version": maybe(st.sampled_from(VERSIONS)),
        "deltas": maybe(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "op": maybe(st.sampled_from(["add", "remove", "move"])),
                        "entity": maybe(st.sampled_from(ENTITIES)),
                    }
                ),
                min_size=1,
                max_size=3,
            )
        ),
    }
)
changes_documents = documents(
    "changes", {"changes": maybe(st.lists(maybe(change_entries), max_size=3))}
)
impact_documents = documents(
    "impact",
    {
        "entries": maybe(
            st.dictionaries(
                st.sampled_from(["APP-1", "APP-2"]),
                maybe(st.lists(st.sampled_from(ENTITIES), max_size=2)),
                max_size=2,
            )
        ),
        "diagnostics": maybe(st.just({"excluded_entity_count": 0})),
    },
)


def changes_document(*entries):
    return json.dumps(
        {"schema_version": 1, "kind": "changes", "from_version": "1.0", "to_version": "2.0",
         "changes": [{"id": f"ch:{i}", "kind": "added", "target_component": "web",
                      "from_version": "1.0", "to_version": "2.0",
                      "deltas": [{"op": "add", "entity": "app.A"}], **entry}
                     for i, entry in enumerate(entries)]}
    ).encode()


@settings(max_examples=150, deadline=None)
@given(changes=slot(changes_documents), impact=slot(impact_documents))
@example(changes=HUGE_INTEGER, impact=b"{}")
@example(changes=LONE_SURROGATE, impact=b"{}")
# versions of two types once reached a sort in build_decision_graph
@example(
    changes=changes_document({"to_version": 5}, {"to_version": "3.0"}),
    impact=b'{"schema_version": 1, "kind": "impact", "to_version": "2.0", "entries": {}}',
)
# a line-broken change id once split the kind message over two lines
@example(
    changes=changes_document({"id": "ch:0\n== fake -> line", "kind": "modified"}),
    impact=b'{"schema_version": 1, "kind": "impact", "to_version": "2.0", "entries": {}}',
)
def test_extract_decisions_never_leaks_a_traceback(changes, impact):
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["extract-decisions"], {"--changes": changes, "--impact": impact}, Path(tmp))


COUNT_FIELDS = [
    "issues_in_decisions", "change_count", "decision_count", "issue_links",
    "change_links", "covered_change_count", "clean_change_count",
]
pair_stats = st.fixed_dictionaries(
    {
        **{name: maybe(st.integers(-2, 5)) for name in COUNT_FIELDS},
        "kind_distribution": maybe(
            st.fixed_dictionaries(
                {k: maybe(st.integers(0, 3)) for k in ("simple", "compound", "crosscutting")}
            )
        ),
    },
    optional={"from_version": maybe(st.just("1.0")), "to_version": maybe(st.just("2.0"))},
)
run_documents = documents(
    "run",
    {"summary": maybe(st.fixed_dictionaries(
        {"pairs": maybe(st.lists(maybe(pair_stats), max_size=2)), "overall": maybe(pair_stats)}
    ))},
)


@settings(max_examples=60, deadline=None)
@given(
    run_doc=slot(run_documents),
    which=st.sampled_from(["summary", "distribution", "coverage"]),
)
@example(run_doc=HUGE_INTEGER, which="summary")
@example(run_doc=LONE_SURROGATE, which="summary")
def test_report_never_leaks_a_traceback(run_doc, which):
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["report", "--out", which], {"--in": run_doc}, Path(tmp))


snapshot_files = st.lists(
    st.tuples(
        st.sampled_from(["contain", "contain", "contain", "link", ""]),
        st.sampled_from(["core", "io", "web"]) | st.text(max_size=4),
        st.sampled_from(ENTITIES) | st.text(max_size=4),
    ),
    max_size=5,
).map(lambda rows: "".join(" ".join(row) + "\n" for row in rows).encode())


@settings(max_examples=60, deadline=None)
@given(
    arch_a=mostly(snapshot_files, st.binary(max_size=30)),
    arch_b=mostly(snapshot_files, st.binary(max_size=30)),
    fmt=st.sampled_from(["text", "structured"]),
)
def test_analyze_changes_never_leaks_a_traceback(arch_a, arch_b, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        slots = {"--arch-a": arch_a, "--arch-b": arch_b}
        run_cli(["analyze-changes", "--format", fmt], slots, Path(tmp))


# Config paths come from fixed lists: a fuzzed output_dir could point anywhere.
SNAPSHOTS = ["arch-1.0.0.rsf", "arch-1.1.0.rsf", "fuzz.rsf", "missing.rsf"]
version_entries = st.fixed_dictionaries(
    {
        "label": maybe(st.sampled_from(["1.0.0", "1.1.0", "x"])),
        "snapshot": maybe(st.sampled_from(SNAPSHOTS)),
    }
)
config_files = st.fixed_dictionaries(
    {
        "versions": maybe(st.lists(maybe(version_entries), min_size=1, max_size=3)),
        "issues": maybe(st.sampled_from(["issues.jsonl", "commits.jsonl", "missing"])),
        "commits": maybe(st.sampled_from(["commits.jsonl", "fuzz.rsf"])),
        "output_dir": mostly(st.sampled_from(["out", "out/sub"]), st.sampled_from([5, None, []])),
    },
    optional={
        "exclusions": maybe(st.sampled_from(["exclusions.txt", "fuzz.rsf"])),
        "tractability_threshold": maybe(st.integers(-1, 3)),
        "link_by_message": maybe(st.booleans()),
    },
).map(lambda obj: json.dumps(obj).encode())


@settings(max_examples=60, deadline=None)
@given(config=slot(config_files), snapshot=snapshot_files, strict=st.booleans())
@example(config=HUGE_INTEGER, snapshot=b"", strict=False)
@example(config=LONE_SURROGATE, snapshot=b"", strict=False)
def test_pipeline_config_never_leaks_a_traceback(config, snapshot, strict):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_mini_project(root)
        (root / "fuzz.rsf").write_bytes(snapshot)
        argv = ["pipeline", "--strict"] if strict else ["pipeline"]
        run_cli(argv, {"--config": config}, root, reports=("wrote ", "pair "))


# An argument or file name that is not valid UTF-8 reaches Python as text
# holding lone surrogates (b"\xff" becomes "\udcff").
labels = st.text(
    st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=8
)
file_stems = st.binary(max_size=12).filter(lambda name: b"/" not in name and b"\0" not in name)


@settings(max_examples=100, deadline=None)
@given(
    label_a=st.none() | labels,
    label_b=st.none() | labels,
    stem=file_stems,
    fmt=st.sampled_from(["text", "structured"]),
)
@example(label_a="\udcff", label_b=None, stem=b"a", fmt="structured")
@example(label_a=None, label_b=None, stem=b"\xff", fmt="text")
def test_analyze_changes_labels_never_leak_a_traceback(label_a, label_b, stem, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        arch_a = os.path.join(os.fsencode(tmp), stem + b".rsf")
        with open(arch_a, "wb") as handle:
            handle.write(MINI_SNAPSHOT_A.encode())
        root = Path(tmp)
        (root / "b.rsf").write_text(MINI_SNAPSHOT_B, encoding="utf-8")
        argv = ["analyze-changes", "--arch-a", os.fsdecode(arch_a), "--arch-b", str(root / "b.rsf"),
                "--format", fmt, "--out", str(root / "changes.out")]
        for option, label in (("--label-a", label_a), ("--label-b", label_b)):
            if label is not None:
                argv.append(f"{option}={label}")
        run_cli(argv, {}, root)


@settings(max_examples=60, deadline=None)
@given(version=labels)
@example(version="\udcff")
def test_build_impact_version_never_leaks_a_traceback(version):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_mini_project(root)
        argv = ["build-impact", "--issues", str(root / "issues.jsonl"),
                "--commits", str(root / "commits.jsonl"), f"--version={version}",
                "--out", str(root / "impact.json")]
        run_cli(argv, {}, root)


# Every path option of every subcommand, and the other options each one needs.
PATH_OPTIONS = {
    "analyze-changes": ["--arch-a", "--arch-b", "--out"],
    "build-impact": ["--issues", "--commits", "--rules", "--exclusions", "--out"],
    "extract-decisions": ["--changes", "--impact", "--out"],
    "pipeline": ["--config"],
    "convert-log": ["--in", "--out"],
    "report": ["--in"],
}
OTHER_ARGUMENTS = {"build-impact": ["--version", "2.0"], "report": ["--out", "summary"]}


def test_path_options_are_the_checked_options():
    assert sorted(cli.commands) == sorted(PATH_OPTIONS)
    for name, command in cli.commands.items():
        checked = [param.opts[0] for param in command.params if param.callback is not None]
        assert sorted(checked) == sorted(PATH_OPTIONS[name]), name


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_empty_path_options_are_named(data, tmp_path_factory):
    command = data.draw(st.sampled_from(sorted(PATH_OPTIONS)))
    order = data.draw(st.permutations(PATH_OPTIONS[command]))
    empty = data.draw(st.lists(st.sampled_from(order), min_size=1, unique=True))
    root = tmp_path_factory.mktemp("paths")
    argv = [command, *OTHER_ARGUMENTS.get(command, [])]
    for option in order:
        argv += [option, "" if option in empty else str(root / option.strip("-"))]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    first = next(option for option in order if option in empty)  # options are read in order
    assert (code, out.getvalue()) == (1, "")
    assert stderr.getvalue() == f"error: {first} must not be empty\n"
    assert list(root.iterdir()) == []


# A line break of each kind `str.splitlines` knows; a path holding one would
# split the one-line error that names it, or a line of summary.txt.
LINE_BREAKS = ["\n", "\r", "\x1c", "\u2028"]
# A valid file for each input option; --out names a file that does not exist yet.
INPUT_FILES = {
    "--arch-a": "arch-1.0.0.rsf", "--arch-b": "arch-1.1.0.rsf",
    "--issues": "issues.jsonl", "--commits": "commits.jsonl", "--rules": "rules.json",
    "--exclusions": "exclusions.txt", "--changes": "changes.json", "--impact": "impact.json",
    "--config": "config.json", ("convert-log", "--in"): "raw.log",
    ("report", "--in"): "run.json",
}


def write_every_input(root):
    """The mini project, plus a path-rules file, a raw log and the stage documents."""
    write_mini_project(root)
    (root / "rules.json").write_text('{"rules": [{"match": "src/", "strip_prefix": "src/"}]}')
    (root / "raw.log").write_text("commit abcdef1\nM\tsrc/a/B.java\n")
    arch = ["--arch-a", str(root / "arch-1.0.0.rsf"), "--arch-b", str(root / "arch-1.1.0.rsf")]
    issue_side = ["--issues", str(root / "issues.jsonl"), "--commits", str(root / "commits.jsonl")]
    for argv in (
        ["analyze-changes", *arch, "--label-a", "1.0.0", "--label-b", "1.1.0",
         "--format", "structured", "--out", str(root / "changes.json")],
        ["build-impact", *issue_side, "--version", "1.1.0", "--out", str(root / "impact.json")],
        ["pipeline", "--config", str(root / "config.json")],
    ):
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    (root / "out" / "run.json").rename(root / "run.json")
    for path in (root / "out").iterdir():
        path.unlink()
    (root / "out").rmdir()


def tree(root):
    """Every path under ``root``, so a test can see that nothing was written."""
    return sorted(path.relative_to(root) for path in root.rglob("*"))


@pytest.mark.parametrize("line_break", LINE_BREAKS, ids=ascii)
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in PATH_OPTIONS.items() for option in options],
)
def test_path_options_reject_a_path_of_more_than_one_line(tmp_path, command, option, line_break):
    """Each path option takes one line; an input file under such a name, readable
    as it is, is not read, and an output under one is not written."""
    write_every_input(tmp_path)
    argv = [command, *OTHER_ARGUMENTS.get(command, [])]
    for name in PATH_OPTIONS[command]:
        file = INPUT_FILES.get((command, name), INPUT_FILES.get(name, "result.txt"))
        if name == option:
            stem, dot, suffix = file.partition(".")
            bad = tmp_path / f"{stem}{line_break}x{dot}{suffix}"
            if (tmp_path / file).exists():
                bad.write_bytes((tmp_path / file).read_bytes())
            file = bad
        argv += [name, str(tmp_path / file)]
    before = tree(tmp_path)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert (code, out.getvalue()) == (1, "")
    assert stderr.getvalue() == f"error: {option} {str(bad)!r} must be one line\n"
    assert tree(tmp_path) == before


CONFIG_FILES = {
    "issues": "issues.jsonl", "commits": "commits.jsonl", "snapshot": "arch-1.1.0.rsf",
    "exclusions": "exclusions.txt", "path_rules": "rules.json", "output_dir": "out",
}


@pytest.mark.parametrize("line_break", LINE_BREAKS, ids=ascii)
@pytest.mark.parametrize("key", list(CONFIG_FILES))
def test_config_paths_reject_a_path_of_more_than_one_line(tmp_path, key, line_break):
    """Each config path takes one line; an input file under such a name, readable
    as it is, is not read, and no output is written."""
    write_every_input(tmp_path)
    stem, dot, suffix = CONFIG_FILES[key].partition(".")
    value = f"{stem}{line_break}x{dot}{suffix}"
    if key != "output_dir":
        (tmp_path / value).write_bytes((tmp_path / CONFIG_FILES[key]).read_bytes())
    assert_config_path_rejected(tmp_path, key, value)


def test_a_missing_snapshot_path_of_two_lines_is_rejected(tmp_path):
    # Read as given, its error split summary.txt's failed-pairs block and stderr.
    write_every_input(tmp_path)
    assert_config_path_rejected(tmp_path, "snapshot", "missing\nfake.rsf")


def assert_config_path_rejected(root, key, value):
    config_path = root / "config.json"
    config = json.loads(config_path.read_text())
    (config["versions"][1] if key == "snapshot" else config)[key] = value
    config_path.write_text(json.dumps(config))
    before = tree(root)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["pipeline", "--config", str(config_path)])
    assert (code, out.getvalue()) == (1, "")
    assert stderr.getvalue() == f"error: config `{key}` {value!r} must be one line\n"
    assert tree(root) == before

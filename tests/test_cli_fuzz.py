"""Fuzz the ingestion CLI: whatever lands in an input slot, exit 0 or 1 with one line.

Each slot of ``build-impact`` gets raw bytes, arbitrary JSON, or a near-valid
document whose fields now and then hold an arbitrary JSON value. Documents
are kept mostly valid so that later slots (rules, exclusions) and the impact
build itself are reached, not only the first parser.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from archdd.cli import main

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


@settings(max_examples=300, deadline=None)
@given(
    issues=slot(jsonl(issue_records)),
    commits=slot(jsonl(commit_records)),
    rules=mostly(slot(rules_files), st.none(), odds=4),
    exclusions=st.none() | slot(exclusion_files),
    link_by_message=st.booleans(),
)
def test_build_impact_never_leaks_a_traceback(issues, commits, rules, exclusions, link_by_message):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = ["build-impact", "--version", "2.0", "--out", str(root / "impact.json")]
        slots = {"--issues": issues, "--commits": commits, "--rules": rules,
                 "--exclusions": exclusions}
        for option, content in slots.items():
            if content is not None:
                path = root / option.strip("-")
                path.write_bytes(content)
                argv += [option, str(path)]
        if link_by_message:
            argv.append("--link-by-message")
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert err.count("\n") == code, err  # one line on failure, nothing on success

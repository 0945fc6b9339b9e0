"""The JSON Lines loaders against a copy of the one-decoder-per-line reader.

``load_issues`` and ``load_commits`` decode a line with the stock scanner
and keep its dict only when a guard proves the checked decoder would return
the same one. The reference below is the reader they replaced: every line
through the checked decoder with its repeated-key hook, every record
through the field readers and the record constructor. The two must agree
on every input: the same records in the same order, sharing the same sets,
or the same error on the same line.
"""

import json
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archdd import ingestion
from archdd.errors import RecordParseError
from archdd.ingestion import (
    CommitRecord,
    IssueRecord,
    add_message_links,
    convert_name_status_log,
    load_commits,
    load_issues,
)

# ---- reference: the reader as it was before the guarded decode ----

_NO_STRINGS = frozenset()


def _require_str(obj, key, lineno, *, required=False):
    value = obj.get(key, None)
    if value is None:
        if required:
            raise RecordParseError(lineno, f"missing required field {key!r}")
        return ""
    if not isinstance(value, str):
        raise RecordParseError(lineno, f"field {key!r} must be a string")
    if required and not value:
        raise RecordParseError(lineno, f"field {key!r} must not be empty")
    if required and value.splitlines() != [value]:  # an id is printed on one line
        raise RecordParseError(lineno, f"field {key!r} {value!r} must be one line")
    return value


def _opt_bool(obj, key, lineno):
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise RecordParseError(lineno, f"field {key!r} must be a boolean")
    return value


def _opt_str_set(obj, key, lineno):
    value = obj.get(key, _NO_STRINGS)
    if value is _NO_STRINGS:
        return value
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise RecordParseError(lineno, f"field {key!r} must be an array of strings")
    return frozenset(value) if value else _NO_STRINGS


def _json_object(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"repeated key {next(k for k, n in counts.items() if n > 1)!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)


def reference_decode_json(text, error):
    try:
        if text.startswith("\ufeff"):
            raise ValueError("Unexpected UTF-8 BOM (decode using utf-8-sig)")
        obj = _DECODER.decode(text)
        if "\\u" in text:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise error("string holds an unpaired surrogate escape") from None
    except (ValueError, RecursionError) as exc:
        raise error(getattr(exc, "msg", str(exc))) from None
    return obj


def _load_records(text, what, build):
    records = {}
    first_line = {}
    # A record ends where JSON forbids a raw line end: at \n, \r\n or \r.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        obj = reference_decode_json(
            line, lambda msg: RecordParseError(lineno, f"invalid JSON: {msg}")
        )
        if not isinstance(obj, dict):
            raise RecordParseError(lineno, "record must be a JSON object")
        record = build(obj, lineno)
        if record.id in first_line:
            raise RecordParseError(
                lineno,
                f"duplicate {what} id {record.id!r} (first seen on line {first_line[record.id]})",
            )
        first_line[record.id] = lineno
        records[record.id] = record
    return records


def _issue_from_obj(obj, lineno, version_sets):
    return IssueRecord(
        id=_require_str(obj, "id", lineno, required=True),
        summary=_require_str(obj, "summary", lineno),
        resolved=_opt_bool(obj, "resolved", lineno),
        merged=_opt_bool(obj, "merged", lineno),
        versions=version_sets.setdefault(v := _opt_str_set(obj, "versions", lineno), v),
        commit_ids=_opt_str_set(obj, "commits", lineno),
    )


def _commit_from_obj(obj, lineno):
    return CommitRecord(
        id=_require_str(obj, "id", lineno, required=True),
        paths=_opt_str_set(obj, "paths", lineno),
        issue_keys=_opt_str_set(obj, "issue_keys", lineno),
    )


def reference_load_issues(text):
    build = partial(_issue_from_obj, version_sets={})
    return list(_load_records(text, "issue", build).values())


def reference_load_commits(text):
    return _load_records(text, "commit", _commit_from_obj)


# ---- comparison ----

SET_FIELDS = {IssueRecord: ("versions", "commit_ids"), CommitRecord: ("paths", "issue_keys")}


def outcome(load, text):
    """What a loader made of ``text``: its records and how they share sets, or its error."""
    try:
        result = load(text)
    except RecordParseError as exc:
        return "error", str(exc), exc.lineno
    items = list(result.items()) if isinstance(result, dict) else list(enumerate(result))
    first_holder = {}  # id of each set object -> first (record, field) holding it
    sharing = [
        first_holder.setdefault(id(getattr(record, name)), (index, name))
        for index, (_, record) in enumerate(items)
        for name in SET_FIELDS[type(record)]
    ]
    return type(result), items, [type(record) for _, record in items], sharing


def assert_loads_like_reference(text):
    for load, reference in (
        (load_issues, reference_load_issues),
        (load_commits, reference_load_commits),
    ):
        assert outcome(load, text) == outcome(reference, text)


# ---- drawn inputs ----

# Pieces of JSON string bodies. The common ones load: plain text, the
# guard's own characters (colon, braces), escapes including a valid
# surrogate pair, a BOM inside a string, and U+2028, U+2029 and U+0085 raw,
# which JSON allows in a string and which end no record. The rare ones break
# the line: lone surrogates, a raw control character and bad escapes.
GOOD_PIECES = (
    "A-1", "c1", "v1", "v2", "", " ", "x:y", ":", "{", "}", "{}", '{\\"k\\": 1}',
    "\\u0041", "\\u00e9", "\\ud83d\\ude00", "\\uD83D\\uDE00", "\\ud7ff", "\\\\ud",
    "\\\\u", "\\\"", '\\" ', '\\":', "\\\\", "\\n", "\\/", "\u00e9 raw", "\ufeff",
    "\u2028", "\u2029", "\x85",
)
BAD_PIECES = ("\\ud800", "\\uDC00x", "\x01", "\\x", "\\u12")
KEYS = (
    '"id"', '"summary"', '"resolved"', '"merged"', '"versions"', '"commits"',
    '"paths"', '"issue_keys"', '"x"', '"a:b"', '"{"', '"}"',
)
GOOD_SCALARS = (
    "true", "false", "null", "0", "-7", "2.5", "1e3", "NaN", "Infinity", "-Infinity", "[]", "{}",
)
BAD_SCALARS = ("1" * 4301, "[" * 1200 + "]" * 1200, "tru", "01", "[1,]")
SPACES = ("", " ", " ", "\t", "  ")
RARE_SPACES = ("\r", " ", "\x0b", "\xa0")  # line breaks or whitespace to Python only


def json_strings(pieces=GOOD_PIECES):
    return st.lists(st.sampled_from(pieces), max_size=3).map(
        lambda parts: '"' + "".join(parts) + '"'
    )


GOOD_LEAVES = json_strings() | st.sampled_from(GOOD_SCALARS)
BAD_LEAVES = json_strings(GOOD_PIECES + BAD_PIECES) | st.sampled_from(BAD_SCALARS)
ANY_SPACE = st.sampled_from(SPACES) | st.sampled_from(RARE_SPACES)


def one_in(n):
    """True about once in ``n`` draws."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def json_values(draw, depth=2):
    """Any JSON value text, now and then an invalid one; objects may repeat a key."""
    if depth and draw(one_in(3)):
        items = draw(st.lists(json_values(depth - 1), max_size=3))
        if draw(st.booleans()):
            return "[" + ",".join(items) + "]"
        keys = draw(st.lists(st.sampled_from(KEYS), min_size=len(items), max_size=len(items)))
        return "{" + ", ".join(f"{k}: {v}" for k, v in zip(keys, items)) + "}"
    return draw(BAD_LEAVES if draw(one_in(12)) else GOOD_LEAVES)


JSON_VALUES = json_values()
STRING_ARRAYS = st.lists(json_strings(), max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
# Arrays of any values, mostly strings: one non-string element fails an array field.
ODD_VALUES = JSON_VALUES | st.lists(GOOD_LEAVES, min_size=1, max_size=3).map(
    lambda items: "[" + ", ".join(items) + "]"
)
# Well-typed field values, so that most records load and the guard decides.
FIELD_VALUES = {
    '"summary"': json_strings() | st.just("null"),
    '"resolved"': st.sampled_from(["true", "false"]),
    '"merged"': st.sampled_from(["true", "false"]),
    '"versions"': STRING_ARRAYS,
    '"commits"': STRING_ARRAYS,
    '"paths"': STRING_ARRAYS,
    '"issue_keys"': STRING_ARRAYS,
}


@st.composite
def record_lines(draw, key):
    """An object line: an id, then fields that are mostly well typed.

    Now and then a key repeats, a member is odd (any key, any value: nested
    objects and arrays, null, numbers, NaN, deep nesting, huge integers),
    the members are shuffled or the line is padded.
    """
    members = [('"id"', key)]
    for key in draw(st.lists(st.sampled_from(KEYS[1:]), max_size=6, unique=True)):
        odd = key not in FIELD_VALUES or draw(one_in(8))
        members.append((key, draw(ODD_VALUES if odd else FIELD_VALUES[key])))
    if draw(one_in(8)):  # a repeated key, perhaps spelled with an escape
        repeat = draw(st.sampled_from([key for key, _ in members] + ['"i\\u0064"']))
        members.append((repeat, draw(JSON_VALUES)))
    if draw(one_in(8)):
        members = draw(st.permutations(members))
    line = draw(st.sampled_from([",", ", ", " ,"])).join(
        f"{key}{draw(st.sampled_from(SPACES))}:{draw(st.sampled_from(SPACES))}{value}"
        for key, value in members
    )
    line = "{" + line + "}"
    if draw(one_in(8)):
        line = draw(ANY_SPACE) + line + draw(ANY_SPACE)
    return line


ODD_LINES = st.one_of(
    record_lines('"B-1"').map(lambda line: "\ufeff" + line),
    record_lines('"B-2"').map(lambda line: line + " x"),
    JSON_VALUES,
    st.sampled_from(["", "   ", "\t", "[1, 2]", '"s"', "5", "{", "not json", "{}, {}"]),
)


def ids(index):
    """Mostly a fresh id per line; sometimes a repeat or one the guard must see through."""
    fresh = st.just(f'"A-{index}"')
    odd = st.sampled_from(
        ['"A-0"', '"A-1"', '"c:1"', '"{"', '"\\u0041"', '""', "null", "7", '"A\\n1"', '"A\u2028"']
    )
    return odd if index and index % 5 == 0 else fresh


@st.composite
def jsonl_texts(draw):
    lines = [
        draw(ODD_LINES if draw(one_in(10)) else record_lines(draw(ids(index))))
        for index in range(draw(st.integers(0, 8)))
    ]
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\u2028"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=400, deadline=None)
@given(text=jsonl_texts())
def test_loaders_equal_the_reference(text):
    assert_loads_like_reference(text)


@pytest.mark.parametrize(
    "line",
    [
        '{"id": "A-1", "id": "A-2"}',  # repeated key
        '{"id": "A-1", "x": {"k": 1, "k": 2}}',  # nested repeated key
        '{"id": "A-1", "x": {"k": 1}, "x": 2}',
        '{"id": "A-1", "a:b": 1, "a:b": 2}',  # colons in keys offset a repeat
        '{"id": "A\\ud800"}',  # lone surrogate
        '{"id": "A\\ud83d\\ude00"}',  # paired surrogates
        '{"id": "A-1", "summary": "1' + "0" * 4300 + '"}',
        '{"id": "A-1", "n": ' + "1" * 4301 + "}",  # past the digit limit
        '{"id": "A-1", "n": ' + "[" * 5000 + "]" * 5000 + "}",  # past the recursion limit
        '{"id": "A-1", "summary": NaN}',
        '\ufeff{"id": "A-1"}',
        '{"id": "A-1"} {"id": "A-2"}',
        '[{"id": "A-1"}]',  # one brace, one colon, one member, but not an object
        '{"id": "A-1", "versions": ["v1", 2]}',
        '{"id": "c1", "paths": ["a"], "issue_keys": ["A-1", 2]}',
        '{"id": "c1", "paths": [null]}',
        '{"id": "A-1", "x": {}, "y": [{}, {}]}',  # empty nested objects
        '{"id": "A-1", "commits": null}',
        '{"id": "", "paths": ["a"]}',
        '{"id": "A-1\\r"}',  # an id holding a line break
        '{"id": "A\\u001c1"}',
        '{"id": "A\u20281"}',
        '{"id": "A\\t1"}',  # not printable, but one line
        '{"summary": "x"}',
        '{"id": 7}',
        '{"id": "A-1", "summary": 3}',
        '{"id": "A-1", "resolved": null}',
        '{"id": "A-1", "merged": 1}',
        '{"id": "A-1", "resolved": "yes", "versions": 5}',  # the first bad field is named
        '{"id": "A-1", "x": 1, "x" :2}',  # a repeat spaced off its colon
        '{"id": "A-1",\t"x":1,"x"\t:2}',
    ],
)
def test_hand_picked_lines_equal_the_reference(line):
    assert_loads_like_reference(line)
    assert_loads_like_reference(f'{{"id": "Z-0"}}\n{line}\n')


# ---- the guard: which lines reach the checked decoder ----


@pytest.fixture
def checked_calls(monkeypatch):
    """The number of calls to the checked decoder."""
    calls = Counter()
    real = ingestion.decode_json

    def counted(*args, **kwargs):
        calls["decode_json"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ingestion, "decode_json", counted)
    return calls


def clean_side(n=300):
    issues = "".join(
        json.dumps({
            "id": f"IH-{k}", "summary": f"issue {k}", "resolved": k % 3 > 0,
            "merged": k % 5 > 0, "versions": [f"v{k % 4}"] * (k % 7 > 0),
            "commits": [f"h{k}a", f"h{k}b"][: k % 3],
        }) + "\n"
        for k in range(n)
    )
    commits = "".join(
        json.dumps(
            {"id": f"h{k}", "paths": [f"src/main/java/p{k % 9}/C{k}.java"] * (k % 4 > 0)}
            | ({"issue_keys": [f"IH-{k}"]} if k % 5 == 0 else {})
        ) + "\n"
        for k in range(n)
    )
    return issues, commits


def test_clean_files_never_reach_the_checked_decoder(checked_calls):
    issues_text, commits_text = clean_side()
    issues = load_issues(issues_text)
    commits = load_commits(commits_text)
    assert len(issues) == len(commits) == 300
    assert checked_calls == Counter()
    assert outcome(lambda _: issues, None) == outcome(reference_load_issues, issues_text)
    assert outcome(lambda _: commits, None) == outcome(reference_load_commits, commits_text)


@pytest.mark.parametrize(
    "line, checked",
    [
        ('{"id": "A-1", "resolved": true, "resolved": false}', 1),  # repeated key
        ('{"id": "A-1", "x": {"y": 1}}', 1),  # nested object
        ('{"id": "A-1", "summary": "say \\"no\\": A-2"}', 1),  # quote and colon in a string
        ('{"id" : "A-1", "summary": "x: y"}', 1),  # space before a colon, colon in a string
        ('{"id":\t"A-1",\t"summary":"a\\" b: c"}', 1),  # quote and space, colon in a string
        ('{"id" : "A-1",\t"summary"\t:\t"x"}', 0),  # spaced colons
        ('{"id": "A-1", "summary": "\\ud83d\\ude00"}', 1),  # surrogate pair
        ('{"id": "A-1", "summary": "\\uD7FF"}', 1),  # an escape that might be a surrogate
        ('{"id": "A-1", "summary": "see: A-2 {x}"}', 0),  # colon and braces in a string
        ('{"id": "A-1", "summary": "caf\\u00e9"}', 0),  # \u escape, no surrogate
        ('{"id":"A-1","summary":null,"versions":[]}', 0),  # null summary, compact
        ('{"id": "A-1", "x": {}}', 0),  # empty nested object
    ],
)
def test_each_line_shape_takes_its_path(checked_calls, line, checked):
    issues_text, _ = clean_side(5)
    text = issues_text + line + "\n"
    assert outcome(load_issues, text) == outcome(reference_load_issues, text)
    assert checked_calls == Counter({"decode_json": checked} if checked else {})


def test_loaded_records_are_frozen_and_hash():
    issues_text, commits_text = clean_side(4)
    issues = load_issues(issues_text)
    commits = load_commits(commits_text)
    issue, commit = issues[1], commits["h1"]
    for record, field in ((issue, "summary"), (issue, "versions"), (commit, "paths")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
    assert hash(issue) == hash(IssueRecord(
        issue.id, issue.summary, issue.resolved, issue.merged, frozenset(issue.versions),
        frozenset(issue.commit_ids),
    ))
    assert hash(commit) == hash(CommitRecord(commit.id, frozenset(commit.paths)))
    assert {issue, commit} == {issue, commit}
    # Every producer's set fields are frozensets (a plain set would compare
    # equal), so each of its records hashes.
    linked = add_message_links(issues, commits)
    assert linked[0] is not issues[0] and linked[0].commit_ids == {"h0"}
    converted = convert_name_status_log(
        "commit abcdef1\n    IH-1 fix\n\nM\tsrc/a/X.java\ncommit 1234567\nA\tsrc/b/Y.java\n"
    )
    for record in [*issues, *commits.values(), *linked, *converted]:
        assert [type(getattr(record, name)) for name in SET_FIELDS[type(record)]] == [
            frozenset, frozenset,
        ]
        hash(record)

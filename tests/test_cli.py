import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from archdd.cli import main
from archdd.errors import InputError
from archdd.pipeline import read_input

from conftest import output_digests, run_cli_with_hash_seed, write_mini_project


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_changes_text(tmp_path, capsys):
    write_mini_project(tmp_path)
    code, out, _ = run(
        capsys,
        "analyze-changes",
        "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"),
        "--label-a", "1.0.0",
        "--label-b", "1.1.0",
    )
    assert code == 0
    assert out == (
        "changes 1.0.0 -> 1.1.0: 4\n"
        "  core modified (+1/-0 entities)\n"
        "    + app.core.Cache\n"
        "  io modified (+1/-0 entities)\n"
        "    + app.util.Log\n"
        "  metrics added (+1/-0 entities)\n"
        "    + app.metrics.Meter\n"
        "  web modified (+1/-0 entities)\n"
        "    + thirdparty.jetty.Http\n"
    )


def test_analyze_changes_structured_and_extract_chain(tmp_path, capsys):
    write_mini_project(tmp_path)
    changes_path = tmp_path / "changes.json"
    impact_path = tmp_path / "impact.json"
    code, _, _ = run(
        capsys,
        "analyze-changes",
        "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"),
        "--label-a", "1.0.0",
        "--label-b", "1.1.0",
        "--format", "structured",
        "--out", str(changes_path),
    )
    assert code == 0
    assert hashlib.sha256(changes_path.read_bytes()).hexdigest() == (
        "024758acb0930dc77db3ad9398d2c5ff2966664cf8424e75bade7de44b34a67a"
    )
    code, _, _ = run(
        capsys,
        "build-impact",
        "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(tmp_path / "commits.jsonl"),
        "--version", "1.1.0",
        "--exclusions", str(tmp_path / "exclusions.txt"),
        "--out", str(impact_path),
    )
    assert code == 0
    impact_doc = json.loads(impact_path.read_text())
    assert impact_doc["kind"] == "impact"
    assert impact_doc["entries"]["APP-3"] == ["app.metrics.Meter"]

    code, out, _ = run(
        capsys,
        "extract-decisions",
        "--changes", str(changes_path),
        "--impact", str(impact_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "decisions"
    assert sorted(d["kind"] for d in doc["decisions"]) == ["crosscutting", "simple"]
    assert doc["coverage"] == [3, 4]


# sha256 of each stage document on the mini fixture; a refactor that keeps the contract keeps these.
STAGE_GOLDEN = {
    "changes.json": "024758acb0930dc77db3ad9398d2c5ff2966664cf8424e75bade7de44b34a67a",
    "impact.json": "40695d79076b96d4a65643b8c10fbb326a866c0a6e51d0430479ce6879ce6e8a",
    "impact-excl.json": "0c82f702c312c92852fa8e0147d0b419c9f0e9a55f1f91117901b7135b951b8e",
    "decisions.json": "ac67dc80589b689fc98db6038d90056fb2ac7947ed32383523b77ce9f3b066f6",
    "decisions-excl.json": "7f729ce17194f9df38afca15eb5a3f9b51c25bd7d2684561ed6be3f8575bc631",
}


def test_stage_documents_keep_their_bytes(tmp_path, capsys):
    write_mini_project(tmp_path)
    issue_side = ("--issues", str(tmp_path / "issues.jsonl"),
                  "--commits", str(tmp_path / "commits.jsonl"), "--version", "1.1.0")
    exclusions = ("--exclusions", str(tmp_path / "exclusions.txt"))
    invocations = {
        "changes.json": ("analyze-changes", "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
                         "--arch-b", str(tmp_path / "arch-1.1.0.rsf"), "--label-a", "1.0.0",
                         "--label-b", "1.1.0", "--format", "structured"),
        "impact.json": ("build-impact", *issue_side),
        "impact-excl.json": ("build-impact", *issue_side, *exclusions),
        "decisions.json": ("extract-decisions", "--changes", str(tmp_path / "changes.json"),
                           "--impact", str(tmp_path / "impact.json")),
        "decisions-excl.json": ("extract-decisions", "--changes", str(tmp_path / "changes.json"),
                                "--impact", str(tmp_path / "impact-excl.json")),
    }
    digests = {}
    for name, argv in invocations.items():
        assert run(capsys, *argv, "--out", str(tmp_path / name))[0] == 0, name
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == STAGE_GOLDEN


def test_extract_decisions_threshold_flag(tmp_path, capsys):
    write_mini_project(tmp_path)
    changes_path = tmp_path / "changes.json"
    impact_path = tmp_path / "impact.json"
    run(
        capsys, "analyze-changes",
        "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"),
        "--label-a", "1.0.0", "--label-b", "1.1.0",
        "--format", "structured", "--out", str(changes_path),
    )
    run(
        capsys, "build-impact",
        "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(tmp_path / "commits.jsonl"),
        "--version", "1.1.0",
        "--exclusions", str(tmp_path / "exclusions.txt"),
        "--out", str(impact_path),
    )
    code, out, _ = run(
        capsys,
        "extract-decisions",
        "--changes", str(changes_path),
        "--impact", str(impact_path),
        "--tractability-threshold", "1",
    )
    assert code == 0
    doc = json.loads(out)
    tractable = {d["kind"]: d["tractable"] for d in doc["decisions"]}
    assert tractable == {"crosscutting": False, "simple": True}


def test_pipeline_cmd_and_report(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    code, out, err = run(capsys, "pipeline", "--config", str(config_path))
    assert code == 0
    assert "1.0.0 -> 1.1.0" in out
    run_json = tmp_path / "out" / "run.json"
    assert run_json.exists()

    code, out, _ = run(capsys, "report", "--in", str(run_json), "--out", "summary")
    assert code == 0 and "overall" in out
    code, out, _ = run(capsys, "report", "--in", str(run_json), "--out", "coverage")
    assert code == 0 and "0.75" in out and "1.00" in out
    code, out, _ = run(capsys, "report", "--in", str(run_json), "--out", "distribution")
    assert code == 0 and "crosscutting" in out


def test_pipeline_strict_exit_code(tmp_path, capsys):
    write_mini_project(tmp_path)
    (tmp_path / "arch-bad.rsf").write_text("garbage line here also\n")
    config_obj = json.loads((tmp_path / "config.json").read_text())
    config_obj["versions"].append({"label": "bad", "snapshot": "arch-bad.rsf"})
    strict_config = tmp_path / "strict.json"
    strict_config.write_text(json.dumps(config_obj))

    code, _, err = run(capsys, "pipeline", "--config", str(strict_config))
    assert code == 0  # failures reported but tolerated
    assert "failed" in err
    code, _, _ = run(capsys, "pipeline", "--config", str(strict_config), "--strict")
    assert code == 1


def test_pipeline_workers_option_removed(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    code, _, err = run(capsys, "pipeline", "--config", str(config_path), "--workers", "2")
    assert code == 1
    assert "No such option" in err
    assert "Traceback" not in err


def test_pipeline_rejects_non_string_config_paths(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    config_obj = json.loads(config_path.read_text())
    config_obj["versions"][0]["snapshot"] = 5
    config_path.write_text(json.dumps(config_obj))
    code, _, err = run(capsys, "pipeline", "--config", str(config_path))
    assert code == 1
    assert err.startswith("error:") and "snapshot" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field", ["issues", "commits", "snapshot", "exclusions", "path_rules", "output_dir"]
)
def test_pipeline_rejects_nul_in_config_paths(tmp_path, capsys, field):
    # The OS cannot take a path with a NUL byte: reading or mkdir raised ValueError.
    config_path = write_mini_project(tmp_path)
    config_obj = json.loads(config_path.read_text())
    target = config_obj["versions"][1] if field == "snapshot" else config_obj
    target[field] = "nope/\u0000"
    config_path.write_text(json.dumps(config_obj))
    code, out, err = run(capsys, "pipeline", "--config", str(config_path))
    assert code == 1 and out == ""
    assert err == f"error: config `{field}` must not contain a NUL character\n"
    assert not (tmp_path / "out").exists()


def test_read_input_maps_a_nul_path_to_input_error():
    with pytest.raises(InputError, match="^cannot read snapshot nope/\x00: embedded null byte$"):
        read_input("nope/\u0000", "snapshot")


def test_convert_log_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.log"
    raw.write_text(
        "commit 6a1f2d3c4b5e6f708192a3b4c5d6e7f801920304\n"
        "    APP-7 fix retry\n"
        "M\tsrc/a/B.java\n"
    )
    code, out, _ = run(capsys, "convert-log", "--in", str(raw))
    assert code == 0
    record = json.loads(out)
    assert record["paths"] == ["src/a/B.java"]
    assert record["issue_keys"] == ["APP-7"]


def test_convert_log_output_of_a_merge_log_loads(tmp_path, capsys):
    # `git log -m` prints a merge once per parent; the log must hold it once
    raw = tmp_path / "raw.log"
    raw.write_text(
        "commit abcdef1 (from 1234567)\n    APP-1 merge\n\nM\tsrc/a/X.java\n"
        "commit abcdef1 (from 7654321)\n    APP-1 merge\n\nA\tsrc/b/Y.java\n"
    )
    (tmp_path / "issues.jsonl").write_text(
        '{"id": "APP-1", "resolved": true, "merged": true, "versions": ["1.1"]}\n'
    )
    commits = tmp_path / "commits.jsonl"
    assert run(capsys, "convert-log", "--in", str(raw), "--out", str(commits))[0] == 0
    code, out, err = run(
        capsys, "build-impact", "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(commits), "--version", "1.1", "--link-by-message",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"] == {"APP-1": ["a.X", "b.Y"]}


def convert_log_from_stdin(data, *argv, **env):
    """Run ``convert-log`` in a child process with ``data`` as its standard input."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "archdd.cli", "convert-log", *argv],
        input=data, env=dict(os.environ, PYTHONPATH=str(src), **env),
        capture_output=True, timeout=120,
    )


# Strict UTF-8 stdin raised a UnicodeDecodeError; surrogateescape (the C.UTF-8
# locale's default) let b"\xff" through as "\udcff" into the commit log.
@pytest.mark.parametrize("encoding", ["utf-8", "utf-8:surrogateescape"])
def test_convert_log_rejects_undecodable_stdin(encoding):
    result = convert_log_from_stdin(
        b"commit abcdef1\nM\tsrc/\xff.java\n", PYTHONIOENCODING=encoding
    )
    assert result.returncode == 1
    assert result.stdout == b""
    err = result.stderr.decode()
    assert err.startswith("error: cannot read raw log <stdin>: ")
    assert len(err.splitlines()) == 1


def test_convert_log_stdin_matches_in_file(tmp_path):
    raw = (
        "commit 6a1f2d3c4b5e6f708192a3b4c5d6e7f801920304\r\n"
        "    APP-7 fix retry in the caf\u00e9 module\r\n"
        "M\tsrc/a/B.java\n"
        "R100\tsrc/caf\u00e9/Old.java\tsrc/caf\u00e9/New.java\n"
    ).encode("utf-8")
    (tmp_path / "raw.log").write_bytes(raw)
    from_stdin = convert_log_from_stdin(raw)
    from_file = convert_log_from_stdin(b"", "--in", str(tmp_path / "raw.log"))
    assert from_stdin.returncode == from_file.returncode == 0
    assert from_stdin.stdout == from_file.stdout
    assert "src/caf\u00e9/New.java" in json.loads(from_stdin.stdout)["paths"]


def test_convert_log_reads_no_stdin_for_an_empty_in_path():
    result = convert_log_from_stdin(b"commit abcdef1\nM\tsrc/a/B.java\n", "--in", "")
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.decode() == "error: --in must not be empty\n"


def test_empty_path_options_are_errors(tmp_path, capsys):
    """An empty --out, --rules or --exclusions names no file; it is not the default."""
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    (tmp_path / "raw.log").write_text("commit abcdef1\nM\tsrc/a/B.java\n")
    issue_side = ("build-impact", "--issues", str(tmp_path / "issues.jsonl"),
                  "--commits", str(tmp_path / "commits.jsonl"), "--version", "1.1.0")
    for argv in (
        ("analyze-changes", "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
         "--arch-b", str(tmp_path / "arch-1.1.0.rsf"), "--out", ""),
        (*issue_side, "--out", ""),
        (*issue_side, "--rules", ""),
        (*issue_side, "--exclusions", ""),
        ("extract-decisions", "--changes", str(changes_path), "--impact", str(impact_path),
         "--out", ""),
        ("convert-log", "--in", str(tmp_path / "raw.log"), "--out", ""),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == f"error: {argv[-2]} must not be empty\n"


def test_pipeline_rejects_empty_config_label(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    config_obj = json.loads(config_path.read_text())
    config_obj["versions"][0]["label"] = ""
    config_path.write_text(json.dumps(config_obj))
    code, out, err = run(capsys, "pipeline", "--config", str(config_path))
    assert code == 1
    assert out == ""
    assert err == "error: version label must not be empty\n"


def test_build_impact_rejects_empty_version(tmp_path, capsys):
    write_mini_project(tmp_path)
    impact_path = tmp_path / "impact.json"
    code, out, err = run(
        capsys,
        "build-impact",
        "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(tmp_path / "commits.jsonl"),
        "--version", "",
        "--out", str(impact_path),
    )
    assert code == 1
    assert err == "error: version label must not be empty\n"
    assert not impact_path.exists()


def test_analyze_changes_rejects_empty_label(tmp_path, capsys):
    # An empty --label-a is rejected, not replaced by the file stem.
    write_mini_project(tmp_path)
    code, out, err = run(
        capsys,
        "analyze-changes",
        "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"),
        "--label-a", "",
    )
    assert code == 1
    assert out == ""
    assert err == "error: version label must not be empty\n"


def test_an_issue_summary_prints_on_one_line(tmp_path, capsys):
    # Printed as given, this summary's lines would add a fake pair header and
    # a fake card to decisions.txt, and APP-3's change would land under it.
    config_path = write_mini_project(tmp_path)
    issues_path = tmp_path / "issues.jsonl"
    issues = [json.loads(line) for line in issues_path.read_text().splitlines()]
    issues[2]["summary"] = "Add pool\n== v9 -> v10\n[simple] d:000000000000 (v9 -> v10, tractable)"
    issues_path.write_text("".join(json.dumps(issue) + "\n" for issue in issues))
    code, _, _ = run(capsys, "pipeline", "--config", str(config_path))
    assert code == 0
    cards = (tmp_path / "out" / "decisions.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in cards if line.startswith("==")] == ["== 1.0.0 -> 1.1.0"]
    assert cards[-3:] == [
        "[simple] d:6ad5e1d87464 (1.0.0 -> 1.1.0, tractable)",
        "  issue APP-3: Add pool == v9 -> v10 [simple] d:000000000000 (v9 -> v10, tractable)",
        "  change metrics added (+1/-0 entities)",
    ]


# A line break of any kind `str.splitlines` knows; each would split a table row or header.
MULTI_LINE_LABELS = ["1.1.0\nx", "1.1.0\r", "\x1c1.1.0", "1.1.0\u2028x"]


@pytest.mark.parametrize("label", MULTI_LINE_LABELS)
def test_pipeline_rejects_a_config_label_of_more_than_one_line(tmp_path, capsys, label):
    config_path = write_mini_project(tmp_path)
    config_obj = json.loads(config_path.read_text())
    config_obj["versions"][1]["label"] = label
    config_path.write_text(json.dumps(config_obj))
    code, out, err = run(capsys, "pipeline", "--config", str(config_path))
    assert (code, out) == (1, "")
    assert err == f"error: version label {label!r} must be one line\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label", MULTI_LINE_LABELS)
def test_stage_commands_reject_a_label_of_more_than_one_line(tmp_path, capsys, label):
    # --label-a, --label-b and --version; a file name holding one is a bad path
    write_mini_project(tmp_path)
    arch_a, arch_b = tmp_path / "arch-1.0.0.rsf", tmp_path / "arch-1.1.0.rsf"
    named = tmp_path / f"{label}.rsf"
    named.write_bytes(arch_b.read_bytes())
    changes = ("analyze-changes", "--arch-a", str(arch_a), "--arch-b")
    for argv, what in (
        ((*changes, str(arch_b), "--label-a", label), f"version label {label!r}"),
        ((*changes, str(arch_b), "--label-b", label), f"version label {label!r}"),
        ((*changes, str(named)), f"--arch-b {str(named)!r}"),
        (("build-impact", "--issues", str(tmp_path / "issues.jsonl"),
          "--commits", str(tmp_path / "commits.jsonl"), "--version", label),
         f"version label {label!r}"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {what} must be one line\n"


def test_a_path_that_is_not_utf8_still_reads(tmp_path, capsys):
    # The argument b"arch-\xff.rsf" reaches the CLI as "arch-\udcff.rsf"; a path
    # is one line, but only a label drawn from it must also be UTF-8.
    write_mini_project(tmp_path)
    path = tmp_path / "arch-\udcff.rsf"
    path.write_bytes((tmp_path / "arch-1.0.0.rsf").read_bytes())
    code, out, err = run(
        capsys, "analyze-changes", "--arch-a", str(path),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"), "--label-a", "1.0.0",
    )
    assert (code, err) == (0, "")
    assert out.startswith("changes 1.0.0 -> arch-1.1.0: 4\n")


def test_exit_codes(tmp_path, capsys):
    # missing file -> input error -> 1
    code, _, err = run(
        capsys, "analyze-changes", "--arch-a", "nope.rsf", "--arch-b", "nope2.rsf"
    )
    assert code == 1 and "error" in err
    # malformed snapshot -> 1
    bad = tmp_path / "bad.rsf"
    bad.write_text("contain broken\n")
    code, _, _ = run(capsys, "analyze-changes", "--arch-a", str(bad), "--arch-b", str(bad))
    assert code == 1
    # usage error -> 1
    code, _, _ = run(capsys, "analyze-changes", "--nonsense")
    assert code == 1
    # version/help are success paths
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == "archdd 0.1.0\n"
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_partition_violation_exit_code(tmp_path, capsys):
    bad = tmp_path / "dup.rsf"
    bad.write_text("contain C1 a\ncontain C2 a\n")
    code, _, err = run(capsys, "analyze-changes", "--arch-a", str(bad), "--arch-b", str(bad))
    assert code == 1
    assert "appears in both" in err


def _structured_docs(tmp_path, capsys):
    write_mini_project(tmp_path)
    changes_path = tmp_path / "changes.json"
    impact_path = tmp_path / "impact.json"
    run(
        capsys, "analyze-changes",
        "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"),
        "--label-a", "1.0.0", "--label-b", "1.1.0",
        "--format", "structured", "--out", str(changes_path),
    )
    run(
        capsys, "build-impact",
        "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(tmp_path / "commits.jsonl"),
        "--version", "1.1.0",
        "--out", str(impact_path),
    )
    return changes_path, impact_path


def test_extract_decisions_rejects_a_zero_threshold(tmp_path, capsys):
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    code, out, err = run(
        capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(impact_path),
        "--tractability-threshold", "0",
    )
    assert (code, out, err) == (
        1, "", "error: tractability_threshold must be a positive integer\n"
    )


def assert_one_line_input_error(code, err, what):
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith(f"error: malformed {what} document") and err.count("\n") == 1


def test_report_rejects_malformed_run_documents(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    run(capsys, "pipeline", "--config", str(config_path))
    run_doc = json.loads((tmp_path / "out" / "run.json").read_text())
    broken = tmp_path / "broken.json"

    no_summary = {"schema_version": 1, "kind": "run"}
    empty_overall = dict(run_doc, summary=dict(run_doc["summary"], overall={}))
    text_count = json.loads(json.dumps(run_doc))
    text_count["summary"]["pairs"][0]["decision_count"] = "2"
    # a pair row names two non-empty labels, and the overall row names none
    bad_versions = []
    for row, key, value in [
        ("pairs", "from_version", 5),
        ("pairs", "to_version", ""),
        ("pairs", "from_version", None),
        ("overall", "to_version", "zzz"),
        ("overall", "from_version", "1.0.0"),
        ("pairs", "to_version", "1.1.0\nx"),  # a label is one line
    ]:
        doc = json.loads(json.dumps(run_doc))
        summary = doc["summary"]
        (summary["pairs"][0] if row == "pairs" else summary["overall"])[key] = value
        bad_versions.append(doc)
    # a row must hold counts a run could write, and the overall row their sum
    impossible_counts = []
    # decisions are disjoint, so each row has as many issues in decisions as
    # issue links, and as many covered changes as change links
    for fields in ({"issues_in_decisions": 2}, {"covered_change_count": 2}):
        doc = json.loads(json.dumps(run_doc))
        for row in (doc["summary"]["pairs"][0], doc["summary"]["overall"]):
            row.update(fields)
        impossible_counts.append(doc)
    for row, fields in [
        ("pairs", {"change_count": -3, "covered_change_count": 2}),
        ("pairs", {"kind_distribution": {"simple": 1, "compound": 0, "crosscutting": 5}}),
        ("pairs", {"clean_change_count": 5}),
        ("pairs", {"covered_change_count": 4}),
        ("overall", {"issue_links": -1}),
        ("overall", {"kind_distribution": {"simple": 2, "compound": 0, "crosscutting": 0}}),
        ("overall", {"change_count": 99}),
    ]:
        doc = json.loads(json.dumps(run_doc))
        summary = doc["summary"]
        (summary["pairs"][0] if row == "pairs" else summary["overall"]).update(fields)
        impossible_counts.append(doc)
    for doc in (
        no_summary, empty_overall, text_count, dict(run_doc, summary=5), *bad_versions,
        *impossible_counts,
    ):
        broken.write_text(json.dumps(doc))
        for which in ("summary", "distribution", "coverage"):
            code, _, err = run(capsys, "report", "--in", str(broken), "--out", which)
            assert_one_line_input_error(code, err, "run")
    assert err == (
        "error: malformed run document: overall change_count is 99, but the pairs sum to 4\n"
    )


def test_report_rejects_a_document_that_is_not_an_object(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    code, out, err = run(capsys, "report", "--in", str(listed), "--out", "summary")
    assert (code, out, err) == (1, "", "error: document must be a JSON object\n")


def test_an_out_path_in_a_missing_directory_is_a_one_line_error(tmp_path, capsys):
    write_mini_project(tmp_path)
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, "analyze-changes",
        "--arch-a", str(tmp_path / "arch-1.0.0.rsf"),
        "--arch-b", str(tmp_path / "arch-1.1.0.rsf"),
        "--out", str(target),
    )
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert not target.parent.exists()


def test_extract_decisions_rejects_malformed_documents(tmp_path, capsys):
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    changes_doc = json.loads(changes_path.read_text())
    impact_doc = json.loads(impact_path.read_text())
    broken = tmp_path / "broken.json"

    no_kind = json.loads(json.dumps(changes_doc))
    del no_kind["changes"][0]["kind"]
    bad_entity = json.loads(json.dumps(changes_doc))
    bad_entity["changes"][0]["deltas"][0]["entity"] = ""
    number_id = json.loads(json.dumps(changes_doc))
    number_id["changes"][0]["id"] = 5
    flipped_kind = json.loads(json.dumps(changes_doc))
    for change in flipped_kind["changes"]:
        change["kind"] = "added" if change["kind"] == "modified" else "modified"
    unknown_op = json.loads(json.dumps(changes_doc))
    unknown_op["changes"][0]["deltas"][0]["op"] = "move"
    number_version = json.loads(json.dumps(changes_doc))
    number_version["changes"][0]["to_version"] = 5
    number_component = json.loads(json.dumps(changes_doc))
    number_component["changes"][0]["target_component"] = 5
    repeated_id = json.loads(json.dumps(changes_doc))
    for change in repeated_id["changes"][:2]:
        change["id"] = "ch:1"
    empty_version = json.loads(json.dumps(changes_doc).replace('"1.1.0"', '""'))
    empty_id = json.loads(json.dumps(changes_doc))
    empty_id["changes"][0]["id"] = ""
    empty_source = json.loads(json.dumps(changes_doc))
    empty_source["changes"][0]["source_component"] = ""
    spaced_target = json.loads(json.dumps(changes_doc))
    spaced_target["changes"][0]["target_component"] = "a b"
    # every change must be for the header's pair, which is the one the decisions are for
    other_header = dict(changes_doc, from_version="9.0", to_version="9.1")
    one_change_moved = json.loads(json.dumps(changes_doc))
    one_change_moved["changes"][0]["from_version"] = "0.9"
    number_header = dict(changes_doc, changes=[], from_version=5)
    out = tmp_path / "o.json"
    for doc in (
        no_kind, bad_entity, number_id, flipped_kind, unknown_op, number_version,
        number_component, dict(changes_doc, changes=5), other_header, one_change_moved,
        number_header, empty_version, empty_id, empty_source, spaced_target, repeated_id,
    ):
        broken.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "extract-decisions", "--changes", str(broken), "--impact", str(impact_path),
            "--out", str(out),
        )
        assert_one_line_input_error(code, err, "changes")
        assert not out.exists()
    assert err == "error: malformed changes document: duplicate change id 'ch:1'\n"

    # The rules every change the program makes keeps: it carries an entity,
    # and it names the component it adds entities to or removes them from.
    for fields, message in (
        ({"deltas": []}, "a change must carry at least one entity"),
        (
            {"deltas": [{"op": "add", "entity": "app.X"}], "kind": "removed",
             "source_component": "core", "target_component": None},
            "a change that adds entities must name its target",
        ),
        (
            {"deltas": [{"op": "remove", "entity": "app.X"}], "kind": "added",
             "source_component": None, "target_component": "core"},
            "a change that removes entities must name its source",
        ),
        (
            {"deltas": [{"op": op, "entity": entity} for op, entity in (
                ("remove", "app.Y"), ("add", "app.Y"), ("add", "app.X"), ("remove", "app.X"),
                ("remove", "app.Z"),
            )], "kind": "modified", "source_component": "core", "target_component": "io"},
            "a change must not remove and add the same entity: 'app.X'",
        ),
    ):
        doc = json.loads(json.dumps(changes_doc))
        doc["changes"][0].update(fields)
        broken.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "extract-decisions", "--changes", str(broken), "--impact", str(impact_path),
            "--out", str(out),
        )
        assert (code, err) == (1, f"error: malformed changes document: {message}\n")
        assert not out.exists()

    bad_entries = [
        dict(impact_doc, entries=dict(impact_doc["entries"], **{"APP-1": value}))
        for value in (5, [5], [""], ["a b"], "app.core.Cache")
    ]
    empty_issue_id = dict(impact_doc, entries=dict(impact_doc["entries"], **{"": ["app.util.Log"]}))
    for doc in (
        *bad_entries, empty_issue_id, dict(impact_doc, entries=[]), dict(impact_doc, to_version=5),
        dict(impact_doc, to_version=""), dict(impact_doc, from_version=""),
    ):
        broken.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(broken)
        )
        assert_one_line_input_error(code, err, "impact")


def test_extract_decisions_rejects_malformed_impact_diagnostics(tmp_path, capsys):
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    impact_doc = json.loads(impact_path.read_text())
    broken = tmp_path / "broken.json"
    diagnostics = impact_doc["diagnostics"]
    for bad in (
        {"excluded_entity_count": "x", "skipped_paths": [5]},
        {"excluded_entity_count": -1}, {"excluded_entity_count": True},
        {"skipped_paths": [5]}, {"skipped_paths": "docs/a.md"},
        {"orphaned_commit_refs": [{"issue": 7, "commit": None}]},
        {"orphaned_commit_refs": [{"issue": "APP-1"}]},
        {"orphaned_commit_refs": {"issue": "APP-1", "commit": "c9"}},
    ):
        broken.write_text(json.dumps(dict(impact_doc, diagnostics=dict(diagnostics, **bad))))
        code, out, err = run(
            capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(broken)
        )
        assert out == ""
        assert_one_line_input_error(code, err, "impact")
    assert err == "error: malformed impact document: orphaned_commit_refs must be a list, " \
        "got {'issue': 'APP-1', 'commit': 'c9'}\n"
    # An issue may cite the commit id "" and a commit may list the path "".
    broken.write_text(json.dumps(dict(impact_doc, diagnostics={
        "orphaned_commit_refs": [{"issue": "APP-1", "commit": ""}], "skipped_paths": [""],
    })))
    code, _, err = run(
        capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(broken)
    )
    assert (code, err) == (0, "")
    broken.write_text(json.dumps(dict(
        impact_doc, diagnostics={"excluded_entity_count": "x", "skipped_paths": [5]}
    )))
    code, _, err = run(
        capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(broken)
    )
    assert code == 1
    assert err == (
        "error: malformed impact document: "
        "excluded_entity_count must be a non-negative integer, got 'x'\n"
    )


def test_extract_decisions_rejects_an_impact_list_for_another_version(tmp_path, capsys):
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    impact_doc = json.loads(impact_path.read_text())
    impact_path.write_text(json.dumps(dict(impact_doc, to_version="9.9")))
    out = tmp_path / "o.json"
    code, _, err = run(
        capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(impact_path),
        "--out", str(out),
    )
    assert code == 1
    assert err == "error: impact list is for version '9.9' but changes target '1.1.0'\n"
    assert not out.exists()


def test_changes_document_names_its_first_bad_entity(tmp_path, capsys):
    """The entity named is the first bad one in document order, under any hash seed."""
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    clean = changes_path.read_text()
    doc = json.loads(clean)
    doc["changes"][0]["deltas"] = [{"op": "add", "entity": e} for e in ("p q", "x y", "m n")]
    changes_path.write_text(json.dumps(doc))
    for seed in (1, 2):
        child = run_cli_with_hash_seed(
            seed, "extract-decisions", "--changes", str(changes_path), "--impact", str(impact_path)
        )
        assert child.returncode == 1
        assert child.stderr == (
            "error: malformed changes document: "
            "entity name must not contain whitespace: 'p q'\n"
        )
    # Each name a snapshot line could not hold, as an entity and as a component.
    bad_names = [f"p{space}q" for space in ("\t", "\u3000", "\x1c", "\xa0")] + ["", 1]
    for field, name in itertools.product(("entity", "component"), bad_names):
        bad = json.loads(clean)
        if field == "entity":
            bad["changes"][0]["deltas"] = [{"op": "add", "entity": name}]
        else:
            bad["changes"][0]["target_component"] = name
        changes_path.write_text(json.dumps(bad))
        code, _, err = run(
            capsys, "extract-decisions", "--changes", str(changes_path), "--impact", str(impact_path)
        )
        assert code == 1, (field, name)
        assert err.startswith(f"error: malformed changes document: {field} name must")
        assert err.count("\n") == 1, err


def test_json_inputs_reject_values_they_cannot_hold(tmp_path, capsys):
    changes_path, impact_path = _structured_docs(tmp_path, capsys)
    issues, commits = str(tmp_path / "issues.jsonl"), str(tmp_path / "commits.jsonl")
    bad, out = tmp_path / "bad.json", str(tmp_path / "o.json")
    impact_args = ("--version", "1.1.0", "--out", out)
    invocations = [
        ("build-impact", "--issues", str(bad), "--commits", commits, *impact_args),
        ("build-impact", "--issues", issues, "--commits", str(bad), *impact_args),
        ("build-impact", "--issues", issues, "--commits", commits, "--rules", str(bad),
         *impact_args),
        ("extract-decisions", "--changes", str(bad), "--impact", str(impact_path), "--out", out),
        ("extract-decisions", "--changes", str(changes_path), "--impact", str(bad), "--out", out),
        ("report", "--in", str(bad), "--out", "summary"),
        ("pipeline", "--config", str(bad)),
    ]
    for content, message in (
        ('{"id": "c100", "id": "c101"}', "repeated key 'id'"),
        ('{"id": "c100", "n": ' + "7" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ('{"id": "c100", "paths": ["src/main/java/app/\\ud800.java"]}', "unpaired surrogate"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ):
        bad.write_text(content + "\n")
        for argv in invocations:
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert "Traceback" not in err
            assert message in err and err.count("\n") == 1, err
        assert not (tmp_path / "o.json").exists()

    # a valid surrogate pair decodes to one character and still loads
    bad.write_text('{"id": "c100", "paths": ["src/main/java/app/\\ud83d\\ude00.java"]}\n')
    code, _, _ = run(capsys, *invocations[1])
    assert code == 0
    assert json.loads((tmp_path / "o.json").read_text())["entries"]["APP-1"] == ["app.\U0001f600"]


def test_a_json_error_names_its_file(tmp_path, capsys):
    """Every JSON file is decoded by one loader, whose error names the file: the
    path rules, given as an option or in a config, and the config itself."""
    config_path = write_mini_project(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text('{"rules": [}\n')
    message = f"error: invalid JSON in path rules {rules}: Expecting value\n"
    code, out, err = run(
        capsys, "build-impact", "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(tmp_path / "commits.jsonl"), "--version", "1.1.0", "--rules", str(rules),
    )
    assert (code, out, err) == (1, "", message)
    config = json.loads(config_path.read_text())
    config_path.write_text(json.dumps(dict(config, path_rules="rules.json")))
    assert run(capsys, "pipeline", "--config", str(config_path)) == (1, "", message)
    config_path.write_text("{")
    code, out, err = run(capsys, "pipeline", "--config", str(config_path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: invalid JSON in config {config_path}: "
        "Expecting property name enclosed in double quotes\n"
    )
    assert not (tmp_path / "out").exists()


def test_non_utf8_inputs_are_one_line_errors(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    latin = tmp_path / "latin1.txt"
    latin.write_bytes(b"\xffcontain core app.core.Engine\n")
    issues, commits = str(tmp_path / "issues.jsonl"), str(tmp_path / "commits.jsonl")
    snapshot = str(tmp_path / "arch-1.0.0.rsf")
    invocations = [
        ("build-impact", "--issues", str(latin), "--commits", commits, "--version", "1.1.0"),
        ("build-impact", "--issues", issues, "--commits", str(latin), "--version", "1.1.0"),
        ("build-impact", "--issues", issues, "--commits", commits, "--version", "1.1.0",
         "--rules", str(latin)),
        ("build-impact", "--issues", issues, "--commits", commits, "--version", "1.1.0",
         "--exclusions", str(latin)),
        ("analyze-changes", "--arch-a", str(latin), "--arch-b", snapshot),
        ("analyze-changes", "--arch-a", snapshot, "--arch-b", str(latin)),
        ("report", "--in", str(latin), "--out", "summary"),
        ("pipeline", "--config", str(latin)),
    ]
    for argv in invocations:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "Traceback" not in err
        assert err.startswith("error: cannot read") and err.count("\n") == 1, err
        assert str(latin) in err

    config_obj = json.loads(config_path.read_text())
    config_obj["issues"] = "latin1.txt"
    config_path.write_text(json.dumps(config_obj))
    code, _, err = run(capsys, "pipeline", "--config", str(config_path))
    assert code == 1
    assert err == f"error: cannot read issue export {latin}: " + (
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


BOM = "\ufeff"


def test_build_impact_ignores_a_byte_order_mark(tmp_path, capsys):
    # read with the mark, the first prefix was '\ufeffthirdparty.jetty' and excluded nothing
    write_mini_project(tmp_path)
    issue_side = ("build-impact", "--issues", str(tmp_path / "issues.jsonl"),
                  "--commits", str(tmp_path / "commits.jsonl"), "--version", "1.1.0")
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("thirdparty.jetty\n", encoding="utf-8")
    marked.write_text(BOM + "thirdparty.jetty\n", encoding="utf-8")
    code, expected, _ = run(capsys, *issue_side, "--exclusions", str(plain))
    assert code == 0
    assert json.loads(expected)["diagnostics"]["excluded_entity_count"] == 1
    assert run(capsys, *issue_side, "--exclusions", str(marked)) == (0, expected, "")


def test_build_impact_rejects_an_exclusion_line_with_a_comment(tmp_path, capsys):
    write_mini_project(tmp_path)
    (tmp_path / "exclusions.txt").write_text("# vendored\nthirdparty.jetty # http\n")
    code, out, err = run(
        capsys, "build-impact", "--issues", str(tmp_path / "issues.jsonl"),
        "--commits", str(tmp_path / "commits.jsonl"), "--version", "1.1.0",
        "--exclusions", str(tmp_path / "exclusions.txt"),
    )
    assert (code, out) == (1, "")
    assert err == "error: exclusion list line 2: 'thirdparty.jetty # http' can match no entity\n"


def test_convert_log_ignores_a_byte_order_mark(tmp_path, capsys):
    # read with the mark, the first header was not a header and its commit was lost
    raw = "commit abcdef1\nM\tsrc/a/B.java\ncommit 1234567\nA\tsrc/c/D.java\n"
    (tmp_path / "plain.log").write_text(raw, encoding="utf-8")
    (tmp_path / "marked.log").write_text(BOM + raw, encoding="utf-8")
    code, expected, _ = run(capsys, "convert-log", "--in", str(tmp_path / "plain.log"))
    assert code == 0 and len(expected.splitlines()) == 2
    assert run(capsys, "convert-log", "--in", str(tmp_path / "marked.log")) == (0, expected, "")
    from_stdin = convert_log_from_stdin((BOM + raw).encode("utf-8"))
    assert (from_stdin.returncode, from_stdin.stdout.decode()) == (0, expected)


def test_pipeline_ignores_a_byte_order_mark_in_every_file(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    assert run(capsys, "pipeline", "--config", str(config_path))[0] == 0
    expected = output_digests(tmp_path / "out")
    for path in tmp_path.iterdir():
        if path.is_file():
            path.write_text(BOM + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(capsys, "pipeline", "--config", str(config_path))[0] == 0
    assert output_digests(tmp_path / "out") == expected


def test_pipeline_non_utf8_snapshot_fails_its_pairs(tmp_path, capsys):
    config_path = write_mini_project(tmp_path)
    (tmp_path / "arch-1.1.0.rsf").write_bytes(b"contain core \xff\n")
    code, _, err = run(capsys, "pipeline", "--config", str(config_path), "--strict")
    assert code == 1
    assert "Traceback" not in err
    assert "pair 1.0.0 -> 1.1.0 failed: cannot read snapshot" in err


def test_build_impact_link_by_message(tmp_path, capsys):
    issues = tmp_path / "issues.jsonl"
    issues.write_text(
        json.dumps({"id": "APP-1", "resolved": True, "merged": True, "versions": ["2"],
                    "commits": ["c1"]}) + "\n"
        + json.dumps({"id": "APP-2", "resolved": True, "merged": True, "versions": ["2"]})
        + "\n"
    )
    commits = tmp_path / "commits.jsonl"
    commits.write_text(
        json.dumps({"id": "c1", "paths": ["src/main/java/app/A.java"]}) + "\n"
        + json.dumps({"id": "c2", "paths": ["src/main/java/app/B.java", "docs/x.md"],
                      "issue_keys": ["APP-1", "APP-2"]}) + "\n"
    )
    argv = ("build-impact", "--issues", str(issues), "--commits", str(commits),
            "--version", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == {"APP-1": ["app.A"], "APP-2": []}
    assert doc["diagnostics"]["skipped_paths"] == []

    code, out, _ = run(capsys, *argv, "--link-by-message")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == {"APP-1": ["app.A", "app.B"], "APP-2": ["app.B"]}
    assert doc["diagnostics"]["skipped_paths"] == ["docs/x.md"]
    assert doc["diagnostics"]["orphaned_commit_refs"] == []


def test_importing_the_cli_loads_no_fraction_arithmetic():
    """Exact ratios are reduced with ``math.gcd``, so startup skips ``fractions``
    and the ``decimal`` and ``numbers`` modules it pulls in."""
    src = Path(__file__).resolve().parents[1] / "src"
    modules = "{'fractions', 'decimal', 'numbers'}"
    probe = f"import sys, archdd.cli; print(sorted({modules} & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"

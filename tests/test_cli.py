import json

from archdd.cli import main

from conftest import write_mini_project


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
    assert "changes 1.0.0 -> 1.1.0: 4" in out
    assert "+ app.core.Cache" in out


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

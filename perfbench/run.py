#!/usr/bin/env python3
"""archdd end-to-end benchmark, measured from outside the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady-1x --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Each run generates the workload's history from ``--seed`` (see
``workloads.py``), then:

* ``--trace 0``: times fresh ``archdd pipeline --config ...`` processes
  (serial, default flags, pure-Python lane) for at least ``--seconds`` and
  at least three processes, and reports the medians of ``wall_s`` and ``peak_rss_mb``, plus
  ``setup_s``, the median time a fresh interpreter takes to import
  ``archdd.cli``. The tracer is never loaded.
* ``--trace 1``: alternates untraced processes with traced ones
  (``trace_run.py``, which wraps each layer's public functions) and reports
  per-layer span times, outside counters and the tracing overhead.

Every run checks its outputs: each ``run.json`` must hash to the golden
digest recorded in ``golden.json`` for the workload and seed (when one is
recorded) and to the same digest as every other process of the run; the
scipy and networkx oracles in ``check.py`` must agree with the run document;
and the workload must keep the shape it exists for. Any failed check makes
``correct`` false and the exit code 1. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` and ``failed`` count version pairs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = "import sys; from archdd.cli import main; sys.exit(main())"
SETUP_SAMPLES_PER_PROCESS = 3
# Every process of a workload run is killed once the run has lasted this
# long, so a hung pipeline still ends the run well inside three minutes.
RUN_BUDGET_S = 160
# A run times at least this many pipeline processes, even past --seconds,
# so that the reported median is never a mean of two.
MIN_PROCESSES = 3

# Per-layer spans reported from the traced run: (span, with self time).
SPANS = (
    ("model.parse_snapshot", False),
    ("model.entity_universe", False),
    ("matching.build_matching_problem", False),
    ("matching.min_cost_matching", True),
    ("kernel.lexmin_assignment", True),
    ("changes.analyze_changes", True),
    ("changes.get_change_instances", False),
    ("ingestion.load_issues", False),
    ("ingestion.load_commits", False),
    ("ingestion.select_issues", False),
    ("ingestion.build_impact_list", False),
    ("decisions.build_decision_graph", False),
    ("decisions.find_decisions", False),
    ("decisions.drop_external_changes", False),
    ("report.canonical_json", False),
    ("report.render_decision", False),
    ("report.build_pair_stats", False),
    ("pipeline.run_pipeline", True),
)
COUNTERS = (
    "model.snapshot_lines",
    "matching.edges_priced",
    "matching.overlap_pairs",
    "matching.dummies",
    "kernel.n_max",
    "changes.added",
    "changes.removed",
    "changes.modified",
    "changes.deltas",
    "ingestion.issues_selected",
    "ingestion.orphaned_refs",
    "ingestion.skipped_paths",
    "ingestion.excluded_entities",
    "decisions.tests",
    "decisions.edges",
    "decisions.simple",
    "decisions.compound",
    "decisions.crosscutting",
    "report.run_json_bytes",
    "pipeline.pairs",
)

# What each workload exists to exercise; a generator change that loses it
# fails the run instead of silently skipping the layer.
SHAPE_CHECKS = {
    "steady-1x": (("matching.dummies == 0", lambda c: c["matching.dummies"] == 0),),
    "recluster-wide": (
        ("matching.dummies > 0", lambda c: c["matching.dummies"] > 0),
        ("matching.overlap_ratio < 0.05", lambda c: c["matching.overlap_ratio"] < 0.05),
    ),
    "issue-heavy": tuple(
        (f"{name} > 0", lambda c, name=name: c[name] > 0)
        for name in (
            "ingestion.orphaned_refs",
            "ingestion.skipped_paths",
            "ingestion.excluded_entities",
            "decisions.simple",
            "decisions.compound",
            "decisions.crosscutting",
        )
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], deadline: float) -> tuple[float, float, int, str]:
    """Run one process; return (wall seconds, peak RSS in MB, exit code, stderr).

    The process is killed at ``deadline`` (a ``time.monotonic`` value) and
    when this process is interrupted, so no child outlives the run.
    """
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return wall, usage.ru_maxrss / 1024, proc.returncode, err.read().decode(errors="replace")


def import_seconds(deadline: float) -> float:
    """Wall time of a fresh interpreter importing archdd.cli."""
    wall, _, code, err = run_child([sys.executable, "-c", "import archdd.cli"], deadline)
    if code:
        raise SystemExit(f"cannot import archdd.cli from {SRC}:\n{err}")
    return wall


class Run:
    """State of one workload run: inputs, measurements and check results."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.config = workloads.generate(workload, seed, root)
        self.out = root / "out"
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.run_json: bytes | None = None
        self.golden_note = "not checked"
        self.pairs = len(json.loads(self.config.read_text(encoding="utf-8"))["versions"]) - 1

    def pipeline(self, argv: list[str]) -> tuple[float, float]:
        """Run one pipeline process and record its outcome; return (wall, rss)."""
        shutil.rmtree(self.out, ignore_errors=True)
        wall, rss, code, err = run_child(argv, self.deadline)
        self.attempted += self.pairs
        run_path = self.out / "run.json"
        if code or not run_path.exists():
            self.failed += self.pairs
            self.errors.append(f"process exited {code}: {err.strip()[-500:]}")
            return wall, rss
        data = run_path.read_bytes()
        self.digests.add(hashlib.sha256(data).hexdigest())
        if self.run_json is None:
            self.run_json = data
            self.failed += len(json.loads(data)["failures"])
        return wall, rss

    def verify(self) -> dict:
        """Golden digest, determinism, oracles and shape; returns the counters."""
        if not self.digests:
            return {}
        if len(self.digests) > 1:
            self.errors.append(f"run.json differs between processes: {sorted(self.digests)}")
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        expected = golden.get(self.workload, {}).get(str(self.seed))
        if expected is None:
            self.golden_note = "not recorded for this seed"
        elif self.digests == {expected}:
            self.golden_note = "match"
        else:
            self.golden_note = "MISMATCH"
            self.errors.append(f"run.json sha256 {sorted(self.digests)} != golden {expected}")
        counters, mismatches = check.counters_and_errors(self.config, self.run_json)
        self.errors += mismatches
        for label, holds in SHAPE_CHECKS[self.workload]:
            if not holds(counters):
                self.errors.append(f"workload shape lost: {label}")
        return counters


def pipeline_argv(config: Path) -> list[str]:
    return [sys.executable, "-c", CLI, "pipeline", "--config", str(config)]


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    import_seconds(run.deadline)  # warm-up: writes bytecode caches on a fresh checkout
    setup, walls, rss = [], [], []
    start = time.perf_counter()
    while not run.errors and (len(walls) < MIN_PROCESSES or time.perf_counter() - start < seconds):
        # Import samples are spread over the run so they see the same
        # machine conditions as the pipeline processes.
        setup += [import_seconds(run.deadline) for _ in range(SETUP_SAMPLES_PER_PROCESS)]
        wall, mb = run.pipeline(pipeline_argv(run.config))
        walls.append(wall)
        rss.append(mb)
    run.verify()
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    ratio = run.failed / run.attempted
    notes = [
        f"{'pair_failure_ratio':<38} {ratio:>14.6g} ratio "
        f"({run.failed} failed / {run.attempted} attempted pairs)",
        f"wall_s: median of {len(walls)} processes: " + " ".join(f"{w:.3f}" for w in walls),
        f"setup_s: median of {len(setup)} imports, range {min(setup):.4f}-{max(setup):.4f} s",
        f"peak_rss_mb: median of {len(rss)} processes: " + " ".join(f"{m:.1f}" for m in rss),
    ]
    return metrics, notes


def span_totals(spans: list) -> dict[str, list]:
    """Per span name: [inclusive seconds, self seconds, calls]."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        children[parent].append((start, end))
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[index]):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        entry = totals[name]
        entry[0] += end - start
        entry[1] += end - start - covered
        entry[2] += 1
    return totals


def measure_traced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    spans_path = run.config.parent / "spans.json"
    plain, traced, samples = [], [], defaultdict(list)
    missing: set[str] = set()
    start = time.perf_counter()
    while not run.errors and (not traced or time.perf_counter() - start < seconds):
        plain.append(run.pipeline(pipeline_argv(run.config))[0])
        argv = [sys.executable, str(HERE / "trace_run.py"), str(run.config), str(spans_path)]
        traced.append(run.pipeline(argv)[0])
        if not spans_path.exists():
            continue
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        missing.update(trace["missing"])
        for name, (total, own, calls) in span_totals(trace["spans"]).items():
            samples[f"{name}.s"].append(total)
            samples[f"{name}.self_s"].append(own)
            samples[f"{name}.calls"].append(calls)
    counters = run.verify()
    metrics = {}
    for name, with_self in SPANS:
        suffixes = (".s", ".self_s") if with_self else (".s",)
        for suffix in suffixes:
            values = samples.get(name + suffix)
            metrics[name + suffix] = (statistics.median(values) if values else 0.0, "s")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    for name in ("matching.overlap_ratio", "decisions.edge_yield"):
        metrics[name] = (counters.get(name, 0.0), "ratio")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    metrics["trace.missing_spans"] = (len(missing), "count")
    notes = [f"missing span: {name}" for name in sorted(missing)]
    notes.append(f"{len(traced)} traced and {len(plain)} untraced processes")
    notes.append(f"{'span':<34} {'s':>9} {'self_s':>9} {'calls':>7}")
    for key in sorted(k[:-2] for k in samples if k.endswith(".s")):
        notes.append(
            f"{key:<34} {statistics.median(samples[key + '.s']):9.4f} "
            f"{statistics.median(samples[key + '.self_s']):9.4f} "
            f"{int(statistics.median(samples[key + '.calls'])):7d}"
        )
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        run = Run(workload, seed, root)
        measure = measure_traced if trace else measure_end_to_end
        metrics, notes = measure(run, seconds)
        print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<38} {value:>14.6g} {unit}")
        for note in notes:
            print(f"  {note}")
        print(f"  run.json sha256 {min(run.digests, default='-')} (golden: {run.golden_note})")
        for error in run.errors:
            print(f"  CHECK FAILED: {error}")
        return run, metrics
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "archdd" / "cli.py").is_file():
        print(f"error: archdd sources not found under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, measured = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct = correct and not run.errors
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in measured.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

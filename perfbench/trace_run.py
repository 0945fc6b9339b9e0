"""Traced pipeline run: time each layer's public functions from outside.

Usage: python3 perfbench/trace_run.py <config.json> <spans.json>

Replaces module attributes of the program with timing wrappers, runs the
pipeline once, and writes every span as ``[name, start, end, parent]``
(parent is an index into the span list, -1 for a root) plus the list of
wrap targets that no longer exist. Spans stay in memory until the run ends.
The program's own sources are not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name). Names follow the layer that defines the
# function, not the module it is looked up in.
WRAP_TARGETS = (
    ("archdd.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("archdd.pipeline", "load_issues", "ingestion.load_issues"),
    ("archdd.pipeline", "load_commits", "ingestion.load_commits"),
    ("archdd.pipeline", "load_exclusions", "ingestion.load_exclusions"),
    ("archdd.pipeline", "load_path_rules", "ingestion.load_path_rules"),
    ("archdd.pipeline", "select_issues", "ingestion.select_issues"),
    ("archdd.pipeline", "build_impact_list", "ingestion.build_impact_list"),
    ("archdd.pipeline", "parse_snapshot", "model.parse_snapshot"),
    ("archdd.pipeline", "entity_universe", "model.entity_universe"),
    ("archdd.pipeline", "analyze_changes", "changes.analyze_changes"),
    ("archdd.pipeline", "matching_cost", "changes.matching_cost"),
    ("archdd.pipeline", "build_decision_graph", "decisions.build_decision_graph"),
    ("archdd.pipeline", "find_decisions", "decisions.find_decisions"),
    ("archdd.pipeline", "drop_external_changes", "decisions.drop_external_changes"),
    ("archdd.changes", "build_matching_problem", "matching.build_matching_problem"),
    ("archdd.changes", "min_cost_matching", "matching.min_cost_matching"),
    ("archdd.changes", "get_change_instances", "changes.get_change_instances"),
    ("archdd.kernel", "lexmin_assignment", "kernel.lexmin_assignment"),
    ("archdd.report", "canonical_json", "report.canonical_json"),
    ("archdd.report", "render_decision", "report.render_decision"),
    ("archdd.report", "build_pair_stats", "report.build_pair_stats"),
)


class Tracer:
    """Collects spans from wrapped callables; one call stack, no threads."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        for module_name, attr, name in WRAP_TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn))


def main(argv: list[str]) -> int:
    config_path, spans_path = argv
    tracer = Tracer()
    tracer.install()
    pipeline = importlib.import_module("archdd.pipeline")
    pipeline.run_pipeline(pipeline.RunConfig.from_file(config_path))
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

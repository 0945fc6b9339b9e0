"""The runtime dependency stays click: archdd imports nothing else outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "archdd"
ALLOWED = set(sys.stdlib_module_names) | {"click", "archdd"}


def imported_roots(tree):
    """Top-level name of every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_or_click():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    outside = sorted(
        f"{path.relative_to(PACKAGE)}: {root}"
        for path in modules
        for root in imported_roots(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if root not in ALLOWED
    )
    assert outside == []

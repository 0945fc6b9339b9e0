"""The runtime dependency stays click: archdd imports nothing else outside the standard library.

Nor does archdd flip a process-wide interpreter switch: a speed-up comes
from doing less work, not from turning the garbage collector off. And pairs
run serially: no process pool, thread or fork, until one measures at least
1.5x on two cores (see ROADMAP's standing policies).
"""

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


GLOBAL_SWITCHES = {
    ("gc", "disable"), ("gc", "freeze"), ("gc", "set_threshold"),
    ("sys", "setrecursionlimit"), ("sys", "setswitchinterval"),
}


def reached_attributes(tree, targets):
    """Every ``module.name`` in ``targets`` a parsed module reaches, by any alias."""
    modules = {module for module, _ in targets}
    aliases = {}  # local name -> module, for `import gc as g`
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                if (node.module, alias.name) in targets:
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attribute = (aliases.get(node.value.id), node.attr)
            if attribute in targets:
                yield ".".join(attribute)


def global_switches(tree):
    """Every ``module.name`` in GLOBAL_SWITCHES a parsed module reaches, by any alias."""
    return reached_attributes(tree, GLOBAL_SWITCHES)


def test_global_switch_finder_sees_every_spelling():
    source = (
        "import gc as g\nimport sys\nfrom gc import freeze\n"
        "g.disable()\nsys.setrecursionlimit(10**5)\nswitch = sys.setswitchinterval\n"
        "sys.getrecursionlimit()\ng.collect()\n"
    )
    assert sorted(global_switches(ast.parse(source))) == [
        "gc.disable", "gc.freeze", "sys.setrecursionlimit", "sys.setswitchinterval",
    ]


def test_no_process_global_switches():
    found = sorted(
        f"{path.relative_to(PACKAGE)}: {switch}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for switch in global_switches(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert found == []


CONCURRENCY_MODULES = {"multiprocessing", "concurrent", "threading"}
FORKS = {("os", "fork")}


def concurrency(tree):
    """Every pool, thread or fork module a parsed module imports, and every ``os.fork``."""
    yield from (root for root in imported_roots(tree) if root in CONCURRENCY_MODULES)
    yield from reached_attributes(tree, FORKS)


def test_concurrency_finder_sees_every_spelling():
    source = (
        "import os as o\nfrom os import fork\nimport concurrent.futures\n"
        "from multiprocessing import Pool\nimport threading as t\n"
        "o.fork()\no.getpid()\n"
    )
    assert sorted(concurrency(ast.parse(source))) == [
        "concurrent", "multiprocessing", "os.fork", "os.fork", "threading",
    ]


def test_pairs_run_serially():
    found = sorted(
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in concurrency(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert found == []

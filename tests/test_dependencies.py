"""The runtime dependency stays click: archdd imports nothing else outside the standard library.

Nor does archdd flip a process-wide interpreter switch: a speed-up comes
from doing less work, not from turning the garbage collector off.
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


def global_switches(tree):
    """Every ``module.name`` in GLOBAL_SWITCHES a parsed module reaches, by any alias."""
    modules = {"gc", "sys"}
    aliases = {}  # local name -> module, for `import gc as g`
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                if (node.module, alias.name) in GLOBAL_SWITCHES:
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            switch = (aliases.get(node.value.id), node.attr)
            if switch in GLOBAL_SWITCHES:
                yield ".".join(switch)


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

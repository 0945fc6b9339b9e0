"""The README's Python walkthrough runs, and it documents what the package root exports.

The ``python`` blocks of README.md, run in order in one namespace on the mini
project, find the decisions the pipeline writes to ``run.json``. Every name
in ``archdd.__all__`` appears in README.md, and no other module of the
package keeps an export list of its own.
"""

import ast
import json
import re
from pathlib import Path

import archdd

from conftest import write_mini_project

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(archdd.__file__).resolve().parent


def readme_python() -> str:
    """The README's ``python`` blocks, joined in document order."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    return "\n".join(blocks)


def test_the_readme_walkthrough_finds_the_decisions_of_the_mini_run(tmp_path, monkeypatch):
    write_mini_project(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    exec(compile(readme_python(), str(README), "exec"), namespace)

    assert namespace["impact"]["entries"] == {
        "APP-1": ["app.core.Cache", "app.core.Engine"],
        "APP-2": ["app.core.Cache", "app.util.Log"],
        "APP-3": ["app.metrics.Meter"],
    }
    decisions = namespace["decisions"]
    (pair,) = json.loads((tmp_path / "out" / "run.json").read_text(encoding="utf-8"))["pairs"]
    assert decisions == [
        {key: value for key, value in d.items() if key not in ("from_version", "to_version")}
        for d in pair["decisions"]
    ]
    # the hand-derived ledger of write_mini_project
    assert [(d["kind"], d["issue_ids"]) for d in decisions] == [
        ("crosscutting", ["APP-1", "APP-2"]),
        ("simple", ["APP-3"]),
    ]


def test_every_exported_name_resolves():
    assert [name for name in archdd.__all__ if not hasattr(archdd, name)] == []


def test_every_exported_name_is_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    assert [name for name in archdd.__all__ if not re.search(rf"\b{name}\b", readme)] == []


def test_only_the_package_root_keeps_an_export_list():
    found = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    )
    assert found == ["__init__.py"]

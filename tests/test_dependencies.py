"""The runtime dependency stays click: archdd imports nothing else outside the standard library.

Nor does archdd flip a process-wide interpreter switch: a speed-up comes
from doing less work, not from turning the garbage collector off. And pairs
run serially: no process pool, thread or fork, until one measures at least
1.5x on two cores (see ROADMAP's standing policies).

Nor does it catch errors by their base classes outside ``cli.main``: a pair
fails only on bad input, and an internal fault reaches the CLI as exit 2.

And content ids come from one place: only ``model.py`` imports ``hashlib``,
so a change id and a decision id cannot drift to different schemes.

And every record is built by calling its class: no module reaches for
``object.__new__`` to fill a record around its constructor.

And every input file is read in one place: only ``pipeline.read_input``
opens a file or reads standard input, so its byte order mark, NUL-byte and
decode handling covers every input. And every JSON text is decoded in
one of two places: ``pipeline.load_json`` for a whole file, whose error
names it, and ``ingestion._objects`` for a JSON Lines record, whose error
names its line.

And every name the bench's tracer wraps still exists, so a refactor that
drops one fails here instead of only as a lost per-layer bench metric.
"""

import ast
import importlib
import importlib.util
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


def test_only_the_model_hashes():
    importers = sorted(
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "hashlib" in imported_roots(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert importers == ["model.py"]


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


BROAD_ERRORS = {"ArchddError", "Exception", "BaseException"}


def broad_handlers(tree):
    """The enclosing function of each bare ``except`` and each one naming a
    class in BROAD_ERRORS, by any alias or attribute."""
    broad = BROAD_ERRORS | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in BROAD_ERRORS and alias.asname
    }

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(c is None or getattr(c, "id", getattr(c, "attr", None)) in broad
                       for c in caught):
                    yield scope
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            yield from walk(child, child.name if isinstance(child, functions) else scope)

    return walk(tree, "<module>")


def test_broad_handler_finder_sees_every_spelling():
    source = (
        "from .errors import ArchddError as E, InvariantViolation\n"
        "from . import errors\n"
        "try: pass\nexcept: pass\n"
        "def f():\n"
        "    try: pass\n    except (ValueError, errors.ArchddError): pass\n"
        "    def g():\n"
        "        try: pass\n        except E: pass\n"
        "        try: pass\n        except BaseException as exc: pass\n"
        "    try: pass\n    except Exception: pass\n"
        "    try: pass\n    except (KeyError, InvariantViolation): pass\n"
    )
    assert list(broad_handlers(ast.parse(source))) == ["<module>", "f", "g", "g", "f"]


def test_only_the_cli_catches_errors_by_their_base_classes():
    found = sorted(
        f"{path.relative_to(PACKAGE)}: {scope}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for scope in broad_handlers(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert found == ["cli.py: main"]


BYPASSES = {"__new__", "__setattr__"}


def object_bypasses(tree):
    """The line of each reach for ``object.__new__`` or ``object.__setattr__``:
    called or bound, by attribute, through ``builtins``, an alias of
    ``object`` or ``getattr``."""
    objects = {"object"} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "builtins"
        for alias in node.names if alias.name == "object" and alias.asname
    }

    def is_object(node):
        return (isinstance(node, ast.Name) and node.id in objects) or (
            isinstance(node, ast.Attribute) and node.attr == "object"
            and isinstance(node.value, ast.Name) and node.value.id == "builtins"
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BYPASSES and is_object(node.value):
            yield node.lineno
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2 and is_object(node.args[0])
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in BYPASSES
        ):
            yield node.lineno


def test_object_new_finder_sees_every_spelling():
    source = (
        "import builtins\nfrom builtins import object as base\n"
        "record = object.__new__(Record)\nmake = object.__new__\n"
        "builtins.object.__new__(Record)\nbase.__new__(Record)\n"
        "getattr(object, '__new__')(Record)\n"
        "tuple.__new__(Record, ())\nobject.__setattr__(record, 'id', 'x')\nRecord('x')\n"
        "set_field = builtins.object.__setattr__\ngetattr(base, '__setattr__')(record, 'id', 'x')\n"
        "record.__setattr__('id', 'x')\ngetattr(object, '__getattribute__')(record, 'id')\n"
    )
    assert sorted(object_bypasses(ast.parse(source))) == [3, 4, 5, 6, 7, 9, 11, 12]


def test_records_are_built_by_calling_their_class():
    found = sorted(
        f"{path.relative_to(PACKAGE)}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for lineno in object_bypasses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert found == []


READS = {"read_text", "read_bytes", "open"}


def input_reads(tree):
    """The enclosing function (``Class.method`` for a method) of each call to
    ``open`` or a ``read_text``, ``read_bytes`` or ``open`` attribute, and of
    each reach for ``sys.stdin``, by any alias."""
    sys_names = {"sys"} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "sys" and alias.asname
    }
    stdin_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "sys"
        for alias in node.names if alias.name == "stdin"
    }

    def reads(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (
            (isinstance(func, ast.Name) and func.id in READS)
            or (isinstance(func, ast.Attribute) and func.attr in READS)
            or (isinstance(node, ast.Attribute) and node.attr == "stdin"
                and isinstance(node.value, ast.Name) and node.value.id in sys_names)
            or (isinstance(node, ast.Name) and node.id in stdin_names)
        )

    return scopes_of(tree, reads)


def scopes_of(tree, hit):
    """The enclosing function (``Class.method`` for a method) of each node ``hit`` accepts."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                yield scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if scope == "<module>" else f"{scope}.{child.name}"
                yield from walk(child, name)
            else:
                yield from walk(child, scope)

    return walk(tree, "<module>")


def test_input_read_finder_sees_every_spelling():
    source = (
        "import sys as s\nfrom sys import stdin as given\nimport io\n"
        "def f(path):\n    return open(path).read()\n"
        "class C:\n    def m(self, path):\n        return path.read_text()\n"
        "    def n(self, path):\n        return io.open(path).read() + path.read_bytes()\n"
        "def g():\n    return s.stdin.buffer.read()\n"
        "def h():\n    return given.read()\n"
        "def quiet(path):\n    path.write_text('x')\n    return sys.stdout, path.stat()\n"
    )
    assert list(input_reads(ast.parse(source))) == ["f", "C.m", "C.n", "C.n", "g", "h"]


def test_every_input_file_is_read_in_one_place():
    found = sorted({
        f"{path.relative_to(PACKAGE)}: {scope}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for scope in input_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    })
    assert found == ["pipeline.py: read_input"]


def json_decodes(tree):
    """The enclosing function of each reach for ``decode_json``: called or
    bound, by name, by any alias, or as an attribute."""
    names = {"decode_json"} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "decode_json" and alias.asname
    }
    return scopes_of(tree, lambda node: (
        (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr == "decode_json")
    ))


def test_json_decode_finder_sees_every_spelling():
    source = (
        "from .ingestion import decode_json, decode_json as d\nfrom . import ingestion\n"
        "default = decode_json\n"
        "def f(text):\n    return decode_json(text, ValueError)\n"
        "class C:\n    def m(self, text):\n        return ingestion.decode_json(text, ValueError)\n"
        "    def n(self, text):\n        return d(text, ValueError)\n"
        "def g(texts):\n    return map(decode_json, texts)\n"
        "def quiet(text):\n    return json_decode(text), ingestion.decode(text)\n"
    )
    assert list(json_decodes(ast.parse(source))) == ["<module>", "f", "C.m", "C.n", "g"]


def test_every_json_text_is_decoded_in_one_of_two_places():
    found = sorted({
        f"{path.relative_to(PACKAGE)}: {scope}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for scope in json_decodes(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    })
    assert found == ["ingestion.py: _objects", "pipeline.py: load_json"]


TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"
# Spans whose functions are gone: build_impact_lists replaced both. Shrink
# this list when the tracer stops wrapping them.
ALLOWED_MISSING_SPANS = ["ingestion.build_impact_list", "ingestion.select_issues"]


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    missing = sorted(
        span
        for module, attribute, span in trace_run.WRAP_TARGETS
        if not hasattr(importlib.import_module(module), attribute)
    )
    assert missing == ALLOWED_MISSING_SPANS

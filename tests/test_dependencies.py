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
``object.__new__`` to fill a record around its constructor. Nor does a
record fill in state after it is built: no module reaches for a
``functools`` cache, so a shared record such as a default path rule holds
the same fields before and after its first use.

And every input file is read in one place: only ``pipeline.read_input``
opens a file or reads standard input, so its byte order mark, NUL-byte and
decode handling covers every input. And every JSON text is decoded in
one of two places: ``pipeline.load_json`` for a whole file, whose error
names it, and ``ingestion._objects`` for a JSON Lines record, whose error
names its line.

And each record shape has one builder: only ``changes.change_record``
spells out a change's ``deltas`` and only ``ingestion.impact_record`` an
impact list's ``diagnostics``, so a document reader cannot drift from the
stage that writes the document.

And no module, test modules included, imports a name it never uses.

And every name the bench's tracer wraps still exists, so a refactor that
drops one fails here instead of only as a lost per-layer bench metric.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "archdd"
TESTS = Path(__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"click", "archdd"}


def imported_roots(tree):
    """Top-level name of every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def package_hits(finder, *args, root=PACKAGE):
    """Each ``<module>: <hit>`` that ``finder(tree, *args)`` yields for a
    module under ``root``, sorted."""
    return sorted(
        f"{path.relative_to(root)}: {hit}"
        for path in root.rglob("*.py")
        for hit in finder(ast.parse(path.read_text(encoding="utf-8"), str(path)), *args)
    )


def unused_imports(tree):
    """Each name an import binds (``__future__`` aside) that the module
    never reads and does not list in ``__all__``."""
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } | {
        element.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for element in getattr(node.value, "elts", ()) if isinstance(element, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield name


def test_unused_import_finder_sees_every_spelling():
    source = (
        "from __future__ import annotations\n"
        "import a.b\nimport c.d\nimport x as y\nimport z as w\n"
        "from m import n as k, p as q\nfrom m import public, hidden\n"
        "__all__ = ['public']\n"
        "c.d.f(w, q)\nhidden = 1\n"
    )
    assert sorted(unused_imports(ast.parse(source))) == ["a", "hidden", "k", "y"]


def test_no_unused_imports():
    assert package_hits(unused_imports) + package_hits(unused_imports, root=TESTS) == []


def test_runtime_imports_are_stdlib_or_click():
    assert len(list(PACKAGE.rglob("*.py"))) > 5
    outside = [hit for hit in package_hits(imported_roots) if hit.split(": ")[1] not in ALLOWED]
    assert outside == []


def test_only_the_model_hashes():
    importers = [hit for hit in package_hits(imported_roots) if hit.endswith(": hashlib")]
    assert importers == ["model.py: hashlib"]


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
    assert package_hits(global_switches) == []


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
    assert package_hits(concurrency) == []


BROAD_ERRORS = {"ArchddError", "Exception", "BaseException"}


def broad_handlers(tree):
    """The enclosing function of each bare ``except`` and each one naming a
    class in BROAD_ERRORS, by any alias or attribute."""
    broad = BROAD_ERRORS | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in BROAD_ERRORS and alias.asname
    }

    def catches_broadly(node):
        if not isinstance(node, ast.ExceptHandler):
            return False
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(
            c is None or getattr(c, "id", getattr(c, "attr", None)) in broad for c in caught
        )

    return scopes_of(tree, catches_broadly)


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
    assert list(broad_handlers(ast.parse(source))) == ["<module>", "f", "f.g", "f.g", "f"]


def test_only_the_cli_catches_errors_by_their_base_classes():
    assert package_hits(broad_handlers) == ["cli.py: main"]


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
    assert package_hits(object_bypasses) == []


LAZY_CACHES = {
    ("functools", "cached_property"), ("functools", "lru_cache"), ("functools", "cache"),
}


def lazy_caches(tree):
    """Every ``functools`` cache in LAZY_CACHES a parsed module reaches, by any alias."""
    return reached_attributes(tree, LAZY_CACHES)


def test_lazy_cache_finder_sees_every_spelling():
    source = (
        "import functools as f\nfrom functools import cached_property\n"
        "from functools import cache as memo, partial\n"
        "f.lru_cache(maxsize=None)\nlazy = f.cached_property\n"
        "f.reduce(max, [1])\npartial(print)\n"
    )
    assert sorted(lazy_caches(ast.parse(source))) == [
        "functools.cache", "functools.cached_property", "functools.cached_property",
        "functools.lru_cache",
    ]


def test_no_lazily_cached_state():
    assert package_hits(lazy_caches) == []


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
    """The enclosing function, dotted (``Class.method``, ``f.g``), of each node ``hit`` accepts."""

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
    assert sorted(set(package_hits(input_reads))) == ["pipeline.py: read_input"]


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
    assert sorted(set(package_hits(json_decodes))) == [
        "ingestion.py: _objects", "pipeline.py: load_json",
    ]


def record_builds(tree, key):
    """The enclosing function of each dict display, or ``dict(...)`` call,
    that holds ``key``."""
    return scopes_of(tree, lambda node: (
        isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == key for k in node.keys)
    ) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
        and any(keyword.arg == key for keyword in node.keywords)
    ))


def test_record_build_finder_sees_every_spelling():
    source = (
        "def change(deltas):\n    return {'id': 'x', 'deltas': deltas}\n"
        "class C:\n    def m(self, c):\n        return {**c, \"deltas\": []}\n"
        "    def n(self):\n        return dict(deltas=[], kind='added')\n"
        "def nested(d):\n    return [{'id': 'x', 'change': {'deltas': d}}]\n"
        "module_level = {'deltas': []}\n"
        "def quiet(c):\n    return c['deltas'], {'diagnostics': {}}, c.get('deltas'), {1: 2}\n"
    )
    assert list(record_builds(ast.parse(source), "deltas")) == [
        "change", "C.m", "C.n", "nested", "<module>",
    ]


# The one builder of each record shape, by a key only that shape holds.
RECORD_BUILDERS = {
    "deltas": ["changes.py: change_record"],
    "diagnostics": ["ingestion.py: impact_record"],
}


def test_each_record_is_built_in_one_place():
    for key, builders in RECORD_BUILDERS.items():
        assert package_hits(record_builds, key) == builders, key


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

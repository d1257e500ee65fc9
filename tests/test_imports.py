"""Import hygiene of the package modules.

Stdlib ``ast`` scans, so no lint tool is needed:

* ``__init__.py`` holds its docstring and ``__version__`` alone: every
  name is imported from its module, so there is one import path to it;
* every name a module imports is used in that module;
* no module reads a private name of another package module, through that
  module as in ``analytics._schedule`` or by importing it as in
  ``from .codec import _csr_ptr``: what one module needs of another is
  public API;
* every module parses as Python 3.10, the oldest version ``pyproject.toml``
  promises, and every ``from_bytes``/``to_bytes`` call names its byte
  order, which only Python 3.11 defaults;
* every ``raise`` names a class of ``errors.py``, ``SystemExit`` or
  ``argparse.ArgumentTypeError``, so a caller can catch the package's
  errors by their types;
* every public function and class and every non-dunder method the package
  defines is referenced by code in the package, the demos or the benchmark
  scripts (a ``Name``, an ``Attribute`` or an import alias; docstrings and
  comments do not count), or in an inline code span of the README: nothing
  is kept that only the tests call;
* a source block is drawn (``SourceBlock.random``) only by
  ``codec.codec_trial`` and ``network.build_network``, and a network is
  built only by ``network.network_trial``, so each trial layout is written
  once; the names the benchmark harness alone still uses (``HARNESS_ONLY``)
  have no call site in the package.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "squadfountain"
MODULES = sorted(PACKAGE.glob("*.py"))
PACKAGE_MODULES = {p.stem for p in MODULES}
RAISABLE = {
    node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
    if isinstance(node, ast.ClassDef)
} | {"SystemExit", "argparse.ArgumentTypeError"}


def root_extras(source: str) -> list[str]:
    """Top-level statements of a package root besides its docstring and the
    ``__version__`` assignment, each as its first line."""
    return [
        f"{ast.unparse(node).splitlines()[0]} (line {node.lineno})"
        for i, node in enumerate(ast.parse(source).body)
        if not (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))
        and not (isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__version__")
    ]


def test_package_root_holds_only_its_version():
    assert root_extras((PACKAGE / "__init__.py").read_text()) == []


def test_root_scan_finds_imports_and_definitions():
    source = (
        '"""Doc."""\n\nfrom .codec import SourceBlock\nfrom . import network\n'
        "import squadfountain.costs\n__all__ = ['SourceBlock']\n__version__ = '0.1.0'\n"
        "def f():\n    pass\n"
    )
    assert root_extras(source) == [
        "from .codec import SourceBlock (line 3)", "from . import network (line 4)",
        "import squadfountain.costs (line 5)", "__all__ = ['SourceBlock'] (line 6)",
        "def f(): (line 8)",
    ]
    assert root_extras('"""Doc."""\n__version__ = "0.1.0"\n') == []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unnamed_byte_orders(source: str) -> list[str]:
    """``from_bytes``/``to_bytes`` calls that pass no byte order, neither as
    the second positional argument nor as ``byteorder=``."""
    return [
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("from_bytes", "to_bytes")
        and len(node.args) < 2
        and all(kw.arg != "byteorder" for kw in node.keywords)
    ]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_module_reads(source: str) -> list[str]:
    """``module._name`` reads, where ``module`` names a package module bound by
    ``from . import module``, ``from squadfountain import module`` or
    ``import squadfountain.module as alias``, and private names imported by
    ``from .module import _name`` or ``from squadfountain.module import _name``.
    Dunders are not private."""
    tree = ast.parse(source)
    qualified = {f"squadfountain.{m}" for m in PACKAGE_MODULES}
    modules: set[str] = set()
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, None), (0, "squadfountain")
        ):
            modules.update(a.asname or a.name for a in node.names if a.name in PACKAGE_MODULES)
        elif isinstance(node, ast.ImportFrom) and (
            node.level == 1 and node.module in PACKAGE_MODULES
            or node.level == 0 and node.module in qualified
        ):
            imported += [
                f"{node.module.rpartition('.')[2]}.{a.name} (line {node.lineno})"
                for a in node.names if is_private(a.name)
            ]
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and a.name in qualified)
    return imported + [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and is_private(node.attr)
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_scan_finds_a_stranded_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["field (line 1)"]
    assert unused_imports("import numpy as np\nnp.zeros(1)\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(module):
    assert private_module_reads(module.read_text()) == []


@pytest.mark.parametrize("binding", [
    "from . import analytics",
    "from . import costs, analytics",
    "from squadfountain import analytics",
    "import squadfountain.analytics as analytics",
])
def test_scan_finds_a_private_read(binding):
    source = f"{binding}\n\ndef f():\n    return analytics._schedule(3, 0.0, None)\n"
    assert private_module_reads(source) == ["analytics._schedule (line 4)"]


@pytest.mark.parametrize("module", [".codec", "squadfountain.codec"])
def test_scan_finds_a_private_import(module):
    source = f"from {module} import (\n    SourceBlock,\n    _csr_ptr as ptr,\n)\n"
    assert private_module_reads(source) == ["codec._csr_ptr (line 1)"]


def test_scan_passes_public_and_non_module_reads():
    source = (
        "import argparse\nfrom . import analytics\n"
        "analytics.doping_table(3, [0.0])\nanalytics.__name__\n"
        "argparse._SubParsersAction\nstate._drain()\n"
        "from .codec import csr_ptr, __doc__\nfrom argparse import _SubParsersAction\n"
    )
    assert private_module_reads(source) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_runs_on_python_3_10(module):
    source = module.read_text()
    ast.parse(source, feature_version=(3, 10))
    assert unnamed_byte_orders(source) == []


def test_3_10_scans_find_newer_code():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    source = "a = int.from_bytes(b)\nb = a.to_bytes(4)\nc = a.to_bytes(length=4)\n"
    assert unnamed_byte_orders(source) == [
        "from_bytes (line 1)", "to_bytes (line 2)", "to_bytes (line 3)"
    ]
    named = "int.from_bytes(b, 'big')\na.to_bytes(4, byteorder='little')\n"
    assert unnamed_byte_orders(named) == []


def stray_raises(source: str) -> list[str]:
    """``raise`` statements whose exception, called or not, is not spelled as
    one of ``RAISABLE``, in line order; a bare ``raise`` names none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = "raise" if exc is None else ast.unparse(exc)
            if name not in RAISABLE:
                found.append((node.lineno, f"{name} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_raises_name_package_errors(module):
    assert stray_raises(module.read_text()) == []


def test_raise_scan_finds_other_exceptions():
    source = (
        "try:\n    raise ValueError('x')\nexcept KeyError:\n    raise\n"
        "raise errors.InvalidParameterError\nraise IndexError from None\n"
    )
    assert stray_raises(source) == [
        "ValueError (line 2)", "raise (line 4)", "errors.InvalidParameterError (line 5)",
        "IndexError (line 6)",
    ]
    allowed = (
        "raise InvalidParameterError('x') from exc\nraise ConfigError\n"
        "raise SystemExit(main())\nraise argparse.ArgumentTypeError('x')\n"
    )
    assert stray_raises(allowed) == []


def definitions(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every public module-level function and class, and
    of every non-dunder method of a module-level class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f.lineno) for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    return found


def code_names(source: str) -> set[str]:
    """The names the code of ``source`` references: every ``Name``, every
    ``Attribute``'s attribute and every part of an import alias.  A
    definition, a docstring or a comment references nothing."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def span_names(markdown: str) -> set[str]:
    """The words of the inline code spans of ``markdown``; fenced blocks
    and prose do not count."""
    text = re.sub(r"^```.*?^```", "", markdown, flags=re.M | re.S)
    return {word for span in re.findall(r"`([^`\n]+)`", text)
            for word in re.findall(r"\w+", span)}


def unnamed_definitions(source: str, named: set[str]) -> list[str]:
    """Definitions of ``source`` whose name is not in ``named``."""
    return [f"{name} (line {line})" for name, line in definitions(source) if name not in named]


def test_every_definition_is_named_elsewhere():
    readers = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "benchmarks").glob("*.py")]
    named = span_names((ROOT / "README.md").read_text()).union(
        *(code_names(path.read_text()) for path in readers))
    unnamed = {module.name: unnamed_definitions(module.read_text(), named)
               for module in MODULES}
    assert {name: found for name, found in unnamed.items() if found} == {}


def test_definition_scan_finds_an_unnamed_one():
    source = (
        "def used():\n    pass\n\ndef _helper():\n    pass\n\n"
        "class Box:\n    def __init__(self):\n        pass\n\n"
        "    def size(self):\n        return used()\n\n    def _spare(self):\n        pass\n"
    )
    assert unnamed_definitions(source, code_names(source)) == [
        "Box (line 7)", "size (line 11)", "_spare (line 14)"
    ]
    named = code_names(source + "Box().size(); Box._spare\n")
    assert unnamed_definitions(source, named) == []
    # a name spelled only in a docstring, a comment or prose is unnamed
    prose = '"""Call spare() or Box.size()."""\n# spare()\n' + source + "def spare():\n    pass\n"
    assert unnamed_definitions(prose, code_names(prose)) == [
        "Box (line 9)", "size (line 13)", "_spare (line 16)", "spare (line 18)"
    ]
    readme = "Use `Box().size()` to size it.\n```\nspare()\n```\nspare is prose.\n"
    assert unnamed_definitions(prose, span_names(readme)) == [
        "used (line 3)", "_spare (line 16)", "spare (line 18)"
    ]


def calls_to(source: str, names: set[str]) -> list[tuple[str, str, int]]:
    """``(callee, caller, line)`` of every call of a name in ``names``,
    spelled bare or after a dot (``codec.SourceBlock.random`` calls
    ``SourceBlock.random``); the caller is the innermost enclosing function,
    or ``<module>``."""
    found = []

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if any(callee == name or callee.endswith("." + name) for name in names):
                    found.append((callee, caller, child.lineno))
            visit(child, caller)

    visit(ast.parse(source), "<module>")
    return found


def callers_of(name: str) -> set[tuple[str, str]]:
    """``(module, caller)`` of every call of ``name`` in the package."""
    return {(module.name, caller) for module in MODULES
            for _, caller, _ in calls_to(module.read_text(), {name})}


def test_source_blocks_drawn_by_the_trial_builders_alone():
    assert callers_of("SourceBlock.random") == {
        ("codec.py", "codec_trial"), ("network.py", "build_network")
    }


def test_networks_built_by_the_network_trial_alone():
    assert callers_of("build_network") == {("network.py", "network_trial")}


HARNESS_ONLY = {
    "init_decoder", "process_ripple_symbol", "dope_degree_two",
    "simulate_collection_with_doping", "disseminate_degree_one", "disseminate_degree_two",
    "storage_listen",
}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_call_of_the_harness_only_steps(module):
    assert calls_to(module.read_text(), HARNESS_ONLY) == []


def test_call_scan_finds_planted_calls():
    source = (
        "def trial(rng):\n    return codec.SourceBlock.random(3, 4, rng)\n\n"
        "class Bench:\n    def run(self, state):\n"
        "        process_ripple_symbol(state)\n        SourceBlock.random(1, 1, None)\n\n"
        "state = init_decoder(3, batch, 4)\ndraw = SourceBlock.random\n"
        "codec.dope_degree_two(state, block.packet, rng)\n"
    )
    assert calls_to(source, {"SourceBlock.random"}) == [
        ("codec.SourceBlock.random", "trial", 2), ("SourceBlock.random", "run", 7)
    ]
    assert calls_to(source, HARNESS_ONLY) == [
        ("process_ripple_symbol", "run", 6), ("init_decoder", "<module>", 9),
        ("codec.dope_degree_two", "<module>", 11),
    ]
    assert calls_to("state.drain(block.packet, rng, 5)\nSourceBlocks.random()\n",
                    HARNESS_ONLY | {"SourceBlock.random"}) == []

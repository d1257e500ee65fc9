"""Import hygiene of the package modules.

Stdlib ``ast`` scans, so no lint tool is needed:

* every name a module imports is used in that module (``__init__.py`` is
  skipped, since its imports are the package's exports);
* no module reads a private name of another package module through that
  module, as in ``analytics._schedule``: what one module needs of another
  is public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "squadfountain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PACKAGE_MODULES = {p.stem for p in PACKAGE.glob("*.py")}


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


def private_module_reads(source: str) -> list[str]:
    """``module._name`` reads, where ``module`` names a package module bound by
    ``from . import module``, ``from squadfountain import module`` or
    ``import squadfountain.module as alias``.  Dunders are not private."""
    tree = ast.parse(source)
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, None), (0, "squadfountain")
        ):
            modules.update(a.asname or a.name for a in node.names if a.name in PACKAGE_MODULES)
        elif isinstance(node, ast.Import):
            qualified = {f"squadfountain.{m}" for m in PACKAGE_MODULES}
            modules.update(a.asname for a in node.names if a.asname and a.name in qualified)
    return [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_scan_finds_a_stranded_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["field (line 1)"]
    assert unused_imports("import numpy as np\nnp.zeros(1)\n") == []


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
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


def test_scan_passes_public_and_non_module_reads():
    source = (
        "import argparse\nfrom . import analytics\n"
        "analytics.doping_table(3, [0.0])\nanalytics.__name__\n"
        "argparse._SubParsersAction\nstate._drain()\n"
    )
    assert private_module_reads(source) == []

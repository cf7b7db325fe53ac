"""Every name a tracelet module or test file imports is used in that file."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tracelet"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == \
        ["line 1: os", "line 2: b"]


def imported_modules(source: str) -> set:
    """The tracelet modules a source file imports, by their short name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("tracelet."):
                continue
            name = module.rsplit(".", 1)[-1] if module else ""
            out |= {name} if name else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".", 1)[1] for alias in node.names
                    if alias.name.startswith("tracelet.")}
    return out


@pytest.mark.parametrize("module, forbidden", [
    ("calculus", {"prover", "cli"}),
    ("prover", {"cli"}),
])
def test_kernel_layering(module, forbidden):
    """The kernel imports neither the prover nor the CLI, and the prover
    not the CLI, so the kernel alone is the trusted base."""
    assert imported_modules((SRC / f"{module}.py").read_text()) & forbidden == set()


def test_imported_modules_sees_every_form():
    assert imported_modules("from . import fo\nfrom .cli import main\n"
                            "import tracelet.prover\nfrom tracelet.lang import Var\n"
                            "import json\nfrom typing import List\n") == \
        {"fo", "cli", "prover", "lang"}

"""Import rules: unused, private and local imports, layering, what
importing the CLI loads, and no production code that only tests use."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tracelet"
DEMOS = TESTS.parent / "demos"


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


def tracelet_imports(tree) -> list:
    """The import statements of a parsed file that import tracelet modules."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "tracelet" or module.startswith("tracelet."):
                out.append(node)
        elif isinstance(node, ast.Import) and any(alias.name.startswith("tracelet.")
                                                  for alias in node.names):
            out.append(node)
    return out


def imported_modules(source: str) -> set:
    """The tracelet modules a source file imports, by their short name."""
    out = set()
    for node in tracelet_imports(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or "tracelet"
            out |= {alias.name for alias in node.names} if module == "tracelet" \
                else {module.rsplit(".", 1)[-1]}
        else:
            out |= {alias.name.split(".", 1)[1] for alias in node.names
                    if alias.name.startswith("tracelet.")}
    return out


def private_imports(source: str) -> list:
    """The _-prefixed names a source file imports from tracelet modules."""
    return sorted(f"line {node.lineno}: {alias.name}"
                  for node in tracelet_imports(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


def local_imports(source: str) -> list:
    """Tracelet imports of a source file that are not at its top level."""
    tree = ast.parse(source)
    top = set(tree.body)
    return sorted(f"line {node.lineno}" for node in tracelet_imports(tree)
                  if node not in top)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    """A module uses another one only through its public names."""
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_local_imports(path):
    """Every dependency between modules shows at the top of the file."""
    assert local_imports(path.read_text()) == []


def test_detects_private_and_local_imports():
    source = ("import json\nfrom .logic import _Member, member\n"
              "def f():\n    from . import fo\n    from json import _x\n"
              "    import tracelet.cli\n")
    assert private_imports(source) == ["line 2: _Member"]
    assert local_imports(source) == ["line 4", "line 6"]


@pytest.mark.parametrize("module, forbidden", [
    ("calculus", {"prover", "cli"}),
    ("prover", {"cli"}),
    ("interp", {"updates", "calculus", "prover", "logic", "fo", "cli"}),
])
def test_kernel_layering(module, forbidden):
    """The kernel imports neither the prover nor the CLI, and the prover
    not the CLI, so the kernel alone is the trusted base.  The interpreter
    runs statements only: it imports no update atoms and nothing above
    the trace model."""
    assert imported_modules((SRC / f"{module}.py").read_text()) & forbidden == set()


def test_imported_modules_sees_every_form():
    assert imported_modules("from . import fo\nfrom .cli import main\n"
                            "import tracelet.prover\nfrom tracelet.lang import Var\n"
                            "import json\nfrom typing import List\n") == \
        {"fo", "cli", "prover", "lang"}


def absolute_imports(source: str) -> set:
    """The top-level names of the absolute imports of a source file."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Value classes are ``lang.record``s: every command would pay for
    importing dataclasses and for its code generation."""
    assert "dataclasses" not in absolute_imports(path.read_text())


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, tracelet.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_out_argparse_and_gettext():
    """Commands parse their arguments from cli's own command table; every
    command would pay for importing argparse and the gettext it loads."""
    code = ("import sys, tracelet.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_absolute_imports_sees_every_form():
    assert absolute_imports("import os.path, json as j\nfrom dataclasses import field\n"
                          "from . import fo\nfrom .lang import record\n") == \
        {"os", "json", "dataclasses"}


def name_refs(node, fields=frozenset()) -> Counter:
    """How often each name is read in a syntax tree, as a name or an
    attribute; a read of a name in fields counts only when it is called."""
    called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    names = ((n.id if isinstance(n, ast.Name) else n.attr, n) for n in ast.walk(node)
             if isinstance(n, (ast.Name, ast.Attribute)))
    return Counter(name for name, n in names if name not in fields or id(n) in called)


def annotated_fields(tree) -> set:
    """The names that classes of a module declare as annotated fields."""
    return {item.target.id for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def definitions(tree):
    """(qualified name, node) of every top-level function and class of a
    module, and of every method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item


def unreferenced(defining: dict, using: list) -> list:
    """The definitions of the modules in defining (name -> source) whose
    name no source in using reads outside the definition itself.  Dunder
    methods are called by Python, so they count as used.  A method named
    like a field that a class of defining declares is read only by a call:
    ``s.first`` reads the field, ``t.first()`` the method."""
    trees = {module: ast.parse(source) for module, source in defining.items()}
    fields = set().union(*map(annotated_fields, trees.values()))
    total = sum((name_refs(ast.parse(src)) for src in using), Counter())
    calls = sum((name_refs(ast.parse(src), fields) for src in using), Counter())
    out = []
    for module, tree in trees.items():
        for qual, node in definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            refs, own = (calls, name_refs(node, fields)) if "." in qual \
                else (total, name_refs(node))
            if refs[node.name] - own[node.name] <= 0:
                out.append(f"{module}.{qual}")
    return sorted(out)


def test_no_production_code_only_tests_use():
    """Every function, class and method of the package is used by the
    package or a demo; what only tests need lives in tests/helpers.py."""
    src = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text() for p in sorted(DEMOS.glob("*.py"))]
    assert unreferenced(src, list(src.values()) + demos) == []


def test_detects_unreferenced_definitions():
    lib = ("def used(): pass\ndef alone(): return alone()\n"
           "class C:\n    def __init__(self): pass\n    def m(self): return self.n()\n"
           "    def n(self): pass\n    @property\n    def p(self): pass\n"
           "class Unused: pass\n")
    user = "from lib import used, C\nused()\nC().p\n"
    assert unreferenced({"lib": lib}, [lib, user]) == ["lib.C.m", "lib.Unused", "lib.alone"]
    # a method named like a field is read only by a call
    clash = ("class F:\n    first: int\n    last: int\n"
             "class T:\n    def first(self): pass\n    def last(self): pass\n"
             "    def size(self): pass\n")
    user = "from lib import F, T\nfirst = F(1, 2).first\nprint(first)\nT().last()\nT().size\n"
    assert unreferenced({"lib": clash}, [clash, user]) == ["lib.T.first"]

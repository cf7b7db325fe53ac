"""The size of the trusted base: the functions and methods that proof
replay (``calculus.replay``) and membership (``logic.member``) can
reach, found from the source's syntax trees and counted in lines."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tracelet"

# the count at this commit: a change that moves it records the new figure
# here and in CHANGES.md, and says why when it rises
TRUSTED_LINES = 1618


def index(src: Path):
    """(defs, methods, imported, module_imports) of the package under src:
    its top-level functions, classes and assignments by (module, name); its
    methods by name, as (module, class, node); the names each module
    imports from another, and the modules it imports whole."""
    defs, methods, imported, module_imports = {}, {}, {}, {}
    for path in sorted(src.glob("*.py")):
        module = path.stem
        module_imports[module] = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        methods.setdefault(item.name, []).append((module, node.name, item))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[module, name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        imported[module, alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        module_imports[module].add(alias.asname or alias.name)
    return defs, methods, imported, module_imports


def reachable(roots, src: Path = SRC) -> dict:
    """{(module, qualified name): lines} of every function and method that
    the functions roots, given as (module, name), can reach.  A name
    reaches the definition it resolves to in its module or through an
    import.  A reached assignment reaches the names its value reads, and a
    reached class its dunder methods, which Python calls.  An attribute
    reaches the methods of that name of the classes reached, and a
    module's function read as ``module.name``."""
    defs, methods, imported, module_imports = index(src)
    reached, classes, todo = {}, set(), [(m, n, defs[m, n]) for m, n in roots]
    while todo:
        module, qual, node = todo.pop()
        if (module, qual) in reached:
            continue
        reached[module, qual] = node
        if isinstance(node, ast.ClassDef):
            classes.add((module, qual))
            todo += [(module, f"{qual}.{item.name}", item) for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name.startswith("__")]
            # a method read before its class was reached
            todo += [(m, f"{c}.{item.name}", item) for (m, q), n in list(reached.items())
                     if not isinstance(n, ast.ClassDef)
                     for attr in _attributes(n) for m, c, item in methods.get(attr, ())
                     if (m, c) == (module, qual)]
            continue
        for name in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
            key = imported.get((module, name), (module, name))
            if key in defs:
                todo.append((*key, defs[key]))
        for attr in _attributes(node):
            todo += [(m, f"{c}.{item.name}", item) for m, c, item in methods.get(attr, ())
                     if (m, c) in classes]
            todo += [(other, attr, defs[other, attr]) for other in module_imports[module]
                     if (other, attr) in defs]
    return {key: node.end_lineno - node.lineno + 1 for key, node in reached.items()
            if isinstance(node, ast.FunctionDef)}


def _attributes(node) -> set:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _report(label: str, base: dict) -> int:
    """Print base's lines in all, in how many functions and methods, and by
    module; return the lines."""
    by_module = {}
    for (module, _), lines in base.items():
        by_module[module] = by_module.get(module, 0) + lines
    total = sum(base.values())
    print(f"{label}: {total} lines in {len(base)} functions and methods; "
          + ", ".join(f"{m} {n}" for m, n in sorted(by_module.items())))
    return total


ROOTS = [("calculus", "replay"), ("logic", "member")]


def test_trusted_base_size():
    for root in ROOTS:
        _report(".".join(root), reachable([root]))
    base = reachable(ROOTS)
    total = _report("trusted base", base)
    for key in [("calculus", "_rule_trabs"), ("calculus", "_replay"),
                ("fo", "fo_valid"), ("logic", "_Member.sat"), ("logic", "_shape"),
                ("lang", "names"), ("traces", "State.__eq__")]:
        assert key in base, key
    assert not {m for m, _ in base} & {"proofs", "prover", "cli"}
    assert total == TRUSTED_LINES


def test_kernel_is_all_trusted():
    """calculus.py defines nothing the trusted base does not reach but the
    two constructors that the CLI builds a rule context with."""
    defs, methods, _, _ = index(SRC)
    defined = {name for (module, name), node in defs.items()
               if module == "calculus" and isinstance(node, ast.FunctionDef)}
    defined |= {f"{cls}.{item.name}" for items in methods.values()
                for module, cls, item in items if module == "calculus"}
    base = {name for module, name in reachable(ROOTS) if module == "calculus"}
    assert defined - base == {"RuleContext.for_program", "ContractAssumption.from_spec"}


def test_reachable_follows_names_imports_attributes_and_classes(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\nfrom .b import helper\nTABLE = {'x': helper}\n"
        "def root(o):\n    return TABLE, b.direct(), C().m()\n"
        "class C:\n    def __init__(self):\n        pass\n    def m(self):\n"
        "        return 1\n    def unused(self):\n        return 2\n"
        "class D:\n    def m(self):\n        return 3\n")
    (tmp_path / "b.py").write_text("def helper():\n    return 1\n\n\n"
                                   "def direct():\n    return 2\n\n\ndef unused():\n    pass\n")
    assert reachable([("a", "root")], tmp_path) == {
        ("a", "root"): 2, ("b", "helper"): 2, ("b", "direct"): 2,
        ("a", "C.__init__"): 2, ("a", "C.m"): 2}

"""Every module-level private function and class of the package is used.

A helper that a consolidation leaves behind is code that is never run by
the solver; this test names it.  A definition counts as used when a
statement other than itself, in any module of the package, refers to its
name: as a name, an attribute or an imported alias.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flexshop"


def _referenced(node: ast.AST) -> set:
    """Names that ``node`` refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _private_definitions(tree: ast.Module) -> list:
    return [stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")]


def test_no_unreferenced_private_definitions():
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    # (module, index of the top-level statement) -> names it refers to
    refs = {(name, idx): _referenced(stmt)
            for name, tree in modules.items()
            for idx, stmt in enumerate(tree.body)}
    unused = []
    for name, tree in modules.items():
        for stmt in _private_definitions(tree):
            own = (name, tree.body.index(stmt))
            if not any(stmt.name in names for key, names in refs.items()
                       if key != own):
                unused.append(f"{name}:{stmt.name}")
    assert modules and not unused, unused

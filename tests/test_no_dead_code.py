"""Every module-level private function and class of the package is used,
and so is every name a module imports.

A helper that a consolidation leaves behind is code that is never run by
the solver; this test names it.  A definition counts as used when a
statement other than itself, in any module of the package, refers to its
name: as a name, an attribute or an imported alias.  An import counts as
used when its module refers to the name it binds, or lists it in
``__all__``; ``__init__.py`` imports to re-export and is left out.  No
module imports another module's private (``_``-prefixed) name: what two
modules share is public.
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


def _bound_names(tree: ast.Module) -> list:
    """``(line, name)`` of each name that an import of ``tree`` binds."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.append((node.lineno, name))
    return bound


def _exported(tree: ast.Module) -> set:
    """The strings of the module's ``__all__``, if it has one."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_no_unused_imports():
    paths = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _exported(tree)
        unused += [f"{path.name}:{line}:{name}"
                   for line, name in _bound_names(tree) if name not in used]
    assert paths and not unused, unused


def test_no_private_names_across_modules():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            # relative imports, or absolute ones of the package
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "flexshop"):
                private += [f"{path.name}:{node.lineno}:{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, private

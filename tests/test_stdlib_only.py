"""The solver's runtime is pure standard library.

numpy, scipy and networkx may serve the tests and the benchmark as
independent cross-checks, never the package: every absolute import in
``src/flexshop`` must name a module of the standard library.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flexshop"


def _absolute_imports(tree: ast.Module):
    """(line, module name) of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_runtime_imports_only_the_standard_library():
    imports = [(path.name, line, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for line, name in _absolute_imports(
                   ast.parse(path.read_text(), str(path)))]
    foreign = [f"{module}:{line}: {name}" for module, line, name in imports
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert imports and not foreign, foreign

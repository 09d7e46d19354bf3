"""The package imports nothing at run time beyond the standard library and
numpy, as pyproject.toml's dependency list promises."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dephaser"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dephaser"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {(path.name, root) for path in files
               for root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
               if root not in ALLOWED}
    assert not outside, f"imports outside the standard library and numpy: {sorted(outside)}"

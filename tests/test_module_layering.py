"""Each dephaser module uses only the public names of the others.

A private name (one leading underscore, not a dunder) is a module's own
business: importing it with `from .mod import _name`, or reading it as
`alias._name` through a module alias, ties two modules to one unchecked
contract. The modules are parsed with ast, so nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dephaser"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _is_package_import(node):
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "dephaser")


def private_uses(source):
    """(line, text) of every private name taken from another package module."""
    tree = ast.parse(source)
    module_aliases = set()
    found = []
    for node in ast.walk(tree):
        if _is_package_import(node):
            for alias in node.names:
                if node.module is None or node.module == "dephaser":  # from . import mod [as m]
                    module_aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"from {'.' * node.level}{node.module} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dephaser.") and alias.asname:
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"channels.py", "coherence.py", "cli.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_uses(path.read_text()) == []


def test_checker_flags_both_forms():
    source = (
        "from .channels import Channel, _contract as _jam_contract\n"
        "from . import coherence as coh\n"
        "from .. import linalg\n"
        "import dephaser.sampling as smp\n"
        "x = coh._state_coherence(coh.L1) + linalg._as_complex(1) + smp._draw()\n"
        "y = coh.__name__ + _local()\n"
    )
    assert private_uses(source) == [
        (1, "from .channels import _contract"),
        (5, "coh._state_coherence"),
        (5, "linalg._as_complex"),
        (5, "smp._draw"),
    ]

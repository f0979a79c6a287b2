"""Module boundaries in ``src/toricleak``: each decision has one owner.

A module that imports a sibling's private name shares that sibling's
internals, which is how a second copy of a decision (such as the matcher)
grows.  Public names are the only way across a module boundary.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricleak"


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("toricleak"):
                continue
            offenders += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders

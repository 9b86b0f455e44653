"""Every name a module imports is used in it (src/ and tests/; bench/ is apart).

A name counts as used when it appears as an identifier anywhere in the
module, inside a string annotation, or in the module's ``__all__``.
``from __future__`` imports and star imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported(tree):
    """(name bound in the module, line) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used(ast.parse(annotation.value, mode="eval"))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        for name, line in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert found == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\nfrom typing import List, Optional\nx: List[int] = []\n",
         [("os", 1), ("Optional", 2)]),
        ("from __future__ import annotations\nimport os.path\nos.getcwd()\n", []),
        ("from .core import A, B\n__all__ = ['A']\nB()\n", []),
        ("import numpy as np\ndef f() -> 'np.ndarray':\n    pass\n", []),
        ("from dataclasses import dataclass, field\n@dataclass\nclass C:\n    pass\n",
         [("field", 1)]),
    ],
)
def test_checker_on_small_sources(source, unused):
    assert unused_imports(source) == unused

"""No module in src/, tests/, demos/ or tools/ imports a name it never uses.

A name counts as used when it appears as an identifier (``name`` or the
base of ``name.attr``) anywhere in the module, or when the module lists it
in ``__all__``. ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos", "tools")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}  # bound name -> line of its import
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_files_are_found():
    assert "src/selfgallery/selection.py" in FILES and "demos/01_quickstart.py" in FILES
    assert "tools/code_lines.py" in FILES


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_checker_flags_an_unused_import_and_spares_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .core import Gallery\n"
        "__all__ = ['Gallery']\n"
        "x: Optional[int] = np.zeros(os.path.sep.count('/'))\n"
    )
    assert unused_imports(source) == ["line 4: Sequence"]

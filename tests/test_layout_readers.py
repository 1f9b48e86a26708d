"""Only the gallery's owner reads its per-user template view.

``core`` defines ``Gallery.users`` and its element types ``Template`` and
``UserGallery``, kept only for the benchmark's checks; every other module in
``src/``, the engine that builds each cycle's gallery included, and every
demo reads the gallery through its row accessors (``samples``, ``owner``,
``inserted_at``, ``vectors``, ``sample_id``, ``true_user``, ``starts``,
``user_ids``), so a change of layout touches ``core`` only and the view
gains no reader.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {"core.py"}
LAYOUT = {"users", "templates"}
VIEW_TYPES = {"Template", "UserGallery"}
READERS = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name not in OWNERS
)


def layout_reads(source: str) -> list[str]:
    """Every read of an attribute named ``users`` or ``templates``, and every
    use of the name ``Template`` or ``UserGallery`` (an import included), in
    ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT | VIEW_TYPES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in VIEW_TYPES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in VIEW_TYPES]
    return found


def test_readers_are_found():
    assert {"src/selfgallery/matching.py", "src/selfgallery/engine.py"} <= set(READERS)
    assert "src/selfgallery/__init__.py" in READERS
    assert "demos/01_quickstart.py" in READERS
    assert not any(path.endswith("/core.py") for path in READERS)


@pytest.mark.parametrize("path", READERS)
def test_no_module_reads_the_template_layout(path):
    assert layout_reads((ROOT / path).read_text()) == []


def test_checker_flags_layout_reads_and_spares_accessors():
    source = (
        "users = gallery.user_ids\n"
        "mat, owner = gallery.vectors, gallery.owner\n"
        "n = len(gallery.users)\n"
        "ids = [t.sample.id for t in gallery.users[u].templates]\n"
        "templates = users\n"
    )
    assert sorted(layout_reads(source)) == ["line 3: .users", "line 4: .templates", "line 4: .users"]


def test_checker_flags_the_view_types():
    source = (
        "from .core import Batch, Template, UserGallery\n"
        "view = core.UserGallery(templates=(Template(sample=s),))\n"
        "templates_of = Batch\n"
    )
    assert sorted(layout_reads(source)) == [
        "line 1: import Template",
        "line 1: import UserGallery",
        "line 2: .UserGallery",
        "line 2: Template",
    ]

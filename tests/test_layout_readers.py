"""Only the gallery's owner reads its per-user template view.

``core`` defines ``Gallery.users`` and ``UserGallery.templates``; every
other module in ``src/``, the engine that builds each cycle's gallery
included, reads the gallery through its row accessors (``samples``,
``owner``, ``inserted_at``, ``vectors``, ``sample_id``, ``true_user``,
``user_ids``), so a change of layout touches ``core`` only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {"core.py"}
LAYOUT = {"users", "templates"}
READERS = sorted(
    path.relative_to(ROOT).as_posix()
    for path in (ROOT / "src").rglob("*.py")
    if path.name not in OWNERS
)


def layout_reads(source: str) -> list[str]:
    """Every read of an attribute named ``users`` or ``templates`` in ``source``."""
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT
    ]


def test_readers_are_found():
    assert {"src/selfgallery/matching.py", "src/selfgallery/engine.py"} <= set(READERS)
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

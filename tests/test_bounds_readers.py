"""Only ``core`` derives a gallery's user bounds or row order from an
``owner`` column.

``Gallery.starts`` holds each user's first row, then the row count, built
once per gallery, and ``core.user_bounds`` computes the same bounds for any
owner-grouped column (selection's candidates). ``core.row_order`` is the one
sort of rows by owner, then sample id, which ``Gallery`` applies to rows
given out of order and the engine to a cycle's candidates. Every other
module in ``src/``, and every demo, reads those: none calls ``unique``,
``searchsorted`` or ``lexsort`` (numpy's function or an array's method) on
an ``owner`` or ``owners`` column, so where a user's rows start, and in
which order they lie, is decided in ``core`` only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {"core.py"}
DERIVERS = {"unique", "searchsorted", "lexsort"}
COLUMNS = {"owner", "owners"}
READERS = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name not in OWNERS
)


def _names_a_column(node: ast.AST) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id in COLUMNS) or (isinstance(n, ast.Attribute) and n.attr in COLUMNS)
        for n in ast.walk(node)
    )


def bound_derivations(source: str) -> list[str]:
    """Every call of a function or method named ``unique``,
    ``searchsorted`` or ``lexsort`` in ``source`` whose receiver or any
    argument names an ``owner`` or ``owners`` column (a name or an
    attribute, also inside a tuple of sort keys), in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        receiver = [func.value] if isinstance(func, ast.Attribute) else []
        operands = receiver + node.args + [k.value for k in node.keywords]
        if name in DERIVERS and any(map(_names_a_column, operands)):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_readers_are_found():
    expected = {f"src/selfgallery/{m}.py" for m in ("matching", "metrics", "selection", "engine")}
    assert expected <= set(READERS)
    assert "demos/01_quickstart.py" in READERS
    assert not any(path.endswith("/core.py") for path in READERS)


@pytest.mark.parametrize("path", READERS)
def test_no_module_derives_user_bounds_from_owner(path):
    assert bound_derivations((ROOT / path).read_text()) == []


def test_checker_flags_each_owner_derivation_and_spares_the_rest():
    source = (
        "users = np.unique(self.owner).tolist()\n"
        "users, starts = np.unique(owner, return_index=True)\n"
        "row_end = np.searchsorted(owners, owners, side='right')\n"
        "starts = np.searchsorted(gallery.owner, users)\n"
        "users, counts = np.unique(owner, return_counts=True)\n"
        "first = owner.searchsorted(users)\n"
        "users = unique(ar=gallery.owner[rows])\n"
        "ends = np.unique(row_end)\n"
        "rows = np.searchsorted(ids, held)\n"
        "groups = np.searchsorted(np.unique(labels), labels)\n"
        "starts = user_bounds(owner)\n"
        "users = gallery.owner[gallery.starts[:-1]]\n"
        "by_id = np.lexsort((sample_id, owner))\n"
        "rows = lexsort(keys=(ids, gallery.owner))\n"
        "order = np.lexsort((d2, user_index))\n"
        "by_id = row_order(owner, sample_id)\n"
    )
    assert bound_derivations(source) == [f"line {i}: {name}" for i, name in (
        (1, "unique"), (2, "unique"), (3, "searchsorted"), (4, "searchsorted"), (5, "unique"),
        (6, "searchsorted"), (7, "unique"), (13, "lexsort"), (14, "lexsort"),
    )]

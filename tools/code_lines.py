"""Count the code lines of Python files.

A code line holds at least one token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER; the lines of module, class and function
docstrings do not count. A token that spans lines (a triple-quoted string)
counts on every line it spans. Prints one count per file and the total.

    python tools/code_lines.py src/selfgallery [more files or folders]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The lines of every module, class and function docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths: list[str]) -> list[Path]:
    found = []
    for p in map(Path, paths):
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in python_files(argv):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

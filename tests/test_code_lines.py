"""``tools/code_lines.py`` counts the lines that hold code.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER, and is not part of a module, class or function
docstring.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line counted

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        s = """a string that is
no docstring"""
        return (
            s
        )
'''


def test_counts_code_and_skips_comments_blanks_and_docstrings():
    # import, class, x, def, the string's two lines, return, s, )
    assert code_lines.code_lines(SNIPPET) == 9


def test_a_string_after_the_first_statement_is_no_docstring():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines.code_lines('def f():\n    """doc"""\n') == 1


def test_finds_python_files_under_a_folder_and_counts_the_package(capsys):
    files = code_lines.python_files([str(ROOT / "tools")])
    assert [f.name for f in files] == ["code_lines.py"]
    assert code_lines.main([str(ROOT / "src" / "selfgallery")]) == 0
    out = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in out]
    assert out[-1].endswith("total") and counts[-1] == sum(counts[:-1]) > 0

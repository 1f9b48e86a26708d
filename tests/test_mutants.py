"""``tests/mutants.py``'s entries match today's source, and
``tools/mutants.py`` finds an entry that does not."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_every_entry_names_one_snippet_and_existing_tests():
    mutants = tool.load()
    assert tool.stale(mutants, ROOT / "src") == []
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.snippet != m.replacement and m.tests
        assert all((ROOT / t).is_file() and Path(t).name.startswith("test_") for t in m.tests)


def test_a_snippet_that_does_not_occur_exactly_once_is_stale(tmp_path):
    (tmp_path / "m.py").write_text("a = 1\nb = 1\n")
    cases = [("twice", "m.py", " = 1"), ("gone", "m.py", "c"), ("no file", "n.py", "a"), ("once", "m.py", "a = 1")]
    mutants = [SimpleNamespace(name=n, file=f, snippet=s) for n, f, s in cases]
    assert tool.stale(mutants, tmp_path) == [
        "stale: twice: its snippet occurs 2 times in src/m.py",
        "stale: gone: its snippet occurs 0 times in src/m.py",
        "stale: no file: its snippet occurs 0 times in src/n.py",
    ]

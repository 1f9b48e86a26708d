"""``tests/mutants.py``'s entries match today's source, ``tools/mutants.py``
finds an entry that does not, it reads a benchmark run's verdict, and its
sweep sorts a tiny tree's mutants into killed, known equivalent and
unexplained."""

import importlib.util
import json
import subprocess
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_every_entry_names_one_snippet_and_existing_tests_or_a_benchmark_run():
    mutants = tool.load()
    assert tool.stale(mutants, ROOT / "src") == []
    assert len({m.name for m in mutants}) == len(mutants)
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for m in mutants:
        assert m.snippet != m.replacement
        if hasattr(m, "tests"):
            assert m.tests
            assert all((ROOT / t).is_file() and Path(t).name.startswith("test_") for t in m.tests)
        else:
            workload, seed, seconds = m.run
            assert workload in workloads and seed >= 1 and seconds >= 1
    assert any(hasattr(m, "run") for m in mutants)
    equivalents = tool.table().EQUIVALENTS
    assert tool.stale(equivalents, ROOT / "src") == []
    assert all(e.reason for e in equivalents)


def test_a_snippet_that_does_not_occur_exactly_once_is_stale(tmp_path):
    (tmp_path / "m.py").write_text("a = 1\nb = 1\n")
    cases = [("twice", "m.py", " = 1"), ("gone", "m.py", "c"), ("no file", "n.py", "a"), ("once", "m.py", "a = 1")]
    mutants = [SimpleNamespace(name=n, file=f, snippet=s) for n, f, s in cases]
    assert tool.stale(mutants, tmp_path) == [
        "stale: twice: its snippet occurs 2 times in src/m.py",
        "stale: gone: its snippet occurs 0 times in src/m.py",
        "stale: no file: its snippet occurs 0 times in src/n.py",
    ]


@pytest.mark.parametrize(
    "status, stdout, want",
    [
        (0, 'workload x\n{"correct": true, "failed": 0}\n', True),
        (0, '{"correct": false, "failed": 40}\n', False),
        (1, "", None),  # run.py failed
    ],
)
def test_a_benchmark_run_is_read_by_its_last_lines_correct_field(status, stdout, want):
    assert tool.correct(subprocess.CompletedProcess([], status, stdout, "")) is want


# one mutant killed (positive at x == 0), one listed as equivalent (cap at
# x == 10) and one unexplained survivor (floor at x == 0)
FIXTURE = {
    "src/pkg/__init__.py": "",
    "src/pkg/mod.py": """\
        def positive(x):
            return x > 0


        def cap(x):
            return x if x <= 10 else 10


        def floor(x):
            return x if x >= 0 else 0
        """,
    "tests/test_mod.py": """\
        from pkg.mod import cap, floor, positive


        def test_mod():
            assert [positive(-1), positive(0), positive(2)] == [False, False, True]
            assert [cap(3), cap(10), cap(12)] == [3, 10, 10]
            assert [floor(-1), floor(0), floor(2)] == [0, 0, 2]
        """,
    "tests/mutants.py": """\
        from types import SimpleNamespace

        EQUIVALENTS = (SimpleNamespace(file="pkg/mod.py", snippet=SNIPPET, reason="both sides give 10 at x == 10"),)
        """,
}


def fixture(root: Path, snippet: str) -> Path:
    for name, text in FIXTURE.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(textwrap.dedent(text).replace("SNIPPET", repr(snippet)))
    return root


def test_the_sweep_sorts_each_flipped_comparison(tmp_path, capsys):
    assert tool.sweep(fixture(tmp_path, "x <= 10")) == 1  # the unexplained survivor fails it
    *lines, total = capsys.readouterr().out.splitlines()
    assert [(line.split()[0], line.split(" s  ", 1)[1]) for line in lines] == [
        ("killed", "src/pkg/mod.py:2  > -> >=  return x > 0"),
        ("equivalent", "src/pkg/mod.py:6  <= -> <  return x if x <= 10 else 10"),
        ("UNEXPLAINED", "src/pkg/mod.py:10  >= -> >  return x if x >= 0 else 0"),
    ]
    assert total == "3 mutants: 1 killed, 1 equivalent, 1 unexplained, 0 contradicted, 0 error"


def test_the_sweep_refuses_a_stale_equivalent_before_running_a_test(tmp_path, capsys):
    assert tool.sweep(fixture(tmp_path, "x <= 11")) == 1
    assert capsys.readouterr().out == "stale: 'x <= 11': its snippet occurs 0 times in src/pkg/mod.py\n"

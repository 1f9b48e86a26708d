"""``tests/mutants.py``'s entries match today's source, ``tools/mutants.py``
finds an entry that does not, and it reads a benchmark run's verdict."""

import importlib.util
import json
import subprocess
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

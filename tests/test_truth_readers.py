"""The update path never reads ground truth; only evaluation does.

In the paper a probe's identity is unknown during operation: the engine
pseudo-labels it by matching, and selection and clustering see only the
candidates it built. So no ``.true_user`` read appears in ``matching``,
``engine``, ``selection`` or ``clustering``. Evaluation (``metrics``) reads
it in ``_nearest_by_user``, which gives the score sets and scatter files
each test sample's own user, and in ``impostor_fraction``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "selfgallery"
UPDATE_PATH = ["matching.py", "engine.py", "selection.py", "clustering.py"]


def truth_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level definition, line) of every ``.true_user`` read in
    ``source``; a read outside any definition is under ``<module>``."""
    return [
        (getattr(top, "name", "<module>"), node.lineno)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "true_user"
    ]


@pytest.mark.parametrize("name", UPDATE_PATH)
def test_the_update_path_reads_no_ground_truth(name):
    assert truth_reads((SRC / name).read_text()) == []


def test_metrics_reads_ground_truth_only_where_it_scores():
    reads = truth_reads((SRC / "metrics.py").read_text())
    assert {where for where, _ in reads} == {"_nearest_by_user", "impostor_fraction"}


def test_checker_names_the_definition_around_each_read():
    source = (
        "truth = sample.true_user\n"
        "def classify(s):\n"
        "    return s.true_user\n"
        "class Policy:\n"
        "    def rank(self):\n"
        "        return [t.sample.true_user for t in self.rows]\n"
        "true_user = 3\n"
    )
    assert truth_reads(source) == [("<module>", 1), ("classify", 3), ("Policy", 6)]

"""Only ``core`` writes out the checks of a scalar parameter.

``core.check_integer(value, name, low)`` checks every key, index, count,
size and seed, with its floor when it has one, and ``core.check_real(value,
name)`` every real parameter; both refuse a bool. Outside ``core``, no module
in ``src/`` or ``demos/`` compares a ``check_integer`` call's result (a floor
is its ``low`` argument, so its message is ``core``'s), calls
``isinstance(..., bool)`` or names ``numbers.Real``. A real parameter's
interval stays with its caller (``0 < check_real(q, "q") < 1``), since the
intervals differ.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {"core.py"}
READERS = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name not in OWNERS
)


def _calls(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is a call of a function or method named ``name``."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def hand_written_checks(source: str) -> list[str]:
    """Every comparison in ``source`` with a ``check_integer`` call inside an
    operand, every ``isinstance`` call whose types name ``bool``, and every
    ``numbers.Real`` (an attribute, or imported from ``numbers``), in line
    order."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            if any(_calls(n, "check_integer") for op in operands for n in ast.walk(op)):
                found.add((node.lineno, "compares check_integer"))
        elif _calls(node, "isinstance") and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in types):
                found.add((node.lineno, "isinstance bool"))
        elif isinstance(node, ast.Attribute) and node.attr == "Real" and getattr(node.value, "id", None) == "numbers":
            found.add((node.lineno, "numbers.Real"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers" and "Real" in {a.name for a in node.names}:
            found.add((node.lineno, "numbers.Real"))
    return [f"line {line}: {kind}" for line, kind in sorted(found)]


def test_readers_are_found():
    expected = {f"src/selfgallery/{m}.py" for m in ("matching", "metrics", "selection", "synthgen", "experiment")}
    assert expected <= set(READERS)
    assert "demos/01_quickstart.py" in READERS
    assert not any(path.endswith("/core.py") for path in READERS)


@pytest.mark.parametrize("path", READERS)
def test_no_module_writes_out_a_scalar_check(path):
    assert hand_written_checks((ROOT / path).read_text()) == []


def test_checker_flags_each_hand_written_check_and_spares_the_rules():
    source = (
        'if check_integer(p, "p") < 1: raise ValueError("p must be positive")\n'
        'if min(check_integer(k, "k"), check_integer(s, "S")) < 1: raise ValueError\n'
        'if core.check_integer(self.base_seed, "base_seed") + 1 < 0: raise ValueError\n'
        "if isinstance(t_star, bool) or not (isinstance(t_star, numbers.Real) and t_star >= 0): raise ValueError\n"
        "if self.q is not None and not (isinstance(self.q, numbers.Real) and 0.0 < self.q < 1.0): raise ValueError\n"
        "ok = not isinstance(v, (bool, str))\n"
        "from numbers import Integral, Real\n"
        'check_integer(p, "p", 1)\n'
        'if not 0 < check_real(q, "q") < 1: raise ValueError\n'
        'n = core.check_integer(k, "k", 1) * 2\n'
        "if isinstance(methods, str): raise ValueError\n"
        "if p < 1: raise ValueError\n"
    )
    assert hand_written_checks(source) == [f"line {i}: {kind}" for i, kind in (
        (1, "compares check_integer"), (2, "compares check_integer"), (3, "compares check_integer"),
        (4, "isinstance bool"), (4, "numbers.Real"), (5, "numbers.Real"), (6, "isinstance bool"),
        (7, "numbers.Real"),
    )]

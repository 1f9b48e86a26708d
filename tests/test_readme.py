"""README's hand-built cycle runs as written and prints what its comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cycle_prints_its_commented_line(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    expected = re.findall(r"^print\(.*\)  # (.*)$", blocks[0], re.M)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected == ["((2, 1),) [0 2 1]"]

"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert 0.0 <= float(printed[0]) <= 1.0

"""The README's library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the quick start holds one python block"
    return blocks[0]


def test_library_quick_start_runs():
    exec(compile(_quick_start(), str(README), "exec"), {})

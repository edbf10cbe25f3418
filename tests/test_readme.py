"""The README's python examples name only what the package exports."""

import re
from pathlib import Path

import narmaxtag

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_name_existing_api():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = set(re.findall(r"\bnt\.(\w+)", "".join(blocks)))
    assert names, "no nt.<name> found in the README's python blocks"
    assert sorted(name for name in names if not hasattr(narmaxtag, name)) == []

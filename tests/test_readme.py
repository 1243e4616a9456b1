"""The README's library example runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert "tree-inertia True" in lines
    assert not any(ln.endswith(" False") for ln in lines)

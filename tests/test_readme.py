"""The README's Python examples run as written, in order, in one namespace."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for number, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)

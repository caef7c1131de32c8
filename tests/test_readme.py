"""The README's examples run as written: its Python blocks in order, in one
namespace, and each `stimclone` command line of its sh blocks."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from stimclone.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for number, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_stimclone_commands_exit_0():
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("stimclone ")]
    assert lines
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(shlex.split(line)[1:]) == 0, line

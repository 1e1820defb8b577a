"""The README's library example runs and prints what it says it prints, and
its "Global flags" paragraph names exactly the CLI's global options."""

import contextlib
import io
import re
from pathlib import Path

from cocycle_forge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().split() == ["2", "4", "True"]


def test_readme_global_flags_match_cli():
    (paragraph,) = re.findall(r"^Global flags:.*?(?=\n\n)", README.read_text(), re.S | re.M)
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    options = {opt for param in main.params for opt in param.opts if opt.startswith("--")}
    assert documented == options

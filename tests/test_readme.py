"""README's library example runs, and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_prints_its_comments():
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    # each line "print(...)  # <literal>" promises the line it prints
    expected = [
        line.rsplit("  # ", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected

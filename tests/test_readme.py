"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    """(first line number, source) of each ```python block of the README."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    ]


BLOCKS = python_blocks()


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "readme_example"})

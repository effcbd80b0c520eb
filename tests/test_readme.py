"""The README's Python examples run as written, and its config file example
is one the CLI reads."""

import csv
import re
from pathlib import Path

import pytest

from physec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(language: str) -> list:
    """(first line number, source) of each ```<language> block of the README."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    ]


BLOCKS = code_blocks("python")
CONFIG_BLOCKS = code_blocks("ini")


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "readme_example"})


def test_the_readme_has_a_config_file_example():
    assert len(CONFIG_BLOCKS) >= 1


@pytest.mark.parametrize("line, source", CONFIG_BLOCKS, ids=[f"line{line}" for line, _ in CONFIG_BLOCKS])
def test_readme_config_block_runs(line, source, tmp_path):
    config = tmp_path / "readme.cfg"
    config.write_text(source, encoding="utf-8")
    values = {}
    for key, text in cli.read_config_file(str(config)).items():
        assert key in cli._OPTIONS, f"line {line}: {key!r} is not a config file option"
        values[key] = cli._OPTIONS[key][0](text)
    out = tmp_path / "rows.csv"
    argv = ["evaluate", "--config", str(config), "--blocks", "2", "--block-size", "50", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out, newline="") as fh:
        rows = [(row["detector"], int(row["M"])) for row in csv.DictReader(fh)]
    assert rows == [(detector, m) for detector in values["detector"] for m in values["m"]]

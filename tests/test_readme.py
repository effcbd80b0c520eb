"""The README's Python examples and shell recipes run as written, its config
file example is one the CLI reads, and the figures it quotes are the ones
the program computes."""

import csv
import re
import shlex
from pathlib import Path

import pytest

from physec import cli
from physec import evaluation as ev

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


def physec_commands() -> list:
    """(line, argv) of each `physec` command in the README's sh blocks, in
    order; a `for x in a b; do ...; done` loop gives one command per value."""
    commands = []
    for first, source in code_blocks("sh"):
        for offset, line in enumerate(source.splitlines()):
            loop = re.fullmatch(r"for (\w+) in (.*?); do (.*?); done", line.strip())
            if loop:
                name, values, body = loop.groups()
                lines = [body.replace(f"${name}", value) for value in values.split()]
            else:
                lines = [line]
            for text in lines:
                argv = shlex.split(text, comments=True)
                if argv[:1] == ["physec"]:
                    commands.append((first + offset, argv[1:]))
    return commands


def test_the_readme_shell_recipes_run(tmp_path, monkeypatch):
    # in order, since a replay reads the trace a recipe before it writes;
    # an option gone from the CLI cannot stay in a recipe
    commands = physec_commands()
    assert {argv[0] for _, argv in commands} == {"simulate", "evaluate", "roc"}
    monkeypatch.chdir(tmp_path)
    for line, argv in commands:
        try:
            code = cli.main([*argv, "--blocks", "2", "--block-size", "50"])
        except SystemExit as exc:  # a usage error
            code = exc.code
        assert code == 0, f"README line {line}: physec {shlex.join(argv)}"


def test_the_readme_quotes_the_ratchet_it_measures():
    # the caveat on decision-directed updating: realized false-alarm rates
    # at a 1% target, 20 blocks x 1000 messages, 20 dB, static channel,
    # seeds 0-3, each range printed in percent at the README's precision
    rates = {}  # (updating, M) -> the realized P_FA of each seed
    for seed in range(4):
        configs = [
            ev.ExperimentConfig(
                m_subcarriers=m, snr_db=20.0, num_blocks=20, block_size=1000, target_fa=0.01,
                rng_seed=seed, update_enabled=updating,
            )
            for updating in (True, False)
            for m in (8, 16)
        ]
        for config, result in zip(configs, ev.run_grid(configs)):
            rates.setdefault((config.update_enabled, config.m_subcarriers), []).append(result.p_fa)

    def printed(updating, m, decimals):
        low, high = min(rates[updating, m]), max(rates[updating, m])
        return f"{100 * low:.{decimals}f}–{100 * high:.{decimals}f}% at M = {m}"

    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = (
        f"the updating detector realized {printed(True, 8, 1)} and {printed(True, 16, 1)}; "
        f"`gmm-noupdate` realized {printed(False, 8, 2)} and {printed(False, 16, 2)}."
    )
    assert sentence in text

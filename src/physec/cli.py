"""Command-line front end: simulate traces, evaluate detectors, export ROC tables.

Subcommands: simulate | evaluate | roc.  Each experiment option is one row of
`_OPTIONS`, which gives its flag, its config-file key, its parser, the
ExperimentConfig field it sets and its help; each command takes a named
subset of the rows.  Options can also come from a flat key=value config file
('#' starts a comment); explicit flags win over file entries, and file
entries over the preset.  A file key of an option the running command does
not take is skipped, so one file can serve every command, but a replay
refuses the options that shape the simulated channel from a file as from a
flag.  An option nobody sets is not passed on, so its default is the one
ExperimentConfig declares.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

from . import evaluation as ev
from . import trace_io
from .evaluation import DetectorKind, ExperimentConfig

RESULT_COLUMNS = [
    "detector",
    "M",
    "snr_db",
    "target_fa",
    "realized_fa",
    "p_d",
    "p_md",
    "blocks",
    "seed",
    "update",
    "components",
]


class UsageError(ValueError):
    """A refusal of what the user asked for: reported with the command's
    usage line and exit status 2.  Every other ValueError is a fault of the
    program and propagates."""


# Small-scale override for quick runs, keyed by option name.
DESK_PRESET = {"blocks": 10, "block_size": 200}


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _imitation(text: str) -> str | None:
    """The attacker prefilter that a boolean turns on or leaves unset."""
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return ev.PERFECT_IMITATION
    if lowered in {"0", "false", "no", "off"}:
        return None
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _names(kind) -> list[str]:
    """The names an enum's members are spelled by on the command line."""
    return [member.value for member in kind]


def _name_list(text: str, what: str, choices: list) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names or not set(names) <= set(choices):
        raise argparse.ArgumentTypeError(f"not a comma-separated list of {what}s ({', '.join(choices)}): {text!r}")
    return names


# --update mode -> the (update_enabled, oracle_update) pair of ExperimentConfig it sets
UPDATE_MODES = {"off": (False, False), "decisions": (True, False), "labels": (True, True)}
_detector_list = partial(_name_list, what="detector", choices=_names(DetectorKind))
_update_list = partial(_name_list, what="update mode", choices=list(UPDATE_MODES))
_UPDATE_MODE_OF = {fields: mode for mode, fields in UPDATE_MODES.items()}


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' comments and blank lines are ignored.

    A key may be given once: keys are compared with '-' read as '_', so
    `block-size` and `block_size` are one key.
    """
    values, lines = {}, {}  # by key: its text and its line number
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key=value, got {raw.rstrip()!r}")
            key = key.strip().replace("-", "_")
            if key in lines:
                raise ValueError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            values[key] = value.strip()
    return values


# option name -> (parser of its text, the ExperimentConfig field it sets or
# None for a grid axis, help).  The name is the config-file key and, with
# "_" as "-", the long flag.  A grid axis takes a comma list, and a repeated
# flag extends it.  A field's help ends in its ExperimentConfig default.
_OPTIONS = {
    "seed": (int, "rng_seed", "experiment seed"),
    "snr": (float, "snr_db", "estimation SNR in dB"),
    "m_full": (int, "m_full", "active subcarriers in the system"),
    "taps": (int, "num_taps", "channel taps"),
    "coherence": (float, "coherence_samples", "coherence time in estimation intervals, inf = static"),
    "blocks": (int, "num_blocks", "total blocks incl. training"),
    "block_size": (int, "block_size", "messages per block"),
    "imitate": (_imitation, "prefilter", "give the attacker a prefilter imitating the legitimate link"),
    "attack": (float, "attack_intensity", "attacker message probability"),
    "detector": (_detector_list, None,
                 f"detectors to run, {' or '.join(_names(DetectorKind))} (default {ExperimentConfig.detector.value})"),
    "m": (_int_list, None, f"subcarrier counts, e.g. 4,16 (default {ExperimentConfig.m_subcarriers})"),
    "fa": (float, "target_fa", "target false-alarm rate"),
    "components": (int, "gmm_components", "mixture components"),
    "update": (_update_list, None,
               "update modes of the mixture detector, a row each: off, decisions (refit on the messages "
               "it accepted) or labels (on the legitimate ones) "
               f"(default {_UPDATE_MODE_OF[ExperimentConfig.update_enabled, ExperimentConfig.oracle_update]})"),
}
# the options of each command: what shapes the simulated estimates of both
# links, and for a run of detectors also what the detectors read
_STREAM_OPTIONS = ("seed", "snr", "m_full", "taps", "coherence", "blocks", "block_size", "imitate")
_RUN_OPTIONS = (*_STREAM_OPTIONS, "attack", "detector", "m", "fa", "components", "update")


def _settings(args) -> dict:
    """Every option's value by name: the preset's, overridden by the config
    file's, overridden by the flags set."""
    settings = dict(DESK_PRESET) if args.preset == "desk" else {}
    if args.config is not None:
        try:
            raw = read_config_file(args.config)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except ValueError as exc:
            raise UsageError(f"bad config file: {exc}")
        for key, text in raw.items():
            if key not in _OPTIONS:
                raise UsageError(f"unknown config file key {key!r}")
            if not hasattr(args, key):
                continue  # an option of another command
            try:
                settings[key] = _OPTIONS[key][0](text)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise UsageError(f"config file key {key!r}: {exc}")
    settings.update((key, value) for key, value in vars(args).items() if value is not None)
    return settings


def _experiment_kwargs(settings: dict) -> dict:
    """The ExperimentConfig fields that some option set, and only those."""
    fields = ((field, settings.get(key)) for key, (_, field, _) in _OPTIONS.items() if field)
    return {field: value for field, value in fields if value is not None}


def _fmt(value) -> str:
    return "nan" if value is None else repr(value)


def _result_row(config: ExperimentConfig, result) -> tuple:
    """One config's row, in RESULT_COLUMNS order; the baseline has neither
    an update mode nor mixture components."""
    use_gmm = config.detector is DetectorKind.GMM
    return (
        ("gmm" if config.update_enabled else "gmm-noupdate") if use_gmm else "mse",
        config.m_subcarriers,
        _fmt(config.snr_db),
        _fmt(config.target_fa),
        _fmt(result.p_fa),
        _fmt(result.p_d),
        _fmt(result.p_md),
        config.num_blocks,
        config.rng_seed,
        _UPDATE_MODE_OF[config.update_enabled, config.oracle_update] if use_gmm else "",
        config.gmm_components if use_gmm else "",
    )


def _write_csv(out: str | None, what: str, header: list, rows) -> None:
    """Write `header` and `rows` as CSV to the file `out`, or to stdout when
    `out` is None.  The file's OSError (say, a missing directory) is a usage
    error that names `what`; stdout's, such as a closed pipe, is not."""
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if out is None:
        return emit(sys.stdout)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {what}: {exc}")


def _print_table(rows: list) -> None:
    lines = [RESULT_COLUMNS, *([str(value) for value in row] for row in rows)]
    widths = [max(len(cell) for cell in column) for column in zip(*lines)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in lines]
    lines.insert(1, "-" * len(lines[0]))
    print(*lines, sep="\n", file=sys.stderr)


def _configs(settings: dict, trace) -> list:
    """One ExperimentConfig per result row, in row order: detector, then M,
    then, for the mixture detector, each --update mode."""
    kwargs = _experiment_kwargs(settings)
    updates = [UPDATE_MODES[name] for name in settings.get("update", [])]
    if trace is not None:
        # a recording fixes the channel, so an option that only shapes the
        # simulated one would change nothing (--snr still labels the rows)
        for key in ("coherence", "taps"):
            if settings.get(key) is not None:
                raise UsageError(f"--{key} shapes the simulated channel; a trace replay has none")
        m_full = trace.header.m_full
        if kwargs.get("m_full", m_full) != m_full:
            raise UsageError(f"--m-full {kwargs['m_full']} differs from the trace's m_full={m_full}")
        # a replay draws no taps: any count the recording's width admits will do
        kwargs.update(m_full=m_full, num_taps=min(ExperimentConfig.num_taps, m_full))
    detectors = [{"detector": DetectorKind(name)} for name in settings.get("detector", [])] or [{}]
    m_values = [{"m_subcarriers": m} for m in settings.get("m", [])] or [{}]
    configs = []
    for detector in detectors:
        for m in m_values:
            config = _experiment_config(**kwargs, **detector, **m)
            if updates and config.detector is DetectorKind.GMM:
                configs += [replace(config, update_enabled=u, oracle_update=o) for u, o in updates]
            else:
                configs.append(config)
    # an explicit option that would change nothing is a usage error
    if updates and all(config.detector is DetectorKind.MSE for config in configs):
        raise UsageError("--update applies to the mixture detector; mse has no update mode")
    return configs


def _experiment_config(**kwargs) -> ExperimentConfig:
    """An ExperimentConfig, whose refusals are the options' and so usage errors."""
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run(args, single: bool = False) -> tuple:
    """The configs the options ask for, in row order, and their results,
    simulated or replayed from --trace; with `single`, more than one config
    is refused before a row is drawn.

    A replay's data is the user's recording, so each of its refusals is a
    usage error (a malformed trace keeps its own type).  A simulated run's
    data is the program's, so a ValueError there is a fault of the program.
    """
    settings = _settings(args)
    with trace_io.TraceReader(args.trace) if args.trace is not None else nullcontext() as trace:
        configs = _configs(settings, trace)
        if single and len(configs) != 1:
            raise UsageError("roc needs exactly one detector, m value and update mode")
        try:
            return configs, ev.run_grid(configs, trace)
        except ValueError as exc:
            if trace is None or isinstance(exc, trace_io.TraceFormatError):
                raise
            raise UsageError(str(exc)) from exc


def cmd_simulate(args) -> int:
    kwargs = _experiment_kwargs(_settings(args))
    blocks = kwargs.pop("num_blocks", ExperimentConfig.num_blocks)
    if blocks < 1:
        raise UsageError("--blocks must be >= 1")
    # the stream reads only the seed, block size and channel fields; the
    # others only keep the config valid, and the baseline trains on any block size
    config = _experiment_config(
        m_subcarriers=kwargs.get("m_full", ExperimentConfig.m_full), detector=DetectorKind.MSE, **kwargs
    )
    total = blocks * config.block_size
    # a config's m_full is narrower than any a header refuses
    header = trace_io.TraceHeader(config.m_full, description="simulated")
    try:
        trace_io.write_trace(
            header, args.out, [ev.BOB_LINK, ev.EVE_LINK], ev.simulated_estimate_chunks(config, blocks)
        )
    except trace_io.TraceDestinationError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot write trace: {exc}")
    print(f"wrote {2 * total} records ({total} per link) to {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    rows = [_result_row(config, result) for config, result in zip(*_run(args))]
    _print_table(rows)
    _write_csv(args.out, "results", RESULT_COLUMNS, rows)
    return 0


def cmd_roc(args) -> int:
    _, (result,) = _run(args, single=True)
    if not (result.bob_scores.size and result.eve_scores.size):
        raise UsageError("roc needs legitimate and attacker messages in the test blocks")
    curve = ev.compute_roc(result.bob_scores, result.eve_scores)
    _write_csv(args.out, "ROC curve", ["p_fa", "p_d"], zip(curve.p_fa.tolist(), curve.p_d.tolist()))
    print(f"wrote {curve.p_fa.size} operating points to {args.out}", file=sys.stderr)
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which refuses an option it does not know under
    its own usage line; the top-level parser reports only its own."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


def _add_command(subs, name: str, func, options: tuple, help: str) -> argparse.ArgumentParser:
    """The parser of one command, with the table rows it takes."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(func=func, parser=sub)
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--preset", choices=["desk"],
                     help="desk = {blocks} blocks x {block_size} messages".format(**DESK_PRESET))
    for option in options:
        parse, field, text = _OPTIONS[option]
        flag = "--" + option.replace("_", "-")
        if field is None:
            sub.add_argument(flag, type=parse, action="extend", help=f"{text}; a comma list, repeatable")
        elif parse is _imitation:  # a switch: the flag takes no value
            sub.add_argument(flag, action="store_const", const=parse("on"), help=text)
        else:
            sub.add_argument(flag, type=parse, help=f"{text} (default {getattr(ExperimentConfig, field):g})")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physec",
        description="Channel-based message authentication experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_sim = _add_command(subs, "simulate", cmd_simulate, _STREAM_OPTIONS,
                         "write a simulated two-link estimate trace")
    p_sim.add_argument("--out", required=True, help="trace CSV path")

    p_eval = _add_command(subs, "evaluate", cmd_evaluate, _RUN_OPTIONS,
                          "run a grid of detectors, M values and update modes, report rates")
    p_eval.add_argument("--trace", help="replay a recorded trace instead of simulating")
    p_eval.add_argument("--out", help="results CSV path (default: stdout)")

    p_roc = _add_command(subs, "roc", cmd_roc, _RUN_OPTIONS, "run one detector and write its ROC curve")
    p_roc.add_argument("--trace", help="replay a recorded trace instead of simulating")
    p_roc.add_argument("--out", required=True, help="ROC curve CSV path")

    return parser


def main(argv=None) -> int:
    """Run the command that `argv` names and return its exit code.

    What the command refuses is a usage error (exit 2), reported through the
    command's own parser, whose usage line shows that command's options: a
    malformed trace, a trace that cannot be read, and any UsageError, by
    its message.  A reader of the output that goes away ends the command
    quietly (exit 1); any other OSError or ValueError, such as a fault
    inside a simulated run, is not the user's and propagates.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except trace_io.TraceFormatError as exc:
        args.parser.error(f"bad trace file: {exc}")
    except trace_io.TraceReadError as exc:
        args.parser.error(f"cannot read trace: {exc}")
    except BrokenPipeError:
        # as the `signal` documentation advises for SIGPIPE: point stdout at
        # devnull, so that the flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: simulate traces, evaluate detectors, export ROC tables.

Subcommands: simulate | evaluate | roc.  Options can also come from a flat
key=value config file ('#' starts a comment); explicit flags win over file
entries, and file entries over the preset.  The PHYSEC_SEED environment
variable overrides any --seed.  An option nobody sets is not passed on, so
its default is the one ExperimentConfig declares.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

import numpy as np

from . import evaluation as ev
from . import gmm, trace_io
from .evaluation import DetectorKind, ExperimentConfig
from .features import FeatureKind

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


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
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


def _feature_kind(text: str) -> FeatureKind:
    try:
        return FeatureKind(text.strip().lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown feature {text!r} (choose from {sorted(_names(FeatureKind))})"
        )


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' comments and blank lines are ignored."""
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key=value, got {raw.rstrip()!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# option name -> (config-file parser, the ExperimentConfig field it sets);
# names match the long CLI flags.  "seed", "imitate", "m", "detector" and
# "update" are turned into fields by hand.
_OPTIONS = {
    "m": (_int_list, None),
    "m_full": (int, "m_full"),
    "snr": (float, "snr_db"),
    "attack": (float, "attack_intensity"),
    "blocks": (int, "num_blocks"),
    "block_size": (int, "block_size"),
    "coherence": (float, "coherence_samples"),
    "fa": (float, "target_fa"),
    "seed": (int, None),
    "taps": (int, "num_taps"),
    "components": (int, "gmm_components"),
    "feature": (_feature_kind, "feature_kind"),
    "detector": (_detector_list, None),
    "update": (_update_list, None),
    "imitate": (_bool, None),
}


def _settings(args) -> dict:
    """Every option's value by name: the preset's, overridden by the config
    file's, overridden by the flags set."""
    settings = dict(DESK_PRESET) if getattr(args, "preset", None) == "desk" else {}
    path = getattr(args, "config", None)
    if path:
        try:
            raw = read_config_file(path)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except ValueError as exc:
            raise UsageError(f"bad config file: {exc}")
        for key, text in raw.items():
            if key not in _OPTIONS:
                raise UsageError(f"unknown config file key {key!r}")
            try:
                settings[key] = _OPTIONS[key][0](text)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise UsageError(f"config file key {key!r}: {exc}")
    settings.update((key, value) for key, value in vars(args).items() if value is not None)
    return settings


def _experiment_kwargs(settings: dict) -> dict:
    """The ExperimentConfig fields that some option set, and only those."""
    kwargs = {field: settings.get(key) for key, (_, field) in _OPTIONS.items() if field}
    kwargs["rng_seed"] = settings.get("seed")
    env = os.environ.get("PHYSEC_SEED")
    if env is not None:
        try:
            kwargs["rng_seed"] = int(env)
        except ValueError:
            raise UsageError(f"PHYSEC_SEED must be an integer, got {env!r}")
    if settings.get("imitate"):
        kwargs["prefilter"] = ev.PERFECT_IMITATION
    return {field: value for field, value in kwargs.items() if value is not None}


def _fmt(value) -> str:
    return "nan" if value is None else repr(value)


def _result_row(config: ExperimentConfig, result) -> dict:
    row = {
        "detector": "gmm" if config.update_enabled else "gmm-noupdate",
        "M": config.m_subcarriers,
        "snr_db": _fmt(config.snr_db),
        "target_fa": _fmt(config.target_fa),
        "realized_fa": _fmt(result.p_fa),
        "p_d": _fmt(result.p_d),
        "p_md": _fmt(result.p_md),
        "blocks": config.num_blocks,
        "seed": config.rng_seed,
        "update": _UPDATE_MODE_OF[config.update_enabled, config.oracle_update],
        "components": config.gmm_components,
    }
    if config.detector is DetectorKind.MSE:
        # the baseline has neither an update mode nor mixture components
        row.update(detector="mse", update="", components="")
    return row


def _write_file(path: str, what: str, write) -> None:
    """Open `path` for writing and hand it to `write`; an OSError (say, a
    missing directory) is a usage error that names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {what}: {exc}")


def _write_rows(rows: list, out: str | None) -> None:
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if out:
        _write_file(out, "results", emit)
    else:
        emit(sys.stdout)


def _print_table(rows: list) -> None:
    widths = {c: max(len(c), max((len(str(r[c])) for r in rows), default=0)) for c in RESULT_COLUMNS}
    header = "  ".join(c.ljust(widths[c]) for c in RESULT_COLUMNS)
    print(header, file=sys.stderr)
    print("-" * len(header), file=sys.stderr)
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in RESULT_COLUMNS), file=sys.stderr)


def _write_roc(curve: ev.RocCurve, out: str) -> None:
    def emit(fh):
        fh.write("p_fa,p_d\n")
        for fa, pd in zip(curve.p_fa, curve.p_d):
            fh.write(f"{repr(float(fa))},{repr(float(pd))}\n")

    _write_file(out, "ROC curve", emit)


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
    # block 0 trains every detector, and one it cannot train would fail mid-run
    for config in configs:
        training = config.block_size - (config.feature_kind is FeatureKind.DELTA)
        need = config.gmm_components if config.detector is DetectorKind.GMM else 2
        if training < need:
            raise UsageError(
                f"block 0 gives {training} training features; "
                f"the {config.detector.value} detector needs {need}"
            )
    return configs


def _experiment_config(**kwargs) -> ExperimentConfig:
    """An ExperimentConfig, whose refusals are the options' and so usage errors."""
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run_grid(configs: list, trace) -> list:
    """`run_grid`, with its refusals of the data as usage errors.

    A replay's data is the user's recording, so each of its refusals is one
    (a malformed trace keeps its own type).  A simulated run's data is the
    program's, so only overflowing features, which its options produced,
    are; any other ValueError there is a fault of the program.
    """
    try:
        return ev.run_grid(configs, trace)
    except trace_io.TraceFormatError:
        raise
    except ValueError as exc:
        if trace is None and not isinstance(exc, gmm.FeatureOverflowError):
            raise
        raise UsageError(str(exc)) from exc


def cmd_simulate(args) -> int:
    settings = _settings(args)
    kwargs = _experiment_kwargs(settings)
    requested_blocks = kwargs.pop("num_blocks", ExperimentConfig.num_blocks)
    if requested_blocks < 1:
        raise UsageError("--blocks must be >= 1")
    # the generator only needs channel/seed parameters; keep the config valid
    config = _experiment_config(
        m_subcarriers=kwargs.get("m_full", ExperimentConfig.m_full),
        num_blocks=max(requested_blocks, 2),
        **kwargs,
    )
    n = config.block_size
    labels = [ev.BOB_LINK, ev.EVE_LINK] * n

    def blocks():
        streams = ev.simulated_estimate_blocks(config)
        for b in range(requested_blocks):
            # the stream's block is already in file order, both links'
            # estimates for slot 1, then slot 2, ...: write a view of it
            gains = next(streams).reshape(2 * n, config.m_full)
            yield np.repeat(np.arange(b * n + 1, (b + 1) * n + 1), 2), labels, gains

    try:
        header = trace_io.TraceHeader(
            m_full=config.m_full,
            sample_interval_us=settings.get("interval_us", trace_io.DEFAULT_INTERVAL_US),
            description=settings.get("desc", "simulated"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        trace_io.write_trace(header, args.out, blocks())
    except trace_io.TraceDestinationError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot write trace: {exc}")
    total = requested_blocks * n
    print(f"wrote {2 * total} records ({total} per link) to {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    settings = _settings(args)
    with trace_io.TraceReader(args.trace) if args.trace else nullcontext() as trace:
        configs = _configs(settings, trace)
        results = _run_grid(configs, trace)
    rows = [_result_row(config, result) for config, result in zip(configs, results)]
    _print_table(rows)
    _write_rows(rows, args.out)
    return 0


def cmd_roc(args) -> int:
    settings = _settings(args)
    with trace_io.TraceReader(args.trace) if args.trace else nullcontext() as trace:
        configs = _configs(settings, trace)
        if len(configs) != 1:
            raise UsageError("roc needs exactly one detector, m value and update mode")
        if not args.out:
            raise UsageError("roc requires --out")
        (result,) = _run_grid(configs, trace)
        if not (result.bob_scores.size and result.eve_scores.size):
            raise UsageError("roc needs legitimate and attacker messages in the test blocks")
        curve = ev.compute_roc(result.bob_scores, result.eve_scores)
    _write_roc(curve, args.out)
    print(f"wrote {curve.p_fa.size} operating points to {args.out}", file=sys.stderr)
    return 0


def _default(field: str) -> str:
    """Help-text note of an ExperimentConfig field's default."""
    return f"(default {getattr(ExperimentConfig, field):g})"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="experiment seed (PHYSEC_SEED overrides)")
    sub.add_argument("--snr", type=float, help=f"estimation SNR in dB {_default('snr_db')}")
    sub.add_argument("--m-full", dest="m_full", type=int, help=f"active subcarriers in the system {_default('m_full')}")
    sub.add_argument("--taps", type=int, help=f"channel taps {_default('num_taps')}")
    sub.add_argument("--coherence", type=float, help=f"coherence time in estimation intervals, inf = static {_default('coherence_samples')}")
    sub.add_argument("--blocks", type=int, help=f"total blocks incl. training {_default('num_blocks')}")
    sub.add_argument("--block-size", dest="block_size", type=int, help=f"messages per block {_default('block_size')}")
    sub.add_argument("--attack", type=float, help=f"attacker message probability {_default('attack_intensity')}")
    sub.add_argument("--imitate", action="store_true", default=None,
                     help="give the attacker a prefilter imitating the legitimate link")
    sub.add_argument("--preset", choices=["desk"],
                     help="desk = {blocks} blocks x {block_size} messages".format(**DESK_PRESET))


def _add_eval_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--detector", action="append", choices=_names(DetectorKind),
                     help=f"detector to run, repeatable (default {ExperimentConfig.detector.value})")
    sub.add_argument("--m", type=_int_list, help=f"comma-separated subcarrier counts, e.g. 4,16 {_default('m_subcarriers')}")
    sub.add_argument("--fa", type=float, help=f"target false-alarm rate {_default('target_fa')}")
    sub.add_argument("--feature", type=_feature_kind,
                     help=f"{' or '.join(_names(FeatureKind))} (default {ExperimentConfig.feature_kind.value}); "
                          "delta flags a legitimate message that follows an attacker's, so its "
                          "realized false-alarm rate tracks the attack intensity (0.51-0.53 at 0.5)")
    sub.add_argument("--components", type=int, help=f"mixture components {_default('gmm_components')}")
    default_update = _UPDATE_MODE_OF[ExperimentConfig.update_enabled, ExperimentConfig.oracle_update]
    sub.add_argument("--update", type=_update_list,
                     help="comma-separated update modes of the mixture detector, a row each: off, decisions "
                          "(refit on the messages it accepted) or labels (on the legitimate ones) "
                          f"(default {default_update})")
    sub.add_argument("--trace", help="replay a recorded trace instead of simulating")
    sub.add_argument("--out", help="results CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physec",
        description="Channel-based message authentication experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="write a simulated two-link estimate trace")
    _add_common(p_sim)
    p_sim.add_argument("--interval-us", dest="interval_us", type=float,
                       help=f"estimation interval in microseconds (default {trace_io.DEFAULT_INTERVAL_US:g})")
    p_sim.add_argument("--desc", help="trace description text")
    p_sim.add_argument("--out", required=True, help="trace CSV path")
    p_sim.set_defaults(func=cmd_simulate, parser=p_sim)

    p_eval = subs.add_parser("evaluate", help="run a grid of detectors, M values and update modes, report rates")
    _add_eval_options(p_eval)
    p_eval.set_defaults(func=cmd_evaluate, parser=p_eval)

    p_roc = subs.add_parser("roc", help="run one detector and write its ROC curve")
    _add_eval_options(p_roc)
    p_roc.set_defaults(func=cmd_roc, parser=p_roc)

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
    # parse_args would report an unknown option with the top-level usage
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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

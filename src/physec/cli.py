"""Command-line front end: simulate traces, evaluate detectors, export ROC tables.

Subcommands: simulate | evaluate | roc | sweep.  Options can also come from a
flat key=value config file ('#' starts a comment); explicit flags win over
file entries.  The PHYSEC_SEED environment variable overrides any --seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import evaluation as ev
from . import trace_io
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
]

_FEATURES = {
    "magnitude": FeatureKind.NORMALIZED_MAGNITUDE,
    "delta": FeatureKind.DELTA,
}


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


def _detector_list(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    for name in names:
        if name not in {"gmm", "mse"}:
            raise argparse.ArgumentTypeError(f"unknown detector {name!r}")
    if not names:
        raise argparse.ArgumentTypeError("empty detector list")
    return names


def _feature_kind(text: str) -> FeatureKind:
    try:
        return _FEATURES[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown feature {text!r} (choose from {sorted(_FEATURES)})"
        )


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' comments and blank lines are ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key=value, got {raw.rstrip()!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# config-file key -> parser; names match the long CLI flags
_FILE_PARSERS = {
    "m": _int_list,
    "m_full": int,
    "snr": float,
    "attack": float,
    "blocks": int,
    "block_size": int,
    "coherence": float,
    "fa": float,
    "seed": int,
    "taps": int,
    "components": int,
    "feature": _feature_kind,
    "detector": _detector_list,
    "update": _bool,
    "imitate": _bool,
    "oracle_update": _bool,
}


class Settings:
    """Layered option lookup: CLI flag, then config file, then preset, then default."""

    def __init__(self, args, parser):
        self.args = args
        self.parser = parser
        self.preset = dict(ev.DESK_PRESET) if getattr(args, "preset", None) == "desk" else {}
        self.file = {}
        path = getattr(args, "config", None)
        if path:
            try:
                raw = read_config_file(path)
            except OSError as exc:
                parser.error(f"cannot read config file: {exc}")
            except ValueError as exc:
                parser.error(f"bad config file: {exc}")
            for key, text in raw.items():
                if key not in _FILE_PARSERS:
                    parser.error(f"unknown config file key {key!r}")
                try:
                    self.file[key] = _FILE_PARSERS[key](text)
                except argparse.ArgumentTypeError as exc:
                    parser.error(f"config file key {key!r}: {exc}")
                except ValueError as exc:
                    parser.error(f"config file key {key!r}: {exc}")

    def get(self, key, default=None, preset_key=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.file:
            return self.file[key]
        if preset_key and preset_key in self.preset:
            return self.preset[preset_key]
        return default

    def seed(self) -> int:
        env = os.environ.get("PHYSEC_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError:
                self.parser.error(f"PHYSEC_SEED must be an integer, got {env!r}")
        return self.get("seed", 0)


def _experiment_kwargs(s: Settings) -> dict:
    return dict(
        snr_db=s.get("snr", 20.0),
        attack_intensity=s.get("attack", 0.5),
        num_blocks=s.get("blocks", 100, preset_key="num_blocks"),
        block_size=s.get("block_size", 1000, preset_key="block_size"),
        coherence_samples=s.get("coherence", math.inf),
        target_fa=s.get("fa", 0.01),
        rng_seed=s.seed(),
        m_full=s.get("m_full", 48),
        num_taps=s.get("taps", 8),
        gmm_components=s.get("components", 3),
        feature_kind=s.get("feature", FeatureKind.NORMALIZED_MAGNITUDE),
        prefilter=ev.PERFECT_IMITATION if s.get("imitate", False) else None,
        oracle_update=s.get("oracle_update", False),
    )


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _detector_label(config: ExperimentConfig) -> str:
    if config.detector is DetectorKind.MSE:
        return "mse"
    return "gmm" if config.update_enabled else "gmm-noupdate"


def _result_row(config: ExperimentConfig, result) -> dict:
    return {
        "detector": _detector_label(config),
        "M": config.m_subcarriers,
        "snr_db": _fmt(config.snr_db),
        "target_fa": _fmt(config.target_fa),
        "realized_fa": _fmt(result.p_fa),
        "p_d": _fmt(result.p_d),
        "p_md": _fmt(result.p_md),
        "blocks": config.num_blocks,
        "seed": config.rng_seed,
    }


def _write_rows(rows: list, out: str | None) -> None:
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
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
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("p_fa,p_d\n")
        for fa, pd in zip(curve.p_fa, curve.p_d):
            fh.write(f"{repr(float(fa))},{repr(float(pd))}\n")


def _run_combos(s: Settings, parser, combos, trace_path):
    """Run every (detector_name, m, update) combo; returns (rows, results)."""
    trace = None
    if trace_path:
        try:
            trace = trace_io.read_trace(trace_path)
        except OSError as exc:
            parser.error(f"cannot read trace: {exc}")
        except trace_io.TraceFormatError as exc:
            parser.error(f"bad trace file: {exc}")
    base_kwargs = _experiment_kwargs(s)
    rows, results = [], []
    for name, m, update in combos:
        kwargs = dict(base_kwargs)
        if trace is not None:
            kwargs["m_full"] = trace.m_full
        try:
            config = ExperimentConfig(
                m_subcarriers=m,
                detector=DetectorKind(name),
                update_enabled=update,
                **kwargs,
            )
            result = (
                ev.run_experiment(config)
                if trace is None
                else ev.run_experiment_from_trace(trace, config)
            )
        except ValueError as exc:
            parser.error(str(exc))
        rows.append(_result_row(config, result))
        results.append((config, result))
    return rows, results


def cmd_simulate(args, parser) -> int:
    s = Settings(args, parser)
    kwargs = _experiment_kwargs(s)
    requested_blocks = kwargs["num_blocks"]
    if requested_blocks < 1:
        parser.error("--blocks must be >= 1")
    # the generator only needs channel/seed parameters; keep the config valid
    kwargs["num_blocks"] = max(requested_blocks, 2)
    try:
        config = ExperimentConfig(m_subcarriers=kwargs["m_full"], **kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    n = config.block_size
    total = requested_blocks * n
    # file order: both links' estimates for slot 1, then slot 2, ...
    gains = np.empty((requested_blocks, n, 2, config.m_full), dtype=np.complex128)
    for block, (bob, eve) in zip(gains, ev.simulated_estimate_blocks(config)):
        block[:, 0], block[:, 1] = bob, eve
    trace = trace_io.CsiTrace(
        m_full=config.m_full,
        sample_interval_us=s.get("interval_us", trace_io.DEFAULT_INTERVAL_US),
        description=s.get("desc", "simulated"),
        time_index=np.repeat(np.arange(1, total + 1), 2),
        link_labels=[ev.BOB_LINK, ev.EVE_LINK] * total,
        gains=gains.reshape(2 * total, config.m_full),
    )
    try:
        trace_io.write_trace(trace, args.out)
    except OSError as exc:
        parser.error(f"cannot write trace: {exc}")
    print(
        f"wrote {len(trace.link_labels)} records ({total} per link) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _evaluate_combos(s: Settings) -> list:
    m_values = s.get("m", [16])
    detectors = s.get("detector", ["gmm"])
    update = s.get("update", True)
    return [(name, m, update if name == "gmm" else True) for name in detectors for m in m_values]


def cmd_evaluate(args, parser) -> int:
    s = Settings(args, parser)
    rows, _ = _run_combos(s, parser, _evaluate_combos(s), args.trace)
    _print_table(rows)
    _write_rows(rows, args.out)
    return 0


def cmd_roc(args, parser) -> int:
    s = Settings(args, parser)
    combos = _evaluate_combos(s)
    if len(combos) != 1:
        parser.error("roc needs exactly one detector and one m value")
    if not args.out:
        parser.error("roc requires --out")
    _, results = _run_combos(s, parser, combos, args.trace)
    _, result = results[0]
    try:
        curve = ev.compute_roc(result.bob_scores, result.eve_scores)
    except ValueError as exc:
        parser.error(str(exc))
    _write_roc(curve, args.out)
    print(f"wrote {curve.p_fa.size} operating points to {args.out}", file=sys.stderr)
    return 0


def cmd_sweep(args, parser) -> int:
    s = Settings(args, parser)
    m_values = s.get("m", [4, 8, 16, 32, 48])
    detectors = s.get("detector", ["gmm"])
    update = s.get("update", True)
    combos = []
    for name in detectors:
        for m in m_values:
            if name == "gmm" and args.compare_update:
                combos.append((name, m, True))
                combos.append((name, m, False))
            else:
                combos.append((name, m, update if name == "gmm" else True))
    rows, _ = _run_combos(s, parser, combos, args.trace)
    _print_table(rows)
    _write_rows(rows, args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="experiment seed (PHYSEC_SEED overrides)")
    sub.add_argument("--snr", type=float, help="estimation SNR in dB (default 20)")
    sub.add_argument("--m-full", dest="m_full", type=int, help="active subcarriers in the system (default 48)")
    sub.add_argument("--taps", type=int, help="channel taps (default 8)")
    sub.add_argument("--coherence", type=float, help="coherence time in estimation intervals (default inf: static channel)")
    sub.add_argument("--blocks", type=int, help="total blocks incl. training (default 100)")
    sub.add_argument("--block-size", dest="block_size", type=int, help="messages per block (default 1000)")
    sub.add_argument("--attack", type=float, help="attacker message probability (default 0.5)")
    sub.add_argument("--imitate", action="store_true", default=None,
                     help="give the attacker a prefilter imitating the legitimate link")
    sub.add_argument("--preset", choices=["desk", "full"], help="desk = 10 blocks x 200 messages")


def _add_eval_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--detector", action="append", choices=["gmm", "mse"],
                     help="detector to run (repeatable)")
    sub.add_argument("--m", type=_int_list, help="comma-separated subcarrier counts, e.g. 4,16")
    sub.add_argument("--fa", type=float, help="target false-alarm rate (default 0.01)")
    sub.add_argument("--feature", type=_feature_kind, help="magnitude (default) or delta")
    sub.add_argument("--components", type=int, help="mixture components (default 3)")
    sub.add_argument("--update", action=argparse.BooleanOptionalAction, default=None,
                     help="block-wise model updating (default on)")
    sub.add_argument("--oracle-update", dest="oracle_update", action="store_true", default=None,
                     help="update on ground-truth labels instead of decisions")
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
                       help="estimation interval in microseconds (default 998.4)")
    p_sim.add_argument("--desc", help="trace description text")
    p_sim.add_argument("--out", required=True, help="trace CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = subs.add_parser("evaluate", help="run detectors and report rates")
    _add_eval_options(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_roc = subs.add_parser("roc", help="run one detector and write its ROC curve")
    _add_eval_options(p_roc)
    p_roc.set_defaults(func=cmd_roc)

    p_sweep = subs.add_parser("sweep", help="rerun one scenario across subcarrier counts")
    _add_eval_options(p_sweep)
    p_sweep.add_argument("--compare-update", dest="compare_update", action="store_true",
                         help="emit update and no-update rows per m")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())

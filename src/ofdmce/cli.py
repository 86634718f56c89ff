"""Command-line front end: sweeps, gap reports, and single-trial inspection.

Configuration comes from an optional flat ``key = value`` file plus flag
overrides (flags win). Every sweep CSV embeds the fully resolved config as
comment lines, so any output file documents how to reproduce itself.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from typing import Callable, NamedTuple

from . import __version__
from .channel import BUILTIN_PROFILES, build_profile, read_key_values
from .estimators import stack_pilot_cir
from .harness import (
    ESTIMATOR_IDS,
    ESTIMATORS,
    SimConfig,
    gap_report,
    read_csv,
    simulate_subframe,
    sweep,
    write_csv,
    write_gaps,
)
from .phy import GridConfig


# Most points an SNR range may hold; a longer one is refused before it is built.
_MAX_SNR_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 instead of argparse's 2."""

    def error(self, message):
        raise ValueError(message)


def _parse_snr_spec(text: str) -> tuple[float, ...]:
    """Either a comma list of dB values or an inclusive start:step:stop range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError(f"SNR range must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"SNR range step must be positive, got {step}")
        if stop < start:
            raise ValueError(f"SNR range stop {stop} precedes start {start}")
        span = (stop - start) / step + 1e-9
        count = math.floor(span) + 1 if math.isfinite(span) else span
        if count > _MAX_SNR_POINTS:
            raise ValueError(
                f"SNR range {text!r} has {count:.6g} points, more than {_MAX_SNR_POINTS}"
            )
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_estimators(text: str) -> tuple[str, ...]:
    ids = tuple(part.strip() for part in text.split(","))
    if "" in ids:
        raise ValueError(f"empty estimator id in {text!r}")
    return ids


def _parse_value(where: str, parse: Callable[[str], object], text: str):
    """``parse(text)``, a ValueError re-raised under ``where``, the name of the
    value's source: ``flag --<name>`` or ``config key '<name>'``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class _Key(NamedTuple):
    """How one config key reads into a config and prints back out."""

    # SimConfig field; "grid." marks a GridConfig field.
    field: str
    parse: Callable[[str], object]
    show: Callable[[object], str] = str
    # Name of the flag that overrides the file, if any, and its help text.
    flag: str | None = None
    help: str | None = None


# Every config key, in the order the sweep CSV header lists them.
_CONFIG_KEYS = {
    "n_subcarriers": _Key("grid.n_subcarriers", int),
    "n_pilots": _Key("grid.n_pilots", int),
    "n_symbols": _Key("grid.n_symbols", int),
    "cp_len": _Key("grid.cp_len", int),
    "profile": _Key("profile", str, flag="profile", help="builtin profile name or profile file path"),
    "sample_rate_hz": _Key("sample_rate_hz", float, repr),
    "snr_db": _Key(
        "snr_points_db", _parse_snr_spec, lambda v: ",".join(map(repr, v)), flag="snr",
        help="SNR points: comma list or start:step:stop (dB); write one that starts "
        "with a negative value as --snr=-5,10",
    ),
    "subframes": _Key("subframes_per_point", int, flag="subframes", help="trials per SNR point"),
    "estimators": _Key(
        "estimators", _parse_estimators, ",".join, flag="estimators",
        help="comma list of estimator ids to run",
    ),
    "seed": _Key("master_seed", int, flag="seed", help="master random seed"),
    "c": _Key("c", float, repr, flag="c", help="denoising constant for the threshold schemes"),
    "th_perfect": _Key("th_perfect", int, flag="th-perfect", help="delay-spread threshold, accurate case"),
    "th_inaccurate": _Key(
        "th_inaccurate", int, flag="th-inaccurate", help="delay-spread threshold, understated case"
    ),
    "fading": _Key("fading", _parse_bool, lambda v: "true" if v else "false"),
}


def _build_config(args, estimators: tuple[str, ...] | None = None) -> SimConfig:
    """Merge config-file values and flag overrides into a SimConfig.

    A config file names each known key at most once. ``estimators``, if
    given, replaces the estimator list of file and flags.
    """
    raw: dict[str, str] = {}
    for where, key, value in read_key_values(args.config) if getattr(args, "config", None) else ():
        if key in raw:
            raise ValueError(f"{where}: duplicate key {key!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{where}: unknown key {key!r}; known keys: {', '.join(_CONFIG_KEYS)}")
        raw[key] = value
    # Keyword arguments of GridConfig ("grid") and of SimConfig ("").
    fields: dict[str, dict] = {"grid": {}, "": {}}
    for key, spec in _CONFIG_KEYS.items():
        owner, _, name = spec.field.rpartition(".")
        flag = getattr(args, spec.flag.replace("-", "_"), None) if spec.flag else None
        text, where = (flag, f"flag --{spec.flag}") if flag is not None else (raw.get(key), f"config key {key!r}")
        if text is not None:
            fields[owner][name] = _parse_value(where, spec.parse, text)
    if estimators is not None:
        fields[""]["estimators"] = estimators
    return SimConfig(grid=GridConfig(**fields["grid"]), **fields[""])


def _effective_config_lines(config: SimConfig) -> list[str]:
    """The fully resolved configuration, one ``key = value`` line per entry."""
    lines = [f"ofdmce {__version__}"]
    for key, spec in _CONFIG_KEYS.items():
        lines.append(f"{key} = {spec.show(operator.attrgetter(spec.field)(config))}")
    return lines


def _print_gap_summary(report) -> None:
    for target in report.targets:
        print(f"BER {target:g} crossings:")
        for estimator_id in report.estimator_ids:
            snr = report.crossings[target, estimator_id]
            text = "not reached" if snr is None else f"{snr:.2f} dB"
            print(f"  {estimator_id:16s} {text}")
        for a, b, gap in report.pairs(target):
            text = "n/a" if gap is None else f"{gap:+.2f} dB"
            print(f"  gap {a} vs {b}: {text}")


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would, leaving no new file behind."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    workers = None if args.workers is None else _parse_value("flag --workers", int, args.workers)
    # Refuse an unwritable output before the sweep, not after it.
    _check_writable(args.out)
    records = sweep(config, workers=workers)
    write_csv(records, args.out, header_comments=_effective_config_lines(config))
    for r in records:
        sigma2 = "-" if r.mean_sigma2_hat is None else f"{r.mean_sigma2_hat:.3e}"
        print(
            f"{r.estimator_id:16s} {r.snr_db:6.2f} dB  ber {r.ber:.6e} "
            f"(+/- {r.ber_stderr:.1e})  errors {r.bit_errors}/{r.total_bits}  "
            f"mse {r.mean_mse:.3e}  sigma2_hat {sigma2}"
        )
    _print_gap_summary(gap_report(records, (1e-3,)))
    print(f"wrote {args.out}")
    return 0


def _cmd_gaps(args) -> int:
    records = read_csv(args.input)
    if not records:
        raise ValueError(f"{args.input}: no records below the header")
    targets = _parse_value("flag --targets", lambda text: tuple(float(t) for t in text.split(",")), args.targets)
    report = gap_report(records, targets)
    _print_gap_summary(report)
    if args.out:
        write_gaps(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _table(comment: str, header: str | None = None, rows=(), end: str = "\n\n") -> None:
    """Print one labeled CSV block and then ``end``: the ``#`` comment, the
    header and one line per row, whose complex cells print as ``re,im``,
    floats with ``.12g`` and anything else with ``str``."""

    def cell(value) -> str:
        if isinstance(value, complex):
            return f"{value.real:.12g},{value.imag:.12g}"
        return f"{value:.12g}" if isinstance(value, float) else str(value)

    lines = [f"# {comment}", *([header] if header else [])]
    print("\n".join(lines + [",".join(map(cell, row)) for row in rows]), end=end)


def _cmd_inspect(args) -> int:
    # Validate the grid against the shown estimator only.
    config = _build_config(args, estimators=(args.estimator,))
    grid = config.grid
    snr_db = _parse_value("flag --snr", float, args.trial_snr)
    trial = _parse_value("flag --trial", int, args.trial)
    symbol = _parse_value("flag --symbol", int, args.symbol)
    if not 0 <= symbol < grid.n_symbols:
        raise ValueError(f"symbol must lie in [0, {grid.n_symbols - 1}], got {symbol}")
    if trial < 0:
        raise ValueError(f"trial must be nonnegative, got {trial}")
    pilot_ls, truth = simulate_subframe(config, snr_db, trial)
    # Every estimator the grid allows, run as the sweep runs it.
    est = {
        name: e.run(config, pilot_ls, truth) for name, e in ESTIMATORS.items() if grid.n_symbols >= e.min_symbols
    }
    _table(
        f"subframe: trial = {trial}, snr_db = {snr_db:.12g}, "
        f"profile = {config.profile}, estimator = {args.estimator}"
    )
    _table(
        "pilot-ls: least-squares channel at pilot subcarriers (row n, re/im per symbol)",
        "n," + ",".join(f"m{m}_re,m{m}_im" for m in range(grid.n_symbols)),
        [(n, *column) for n, column in enumerate(pilot_ls.T)],
    )
    noise_rows = []
    if "proposed" not in est:
        _table(
            "stacked-cir and multi-symbol noise variance skipped: they need at least"
            f" 2 symbols per block, the grid has {grid.n_symbols}"
        )
    else:
        _table(
            "stacked-cir: inverse transform of all pilot columns stacked symbol after"
            " symbol; i = n*M + v; columns v > 0 carry no channel energy",
            "i,n,v,re,im",
            [(i, *divmod(i, grid.n_symbols), v) for i, v in enumerate(stack_pilot_cir(pilot_ls).flat)],
        )
        count = grid.n_pilots * (grid.n_symbols - 1)
        noise_rows.append(("multi-symbol", "all", count, *est["proposed"].sigma2_hat))
    noise_rows += [
        (f"conventional-th{th}", m, grid.n_pilots - th, sigma2)
        for th, conv in ((config.th_perfect, "conv-perfect"), (config.th_inaccurate, "conv-inaccurate"))
        for m, sigma2 in enumerate(est[conv].sigma2_hat)
    ]
    _table(
        "noise-variance: multi-symbol read-off vs per-symbol tail read-off",
        "scheme,symbol,sample_count,sigma2_hat",
        noise_rows,
    )
    shown, origin = est[args.estimator], f"{args.estimator} on symbol {symbol}"
    # Outputs are symbol-major (M', ...), and M' = 1 serves every symbol of the block.
    row = symbol if len(shown.cells) > 1 else 0
    if shown.cleaned_cir is not None:
        _table(
            f"post-threshold-cir: denoised impulse response before zero padding ({origin})",
            "l,re,im",
            enumerate(shown.cleaned_cir[row]),
        )
    _table(
        f"estimate-vs-truth: final frequency response next to the true channel ({origin})",
        "k,est_re,est_im,true_re,true_im",
        zip(range(grid.n_subcarriers), shown.freq_response[row], est["ideal"].freq_response[0]),
        end="\n",
    )
    return 0


def _cmd_profiles(args) -> int:
    sample_rate = _parse_value("flag --sample-rate", float, args.sample_rate)
    profiles = [build_profile(name, sample_rate) for name in BUILTIN_PROFILES]
    _table(
        f"built-in power delay profiles at sample_rate_hz = {sample_rate!r}",
        "profile,tap,delay_samples,power",
        [(p.name, i, *tap) for p in profiles for i, tap in enumerate(zip(p.tap_delays, p.tap_powers))],
        end="\n",
    )
    return 0


def _add_config_flags(parser, *omit: str) -> None:
    """Add --config and the flag of every config key that has one, except ``omit``."""
    parser.add_argument("--config", help="flat key = value configuration file")
    for spec in _CONFIG_KEYS.values():
        if spec.flag and spec.flag not in omit:
            parser.add_argument(f"--{spec.flag}", help=spec.help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ofdmce",
        description="OFDM link simulator and channel-estimation benchmark",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="{sweep,gaps,inspect,profiles}")

    sweep_p = sub.add_parser("sweep", help="run a BER sweep and write a CSV of records")
    _add_config_flags(sweep_p)
    sweep_p.add_argument("--out", default="sweep.csv", help="output CSV path (default sweep.csv)")
    sweep_p.add_argument("--workers", help="process count (default: machine parallelism)")
    sweep_p.set_defaults(func=_cmd_sweep)

    gaps_p = sub.add_parser("gaps", help="locate BER target crossings in an existing sweep CSV")
    gaps_p.add_argument("--in", dest="input", required=True, help="sweep CSV to analyze")
    gaps_p.add_argument("--targets", default="1e-3", help="comma list of target BER levels")
    gaps_p.add_argument("--out", help="optional CSV path for the gap table")
    gaps_p.set_defaults(func=_cmd_gaps)

    inspect_p = sub.add_parser("inspect", help="dump one trial's intermediate arrays as labeled CSV blocks")
    # inspect has its own --snr, and shows one --estimator.
    _add_config_flags(inspect_p, "snr", "estimators")
    inspect_p.add_argument(
        "--snr",
        dest="trial_snr",
        default="inf",
        help="SNR in dB for this trial (default inf = noiseless)",
    )
    inspect_p.add_argument("--trial", default="0", help="trial index to reproduce")
    inspect_p.add_argument(
        "--estimator",
        choices=ESTIMATOR_IDS,
        default="proposed",
        help="which estimator to show in detail",
    )
    inspect_p.add_argument("--symbol", default="0", help="OFDM symbol whose estimate is shown")
    inspect_p.set_defaults(func=_cmd_inspect)

    profiles_p = sub.add_parser("profiles", help="list built-in power delay profiles")
    profiles_p.add_argument("--sample-rate", dest="sample_rate", default="7.68e6", help="sample rate in Hz")
    profiles_p.set_defaults(func=_cmd_profiles)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

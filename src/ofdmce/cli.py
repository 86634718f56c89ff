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

import numpy as np

from . import __version__
from .channel import BUILTIN_PROFILES, build_profile, read_key_values
from .estimators import conventional_noise_var, multi_symbol_noise_var, stack_pilot_cir
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
from .spectral import idft


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
    return tuple(part.strip() for part in text.split(",") if part.strip())


class _Key(NamedTuple):
    """How one config key reads into a config and prints back out."""

    # SimConfig field; "grid." marks a GridConfig field.
    field: str
    parse: Callable[[str], object]
    show: Callable[[object], str] = str
    # Attribute of the parsed flags that overrides the file, if any.
    flag: str | None = None


# Every config key, in the order the sweep CSV header lists them.
_CONFIG_KEYS = {
    "n_subcarriers": _Key("grid.n_subcarriers", int),
    "n_pilots": _Key("grid.n_pilots", int),
    "n_symbols": _Key("grid.n_symbols", int),
    "cp_len": _Key("grid.cp_len", int),
    "profile": _Key("profile", str, flag="profile"),
    "sample_rate_hz": _Key("sample_rate_hz", float, repr),
    "snr_db": _Key(
        "snr_points_db", _parse_snr_spec, lambda v: ",".join(map(repr, v)), flag="snr"
    ),
    "subframes": _Key("subframes_per_point", int, flag="subframes"),
    "estimators": _Key("estimators", _parse_estimators, ",".join, flag="estimators"),
    "seed": _Key("master_seed", int, flag="seed"),
    "c": _Key("c", float, repr, flag="c"),
    "th_perfect": _Key("th_perfect", int, flag="th_perfect"),
    "th_inaccurate": _Key("th_inaccurate", int, flag="th_inaccurate"),
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
        flag = getattr(args, spec.flag, None) if spec.flag else None
        if flag is not None:
            try:
                fields[owner][name] = spec.parse(flag) if isinstance(flag, str) else flag
            except ValueError as exc:
                raise ValueError(f"flag --{spec.flag.replace('_', '-')}: {exc}") from None
        elif key in raw:
            try:
                fields[owner][name] = spec.parse(raw[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
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
    # Refuse an unwritable output before the sweep, not after it.
    _check_writable(args.out)
    records = sweep(config, workers=args.workers)
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
    try:
        targets = tuple(float(t) for t in args.targets.split(","))
    except ValueError as exc:
        raise ValueError(f"flag --targets: {exc}") from None
    report = gap_report(records, targets)
    _print_gap_summary(report)
    if args.out:
        write_gaps(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    # Validate the grid against the shown estimator only.
    config = _build_config(args, estimators=(args.estimator,))
    grid = config.grid
    if not 0 <= args.symbol < grid.n_symbols:
        raise ValueError(f"symbol must lie in [0, {grid.n_symbols - 1}], got {args.symbol}")
    if args.trial < 0:
        raise ValueError(f"trial must be nonnegative, got {args.trial}")
    pilot_ls, truth = simulate_subframe(config, args.trial_snr, args.trial)
    fmt = "{:.12g}".format
    blocks: list[list[str]] = []

    header = [
        f"# subframe: trial = {args.trial}, snr_db = {fmt(args.trial_snr)}, "
        f"profile = {config.profile}, estimator = {args.estimator}"
    ]
    blocks.append(header)

    block = [
        "# pilot-ls: least-squares channel at pilot subcarriers (row n, re/im per symbol)",
        "n," + ",".join(f"m{m}_re,m{m}_im" for m in range(grid.n_symbols)),
    ]
    for n in range(grid.n_pilots):
        cells = ",".join(
            f"{fmt(pilot_ls[m, n].real)},{fmt(pilot_ls[m, n].imag)}"
            for m in range(grid.n_symbols)
        )
        block.append(f"{n},{cells}")
    blocks.append(block)

    noise_rows = []
    if grid.n_symbols < 2:
        blocks.append(
            [
                "# stacked-cir and multi-symbol noise variance skipped: they need at least"
                f" 2 symbols per block, the grid has {grid.n_symbols}"
            ]
        )
    else:
        cir = stack_pilot_cir(pilot_ls)
        block = [
            "# stacked-cir: inverse transform of all pilot columns stacked symbol after"
            " symbol; i = n*M + v; columns v > 0 carry no channel energy",
            "i,n,v,re,im",
        ]
        for i, value in enumerate(cir.reshape(-1)):
            n, v = divmod(i, grid.n_symbols)
            block.append(f"{i},{n},{v},{fmt(value.real)},{fmt(value.imag)}")
        blocks.append(block)
        count = grid.n_pilots * (grid.n_symbols - 1)
        noise_rows.append(f"multi-symbol,all,{count},{fmt(multi_symbol_noise_var(cir))}")

    block = [
        "# noise-variance: multi-symbol read-off vs per-symbol tail read-off",
        "scheme,symbol,sample_count,sigma2_hat",
        *noise_rows,
    ]
    for th in (config.th_perfect, config.th_inaccurate):
        for m, sigma2 in enumerate(conventional_noise_var(idft(pilot_ls), th)):
            block.append(f"conventional-th{th},{m},{grid.n_pilots - th},{fmt(sigma2)}")
    blocks.append(block)

    # Symbol-major (M', ...) outputs; M' = 1 serves every symbol of the block.
    result = ESTIMATORS[args.estimator].run(config, pilot_ls, truth)
    freq, cleaned = result.freq_response, result.cleaned_cir
    origin = f"{args.estimator} on symbol {args.symbol}"
    if cleaned is not None:
        block = [
            f"# post-threshold-cir: denoised impulse response before zero padding ({origin})",
            "l,re,im",
        ]
        cir = np.broadcast_to(cleaned, (grid.n_symbols, grid.n_pilots))[args.symbol]
        for l, value in enumerate(cir):
            block.append(f"{l},{fmt(value.real)},{fmt(value.imag)}")
        blocks.append(block)

    estimate = np.broadcast_to(freq, (grid.n_symbols, grid.n_subcarriers))[args.symbol]
    # Residue order (S, Np) back to subcarrier order.
    truth = truth.T.reshape(-1)
    block = [
        f"# estimate-vs-truth: final frequency response next to the true channel ({origin})",
        "k,est_re,est_im,true_re,true_im",
    ]
    for k in range(grid.n_subcarriers):
        est = estimate[k]
        block.append(
            f"{k},{fmt(est.real)},{fmt(est.imag)},{fmt(truth[k].real)},{fmt(truth[k].imag)}"
        )
    blocks.append(block)

    print("\n\n".join("\n".join(block) for block in blocks))
    return 0


def _cmd_profiles(args) -> int:
    profiles = [build_profile(name, args.sample_rate) for name in BUILTIN_PROFILES]
    print(f"# built-in power delay profiles at sample_rate_hz = {args.sample_rate!r}")
    print("profile,tap,delay_samples,power")
    for name, profile in zip(BUILTIN_PROFILES, profiles):
        for tap, (delay, power) in enumerate(zip(profile.tap_delays, profile.tap_powers)):
            print(f"{name},{tap},{delay},{power:.12g}")
    return 0


def _add_config_flags(parser, *, estimator_list: bool) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--profile", help="builtin profile name or profile file path")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--subframes", type=int, help="trials per SNR point")
    parser.add_argument("--c", type=float, help="denoising constant for the threshold schemes")
    parser.add_argument("--th-perfect", dest="th_perfect", type=int, help="delay-spread threshold, accurate case")
    parser.add_argument("--th-inaccurate", dest="th_inaccurate", type=int, help="delay-spread threshold, understated case")
    if estimator_list:
        parser.add_argument("--estimators", help="comma list of estimator ids to run")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ofdmce",
        description="OFDM link simulator and channel-estimation benchmark",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="{sweep,gaps,inspect,profiles}")

    sweep_p = sub.add_parser("sweep", help="run a BER sweep and write a CSV of records")
    _add_config_flags(sweep_p, estimator_list=True)
    sweep_p.add_argument(
        "--snr",
        help="SNR points: comma list or start:step:stop (dB); write one that starts "
        "with a negative value as --snr=-5,10",
    )
    sweep_p.add_argument("--out", default="sweep.csv", help="output CSV path (default sweep.csv)")
    sweep_p.add_argument("--workers", type=int, help="process count (default: machine parallelism)")
    sweep_p.set_defaults(func=_cmd_sweep)

    gaps_p = sub.add_parser("gaps", help="locate BER target crossings in an existing sweep CSV")
    gaps_p.add_argument("--in", dest="input", required=True, help="sweep CSV to analyze")
    gaps_p.add_argument("--targets", default="1e-3", help="comma list of target BER levels")
    gaps_p.add_argument("--out", help="optional CSV path for the gap table")
    gaps_p.set_defaults(func=_cmd_gaps)

    inspect_p = sub.add_parser("inspect", help="dump one trial's intermediate arrays as labeled CSV blocks")
    _add_config_flags(inspect_p, estimator_list=False)
    inspect_p.add_argument(
        "--snr",
        dest="trial_snr",
        type=float,
        default=math.inf,
        help="SNR in dB for this trial (default inf = noiseless)",
    )
    inspect_p.add_argument("--trial", type=int, default=0, help="trial index to reproduce")
    inspect_p.add_argument(
        "--estimator",
        choices=ESTIMATOR_IDS,
        default="proposed",
        help="which estimator to show in detail",
    )
    inspect_p.add_argument("--symbol", type=int, default=0, help="OFDM symbol whose estimate is shown")
    inspect_p.set_defaults(func=_cmd_inspect)

    profiles_p = sub.add_parser("profiles", help="list built-in power delay profiles")
    profiles_p.add_argument("--sample-rate", dest="sample_rate", type=float, default=7.68e6, help="sample rate in Hz")
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

"""Write the outputs that a change meant to keep behaviour must leave byte-identical.

Run from a checkout root: ``python tools/outputs.py OUTDIR``. OUTDIR gets the
sweep CSVs and logs of the benchmark workloads and of an exact-zero case,
its estimators in table and in reversed order, at seed 7, 300 subframes and
1 or 2 workers; ``gaps`` at two targets on each sweep's one-worker CSV, and
on a header-only and an inconsistent CSV;
``inspect`` of every estimator in thirteen cases, two of them past the first
block of their batch;
``profiles`` at three sample rates; ``sweep`` and ``inspect`` refusing
malformed config flags, an empty profile and a delay spread of
``n_subcarriers`` samples; and each command refusing a malformed flag of its
own. Each log holds its exit code. Inputs are passed
by paths relative to OUTDIR, so two checkouts' directories compare with
``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd())]

from ofdmce.cli import main  # noqa: E402
from ofdmce.harness import CSV_HEADER, ESTIMATOR_IDS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Two equal taps 20 samples apart at 7.68 MHz, unfaded (``two-equal.txt``):
# the true response is exactly 0 at 10 data cells of every trial, so ideal's
# zero guard decides them.
ZERO_CELLS = "n_subcarriers = 480\nn_pilots = 60\nfading = false\nprofile = two-equal.txt\n"

INPUTS = {
    **{f"{name}.cfg": w.config_text() for name, w in WORKLOADS.items()},
    "m3.cfg": "n_symbols = 3\n",
    "m1.cfg": "n_symbols = 1\n",
    "np512.cfg": "n_pilots = 512\n",
    "two-ray.txt": "name = two-ray\ntap = 0 0\ntap = 1000 -3\n",
    "two-equal.txt": "name = two-equal\ntap = 0 0\ntap = 2604.1666667 0\n",
    "zero-cells.cfg": ZERO_CELLS + f"estimators = {','.join(ESTIMATOR_IDS)}\n",
    # ideal last: its one response per block makes each SNR point's last
    # decision, written over the received cells.
    "reversed.cfg": ZERO_CELLS + f"estimators = {','.join(reversed(ESTIMATOR_IDS))}\n",
    # A 64-sample spread: it fits the 64-sample prefix, but not 64 subcarriers.
    "whole-symbol.txt": "name = whole-symbol\ntap = 0 0\ntap = 64 -3\n",
    "whole-symbol.cfg": "n_subcarriers = 64\nn_pilots = 8\ncp_len = 64\nsample_rate_hz = 1e9\n"
    "th_perfect = 7\nth_inaccurate = 3\nprofile = whole-symbol.txt\n",
    "header-only.csv": f"{CSV_HEADER}\n",
    # 50 errors in 100 bits, but a BER of 0.9.
    "inconsistent.csv": f"{CSV_HEADER}\nideal,10.0,100,50,0.9,0.0,nan\n",
}

INSPECT_CASES = {
    "noiseless": [],
    "snr20-trial3": ["--snr", "20", "--trial", "3"],
    # Past the first block of its batch: the 64-trial blocks of the default grid.
    "snr20-trial70": ["--snr", "20", "--trial", "70"],
    "m3": ["--config", "m3.cfg", "--symbol", "2", "--snr", "15"],
    "m1": ["--config", "m1.cfg"],
    "np512": ["--config", "np512.cfg", "--snr", "20"],
    "wideband": ["--config", "wideband.cfg", "--snr", "20", "--trial", "3", "--symbol", "1"],
    # In the third 16-trial block.
    "wideband-trial40": ["--config", "wideband.cfg", "--snr", "20", "--trial", "40"],
    "two-ray": ["--profile", "two-ray.txt", "--snr", "25", "--trial", "9", "--symbol", "1"],
    "single-tap": ["--profile", "single-tap", "--trial", "4294967299"],
    "floor": ["--snr", "-300"],
    "below-floor": ["--snr=-300.5"],
    "zero-cells": ["--config", "zero-cells.cfg", "--snr", "20", "--trial", "5"],
}

# Sweep configs: every benchmark workload and the exact-zero case in both orders.
SWEEPS = (*WORKLOADS, "zero-cells", "reversed")

# Config flags whose value does not parse, and one that names no profile.
BAD_FLAGS = {
    "seed": ["--seed", "abc"],
    "subframes": ["--subframes", "1.5"],
    "c": ["--c", "x"],
    "th-perfect": ["--th-perfect", "3.0"],
    "th-inaccurate": ["--th-inaccurate", "y"],
    "profile": ["--profile="],
}

# A command's own flags whose value does not parse.
BAD_COMMAND_FLAGS = {
    "inspect-bad-snr": ["inspect", "--snr", "abc"],
    "inspect-bad-trial": ["inspect", "--trial", "1.5"],
    "inspect-bad-symbol": ["inspect", "--symbol", "x"],
    "sweep-bad-workers": ["sweep", "--subframes", "1", "--workers", "x", "--out", "bad-workers.csv"],
    "profiles-bad-sample-rate": ["profiles", "--sample-rate", "x"],
}


def run(log: str, argv: list[str]) -> None:
    """Run ``ofdmce argv`` in process; write its exit code, stdout and stderr to ``log``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    Path(log).write_text(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def write_outputs(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for name, text in INPUTS.items():
        Path(name).write_text(text)
    for name in SWEEPS:
        for workers in ("1", "2"):
            stem = f"sweep-{name}-w{workers}"
            run(f"{stem}.log", ["sweep", "--config", f"{name}.cfg", "--seed", "7",
                                "--subframes", "300", "--workers", workers, "--out", f"{stem}.csv"])
        run(f"gaps-{name}.log", ["gaps", "--in", f"sweep-{name}-w1.csv", "--targets", "1e-2,1e-3",
                                 "--out", f"gaps-{name}.csv"])
    for name in ("header-only", "inconsistent"):
        run(f"gaps-{name}.log", ["gaps", "--in", f"{name}.csv"])
    for case, argv in INSPECT_CASES.items():
        for estimator in ESTIMATOR_IDS:
            run(f"inspect-{case}-{estimator}.log", ["inspect", *argv, "--estimator", estimator])
    for rate in ("3.84e6", "7.68e6", "30.72e6"):
        run(f"profiles-{rate}.log", ["profiles", "--sample-rate", rate])
    for name, argv in BAD_FLAGS.items():
        for command in ("sweep", "inspect"):
            run(f"{command}-bad-{name}.log", [command, *argv])
    run("sweep-whole-symbol.log", ["sweep", "--config", "whole-symbol.cfg", "--estimators", "ideal",
                                   "--out", "whole-symbol.csv"])
    run("inspect-whole-symbol.log", ["inspect", "--config", "whole-symbol.cfg"])
    for name, argv in BAD_COMMAND_FLAGS.items():
        run(f"{name}.log", argv)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/outputs.py OUTDIR")
    write_outputs(sys.argv[1])

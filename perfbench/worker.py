"""The measured process: repeated ``ofdmce sweep`` rounds through ``ofdmce.cli.main``.

``run.py`` starts this script in a fresh interpreter, with ``src`` on the
path and the BLAS and OpenMP thread counts set to 1, and reads back the
``result.json`` it writes. After one warm-up round, rounds are timed until
``--seconds`` have passed. In traced mode the timed rounds alternate between
traced and untraced, so that both rates are taken under the same host
conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """High-water resident set of this process since it was exec'd, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--subframes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    import numpy
    import ofdmce
    from ofdmce import cli

    tracer = None
    if args.trace:
        from tracer import Tracer, round_metrics

        tracer = Tracer()
    config = args.out / "workload.cfg"
    seeds = wl.round_seeds(args.seed)
    rounds = []
    with open(os.devnull, "w") as devnull:
        while True:
            # Round 0 is a warm-up: it fills the lazily built tables and the
            # allocator's pools, which the first chunk of any sweep pays for.
            timed = len(rounds) - 1
            traced = tracer is not None and timed >= 0 and timed % 2 == 0
            csv = args.out / f"round{len(rounds):03d}.csv"
            argv = [
                "sweep", "--config", str(config), "--seed", str(next(seeds)),
                "--subframes", str(args.subframes), "--workers", "1", "--out", str(csv),
            ]
            first_span = len(tracer.spans) if tracer else 0
            if traced:
                tracer.install()
            start = time.perf_counter()
            with contextlib.redirect_stdout(devnull):
                code = cli.main(argv)
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
            record = {"csv": csv.name, "exit": code, "wall_s": wall, "warmup": timed < 0, "traced": traced}
            if traced:
                record["layers"] = round_metrics(tracer.spans, first_span, wall)
            rounds.append(record)
            if timed < 0:
                cpu0, wall0 = time.process_time(), time.perf_counter()
            elif time.perf_counter() - wall0 >= args.seconds and (tracer is None or timed >= 1):
                break
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0

    if tracer is not None:
        with open(args.out / "spans.csv", "w") as f:
            f.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, _) in enumerate(tracer.spans):
                f.write(f"{i},{parent},{name},{start},{end}\n")
    result = {
        "rounds": rounds,
        "cpu_s": cpu,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ofdmce_file": ofdmce.__file__,
    }
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

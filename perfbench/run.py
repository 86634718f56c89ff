"""Benchmark of ofdmce's Monte Carlo sweep, end to end and per layer.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 20

One run, from the root of a checkout:

1. writes the workload's ofdmce config under ``perfbench/out/``;
2. starts ``worker.py`` in a fresh interpreter, which repeats whole sweep
   rounds through ``ofdmce.cli.main`` for ``--seconds`` after one warm-up
   round; ``evals_per_s`` is the median over timed rounds of subframes x SNR
   points per second, and ``peak_rss_mb`` the worker's peak resident memory;
3. measures set-up, before and after the worker: cold ``python -m ofdmce
   sweep`` processes of one subframe per point, of which the median wall
   time is ``setup_s``;
4. checks every CSV the rounds wrote (``checks.py``);
5. prints what it measured and, as its last line, one JSON object.

Every ofdmce process runs with ``--workers 1`` and the OpenBLAS, OpenMP and
MKL thread counts set to 1. With ``--trace 1`` the worker alternates
untraced and traced rounds and the run reports per-layer metrics, the
tracing overhead among them. ``--steadiness N`` runs the untraced command N
times per workload, each with its own seed, and prints each end-to-end
metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_rounds, read_table
from tracer import REPORTED
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cold starts measured before and after the timed rounds, so that set-up is
# sampled at both ends of the run. One more unmeasured start comes first: it
# compiles bytecode and fills the page cache.
COLD_STARTS = 4
# A child that runs longer is stopped, and the run fails without a result.
# The worker may overrun --seconds by its warm-up round and its last round.
COLD_START_TIMEOUT_S = 30
WORKER_SLACK_S = 120


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def cold_starts(wl: Workload, seed: int, out: Path, env: dict, count: int) -> list[float]:
    """Wall times of cold ``ofdmce sweep`` processes of one subframe per point."""
    argv = [
        sys.executable, "-m", "ofdmce", "sweep", "--config", str(out / "workload.cfg"),
        "--seed", str(next(wl.round_seeds(seed))), "--subframes", "1", "--workers", "1",
        "--out", str(out / "setup.csv"),
    ]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=COLD_START_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold sweep exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def timed_rates(rounds: list[dict], evals: int, traced: bool) -> list[float]:
    """Evals per second of the timed rounds, traced or not, whose sweep exited 0.

    A sweep that fails part way takes less time than one that runs to its
    end, so counting its rate would make a failing change look faster.
    """
    return [
        evals / r["wall_s"] for r in rounds
        if r["exit"] == 0 and not r["warmup"] and r["traced"] == traced
    ]


def run_once(args) -> int:
    try:
        return measure(args)
    except subprocess.TimeoutExpired as exc:
        print(f"error: stopped after {exc.timeout:g} s: {' '.join(map(str, exc.cmd))}", file=sys.stderr)
        return 1


def measure(args) -> int:
    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "ofdmce" / "cli.py").is_file():
        print(f"error: no ofdmce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    subframes = args.subframes or wl.round_subframes
    out = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "workload.cfg").write_text(wl.config_text())
    env = child_env()

    try:
        setup = cold_starts(wl, args.seed, out, env, COLD_STARTS + 1)[1:]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "worker.py"), "--workload", wl.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--subframes", str(subframes), "--trace", str(args.trace), "--out", str(out),
        ],
        cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True,
        timeout=args.seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return 1
    setup += cold_starts(wl, args.seed, out, env, COLD_STARTS)
    result = json.loads((out / "result.json").read_text())
    if not Path(result["ofdmce_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: worker imported ofdmce from {result['ofdmce_file']}", file=sys.stderr)
        return 1
    rounds = result["rounds"]
    tables = [
        read_table(out / r["csv"]) if r["exit"] == 0 else f"sweep exited {r['exit']}"
        for r in rounds
    ]
    verdicts = check_rounds(tables, wl, subframes)
    attempted = sum(len(v) for v in verdicts)
    faults = [(i, k, fs) for i, v in enumerate(verdicts) for k, fs in v.items() if fs]
    # A sweep that exits non-zero fails its rows but leaves `correct` true,
    # which speaks of the rows that were computed; a sweep that ran and
    # wrote a wrong row makes the run incorrect.
    correct = not any(
        fs for r, v in zip(rounds, verdicts) if r["exit"] == 0 for fs in v.values()
    )

    evals = subframes * len(wl.snr_db)
    plain = timed_rates(rounds, evals, traced=False)
    traced = timed_rates(rounds, evals, traced=True)
    if not plain or (args.trace and not traced):
        print(f"error: no timed round exited 0; exits {[r['exit'] for r in rounds]}", file=sys.stderr)
        return 1
    q1, rate, q3 = quartiles(plain)
    setup_s = statistics.median(setup)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"commit {commit()}  python {result['python']}  numpy {result['numpy']}  "
        f"nproc {os.cpu_count()}  threads {' '.join(f'{v}=1' for v in THREAD_VARS)}"
    )
    print(
        f"rounds {len(rounds)} x {subframes} subframes x {len(wl.snr_db)} SNR points x "
        f"{len(wl.estimators)} estimators, the first a warm-up; process cpu {result['cpu_s']:.3f} s "
        f"over {result['wall_s']:.3f} s wall of timed rounds"
    )
    print(f"evals_per_s {rate:.6g} 1/s  (rounds q1 {q1:.6g}, q3 {q3:.6g}, n {len(plain)})")
    print(f"setup_s {setup_s:.6g} s  (cold starts {', '.join(f'{t:.4f}' for t in setup)})")
    print(f"peak_rss_mb {result['peak_rss_mb']:.6g} MB")
    print(f"attempted {attempted}  failed {len(faults)}")
    for i, (e, s), fs in faults[:10]:
        print(f"  round {i} {e} @ {s:g} dB: {'; '.join(fs)}")

    if args.trace:
        layers = [r["layers"] for r in rounds if r["traced"] and r["exit"] == 0]
        medians = {
            name: {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        for m in medians.values():
            if m["unit"] == "count":  # counts repeat exactly from round to round
                m["value"] = int(m["value"])
        traced_rate = statistics.median(traced)
        print(
            f"tracing overhead {100.0 * (rate / traced_rate - 1.0):.3g}% "
            f"({traced_rate:.6g} traced vs {rate:.6g} untraced evals/s); spans in {out / 'spans.csv'}"
        )
        for name, m in medians.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        metrics = {name: medians[name] for name in REPORTED}
        metrics["trace.evals_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (rate / traced_rate - 1.0), "unit": "%"}
    else:
        metrics = {
            "evals_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(faults), "metrics": metrics}))
    return 0


def steadiness(args) -> int:
    """Repeat untraced runs, interleaving workloads, and print each metric's spread."""
    values: dict[tuple[str, str], list[float]] = {}
    shares: dict[str, set] = {}
    for i in range(args.steadiness):
        for name in WORKLOADS:
            seed = args.seed + i
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=args.seconds + WORKER_SLACK_S + (2 * COLD_STARTS + 1) * COLD_START_TIMEOUT_S,
            )
            if proc.returncode != 0:
                print(f"error: {name} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.setdefault(name, set()).add(result["failed"] / result["attempted"])
            print(f"{name} seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            for k, m in result["metrics"].items():
                values.setdefault((name, k), []).append(m["value"])
    print(f"commit {commit()}  nproc {os.cpu_count()}  python {sys.version.split()[0]}  runs {args.steadiness}  seconds {args.seconds}")
    print("workload metric median q1 q3 spread(q3-q1)/median")
    for (name, k), v in values.items():
        q1, med, q3 = quartiles(v)
        print(f"{name} {k} {med:.6g} {q1:.6g} {q3:.6g} {(q3 - q1) / med:.4f}")
    for name, s in shares.items():
        print(f"{name} failed shares {sorted(s)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--subframes", type=int, help="subframes per round (default: the workload's)")
    parser.add_argument("--steadiness", type=int, metavar="N", help="repeat untraced runs N times per workload")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())

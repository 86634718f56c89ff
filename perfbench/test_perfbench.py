"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from checks import Row, check_rounds, parse_csv, rayleigh_qpsk_ber, sigma2
from run import timed_rates
from tracer import LAYERS, Tracer, round_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# The whole command at a tiny size, through the same checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_untraced_run_passes_every_check(name):
    wl = WORKLOADS[name]
    result = run_bench("--workload", name, "--seed", "7", "--seconds", "0", "--subframes", "32")
    assert result["correct"] is True
    assert result["failed"] == 0
    # The warm-up round and one timed round.
    assert result["attempted"] == 2 * len(wl.estimators) * len(wl.snr_db)
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    result = run_bench("--workload", "headline", "--seed", "7", "--seconds", "0", "--subframes", "32", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    # Self times cover the traced sweep's wall time and nothing more.
    wall = metrics["trace.round_wall_s"]["value"]
    assert 0.99 * wall <= metrics["trace.self_sum_s"]["value"] <= wall
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.self_sum_s"]["value"], rel=1e-9)
    # One demodulation per chunk and SNR point, two noise draws per trial.
    assert metrics["phy.ofdm_demodulate.calls"]["value"] == 3
    assert metrics["channel.complex_normal.calls"]["value"] == 2 * 32


def test_same_seed_same_inputs():
    wl = WORKLOADS["headline"]
    a, b, c = wl.round_seeds(3), wl.round_seeds(3), wl.round_seeds(4)
    first = [next(a) for _ in range(5)]
    assert first == [next(b) for _ in range(5)]
    assert first != [next(c) for _ in range(5)]


def test_without_sources_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "headline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failing_sweep_gives_no_result(tmp_path):
    """A checkout whose ``cli.main`` returns 1 on every measured round."""
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    pkg = tmp_path / "src" / "ofdmce"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text("import sys\nfrom ofdmce.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    # Cold starts (one subframe) succeed; every sweep round fails.
    (pkg / "cli.py").write_text(
        "def main(argv):\n    return 0 if argv[argv.index('--subframes') + 1] == '1' else 1\n"
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "one-point", "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert '"correct"' not in proc.stdout
    assert "no timed round exited 0" in proc.stderr


def test_rate_leaves_out_failed_and_warmup_rounds():
    rounds = [
        {"exit": 0, "wall_s": 4.0, "warmup": True, "traced": False},
        {"exit": 1, "wall_s": 0.5, "warmup": False, "traced": False},
        {"exit": 0, "wall_s": 2.0, "warmup": False, "traced": False},
        {"exit": 0, "wall_s": 2.5, "warmup": False, "traced": True},
        {"exit": 1, "wall_s": 0.1, "warmup": False, "traced": True},
    ]
    assert timed_rates(rounds, 100, traced=False) == [50.0]
    assert timed_rates(rounds, 100, traced=True) == [40.0]


# ---------------------------------------------------------------------------
# Each check rejects a wrong CSV
# ---------------------------------------------------------------------------

BIG = 100_000  # subframes per synthetic round: pooled tolerances are tight


def expected_rows(name: str, subframes: int = BIG) -> list[Row]:
    """A round that meets every expectation exactly."""
    wl = WORKLOADS[name]
    bits = subframes * wl.bits_per_subframe
    factor = {"ideal": 1.0, "conv-perfect": 1.3, "proposed": 1.4, "conv-inaccurate": 3.0, "ls-only": 2.0}
    rows = []
    for est in wl.estimators:
        for snr in wl.snr_db:
            errors = round(bits * rayleigh_qpsk_ber(snr) * factor[est])
            s2 = {
                "conv-perfect": sigma2(snr) / wl.n_pilots,
                "proposed": sigma2(snr) / (wl.n_pilots * wl.n_symbols),
                "conv-inaccurate": 45.0 * sigma2(snr) / wl.n_pilots,
            }.get(est, math.nan)
            mse = 0.0 if est == "ideal" else 1e-3
            rows.append(Row(est, snr, bits, errors, errors / bits, mse, s2))
    return rows


def to_csv(rows: list[Row]) -> str:
    lines = ["# ofdmce 0.1.0", "estimator,snr_db,total_bits,bit_errors,ber,mean_mse,mean_sigma2_hat"]
    lines += [
        f"{r.estimator},{r.snr_db!r},{r.total_bits},{r.bit_errors},{r.ber!r},{r.mean_mse!r},{r.sigma2!r}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def failing(rows: list[Row], name: str = "headline", subframes: int = BIG) -> dict:
    """Failed (estimator, SNR) keys of one round, after a CSV round trip."""
    verdict = check_rounds([parse_csv(to_csv(rows))], WORKLOADS[name], subframes)[0]
    return {k: fs for k, fs in verdict.items() if fs}


def edit(rows, est, snr, **changes):
    return [replace(r, **changes) if (r.estimator, r.snr_db) == (est, snr) else r for r in rows]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_expected_rows_pass(name):
    assert failing(expected_rows(name), name) == {}


def test_doubled_sigma2_rejected():
    rows = expected_rows("headline")
    for est in ("proposed", "conv-perfect"):
        bad = edit(rows, est, 27.5, sigma2=2 * next(r.sigma2 for r in rows if r.key == (est, 27.5)))
        assert list(failing(bad)) == [(est, 27.5)]


def test_sigma2_off_by_a_tenth_rejected():
    rows = expected_rows("headline")
    bad = edit(rows, "proposed", 30.0, sigma2=1.1 * next(r.sigma2 for r in rows if r.key == ("proposed", 30.0)))
    assert list(failing(bad)) == [("proposed", 30.0)]


@pytest.mark.parametrize("scale", [0.8, 1.2])
def test_ideal_ber_20_percent_off_rejected(scale):
    rows = expected_rows("headline")
    r = next(r for r in rows if r.key == ("ideal", 25.0))
    errors = round(r.bit_errors * scale)
    bad = edit(rows, "ideal", 25.0, bit_errors=errors, ber=errors / r.total_bits)
    assert ("ideal", 25.0) in failing(bad)


def test_missing_row_fails_that_row():
    rows = [r for r in expected_rows("headline") if r.key != ("conv-inaccurate", 27.5)]
    assert failing(rows) == {("conv-inaccurate", 27.5): ["row missing"]}


def test_repeated_row_fails_the_round():
    rows = expected_rows("one-point", 1024)
    assert len(failing(rows + rows[:1], "one-point", 1024)) == 1
    assert failing(rows, "one-point", 1024) == {}


def test_bit_errors_above_total_bits_rejected():
    rows = expected_rows("headline")
    total = rows[0].total_bits
    bad = edit(rows, "conv-inaccurate", 25.0, bit_errors=total + 1, ber=(total + 1) / total)
    assert ("conv-inaccurate", 25.0) in failing(bad)


def test_wrong_total_bits_rejected():
    rows = expected_rows("headline")
    bad = edit(rows, "conv-perfect", 30.0, total_bits=rows[0].total_bits - 1)
    assert ("conv-perfect", 30.0) in failing(bad)


def test_ber_inconsistent_with_counts_rejected():
    rows = expected_rows("headline")
    r = next(r for r in rows if r.key == ("conv-perfect", 25.0))
    assert ("conv-perfect", 25.0) in failing(edit(rows, "conv-perfect", 25.0, ber=r.ber * 1.01))


def test_ideal_with_nonzero_mse_rejected():
    bad = edit(expected_rows("headline"), "ideal", 30.0, mean_mse=1e-9)
    assert ("ideal", 30.0) in failing(bad)


def test_sigma2_reported_where_none_is_estimated_rejected():
    bad = edit(expected_rows("wideband"), "ls-only", 10.0, sigma2=0.1)
    assert ("ls-only", 10.0) in failing(bad, "wideband")


def test_inaccurate_threshold_without_inflated_sigma2_rejected():
    rows = expected_rows("wideband")
    bad = edit(rows, "conv-inaccurate", 30.0, sigma2=sigma2(30.0) / 256)
    assert ("conv-inaccurate", 30.0) in failing(bad, "wideband")


def test_ideal_above_another_estimator_rejected():
    rows = expected_rows("headline")
    ideal = next(r for r in rows if r.key == ("ideal", 27.5))
    errors = round(0.8 * ideal.bit_errors)
    bad = edit(rows, "proposed", 27.5, bit_errors=errors, ber=errors / ideal.total_bits)
    assert set(failing(bad)) == {("ideal", 27.5), ("proposed", 27.5)}


def test_ideal_above_another_within_noise_accepted():
    # At 16 subframes ideal made 17 errors at 30 dB where conv-perfect made 15.
    rows = expected_rows("headline", 16)
    assert failing(rows, subframes=16) == {}
    ideal = next(r for r in rows if r.key == ("ideal", 30.0))
    errors = ideal.bit_errors - 2
    close = edit(rows, "conv-perfect", 30.0, bit_errors=errors, ber=errors / ideal.total_bits)
    assert failing(close, subframes=16) == {}


def test_missing_rows_everywhere_fail_without_crashing():
    wl = WORKLOADS["headline"]
    rows = [r for r in expected_rows("headline") if r.estimator != "proposed"]
    verdict = check_rounds([parse_csv(to_csv(rows))], wl, BIG)[0]
    assert {k for k, fs in verdict.items() if fs} == {("proposed", s) for s in wl.snr_db}


def test_ber_that_does_not_fall_rejected():
    rows = expected_rows("headline")
    low = next(r for r in rows if r.key == ("conv-perfect", 25.0))
    bad = edit(rows, "conv-perfect", 27.5, bit_errors=low.bit_errors, ber=low.ber)
    assert set(failing(bad)) >= {("conv-perfect", 25.0), ("conv-perfect", 27.5)}


def test_failed_sweep_fails_all_its_rows():
    wl = WORKLOADS["headline"]
    verdict = check_rounds(["sweep exited 1"], wl, 512)[0]
    assert len(verdict) == 12 and all(verdict.values())


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_restores_every_binding_and_nests_spans():
    from ofdmce import channel, estimators, harness, phy, spectral

    before = {(m.__name__, k): v for m in (spectral, phy, channel, estimators, harness) for k, v in vars(m).items()}
    from_taps = vars(channel.ChannelRealization)["from_taps"]
    tracer = Tracer()
    tracer.install()
    try:
        assert phy.dft is not before["ofdmce.phy", "dft"]
        assert harness.equalize is estimators.equalize
        config = harness.SimConfig(snr_points_db=(10.0, 20.0), subframes_per_point=4)
        harness.sweep(config, workers=1)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in (spectral, phy, channel, estimators, harness) for k, v in vars(m).items()}
    assert after == before
    assert vars(channel.ChannelRealization)["from_taps"] is from_taps

    metrics = round_metrics(tracer.spans, 0, 1.0)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["harness.sweep"]
    assert metrics["trace.self_sum_s"][0] == pytest.approx((roots[0][2] - roots[0][1]) / 1e9, abs=1e-9)
    # Transforms called through phy count as spectral spans nested in phy's.
    demod = [i for i, s in enumerate(tracer.spans) if s[0] == "phy.ofdm_demodulate"]
    assert len(demod) == 2
    assert any(s[0] == "spectral.dft" and s[3] in demod for s in tracer.spans)
    assert metrics["channel.from_taps.self_s"][0] > 0
    assert metrics["spectral.points"][0] > 0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]

"""End-to-end acceptance checks, one test per criterion.

`pytest -v` gives one pass/fail line per criterion; each test also prints
the measured values it judged.

Criterion 1 is a known red. With sample-spaced taps the per-symbol
scheme's tail region is free of channel energy, so its noise read-off is
already unbiased; the multi-symbol scheme's only remaining edge is a finer
per-sample noise floor, and its lower implicit threshold (the noise
estimate itself, versus twice it for the per-symbol scheme) retains e^-1
of the noise-only impulse-response samples instead of e^-2. Summed over
the block that costs the multi-symbol estimate about 0.07 sigma^2 of extra
retained noise, and its crossing lands about 0.2 dB to the right of the
per-symbol baseline instead of 0.5-2.5 dB to the left. The sweep's own
mean MSE shows it: on the headline config (seed 7, 512 subframes per
point) MSE / sigma^2 is about 0.32 for the per-symbol scheme and about 0.38
for the multi-symbol scheme at every point from 25 to 30 dB.
"""

import math

import numpy as np
import pytest

from ofdmce.channel import complex_normal
from ofdmce.cli import main
from ofdmce.estimators import (
    conventional_estimate,
    conventional_noise_var,
    multi_symbol_estimate,
    multi_symbol_noise_var,
    stack_pilot_cir,
)
from ofdmce.harness import SimConfig, awgn_qpsk_ber, sweep
from ofdmce.spectral import dft, idft


def random_sparse_channels(rng, trials, max_delay, n_subcarriers):
    """Random sample-spaced channels with all tap indices <= max_delay."""
    gains = np.zeros((trials, max_delay + 1), dtype=np.complex128)
    for t in range(trials):
        n_taps = rng.integers(1, 9)
        idx = rng.choice(max_delay + 1, size=n_taps, replace=False)
        gains[t, idx] = rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)
    delays = np.arange(max_delay + 1)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(n_subcarriers), delays) / n_subcarriers)
    return gains @ phases.T


class TestAcceptance:
    def test_criterion_1_multi_symbol_crossing_gap(self, headline_gaps):
        """Multi-symbol estimator beats the perfect-threshold baseline by 0.5-2.5 dB at 1e-3."""
        conv = headline_gaps.crossings[1e-3, "conv-perfect"]
        prop = headline_gaps.crossings[1e-3, "proposed"]
        assert conv is not None and prop is not None, "curves must cross 1e-3 in the sweep"
        advantage = conv - prop
        print(
            f"criterion 1: crossings conv-perfect {conv:.3f} dB, proposed {prop:.3f} dB, "
            f"advantage {advantage:+.3f} dB (required 0.5..2.5)"
        )
        assert 0.5 <= advantage <= 2.5, (
            f"multi-symbol advantage over the perfect-threshold baseline at BER 1e-3 "
            f"should be 0.5..2.5 dB, measured {advantage:+.3f} dB "
            f"(proposed crosses at {prop:.3f} dB, conv-perfect at {conv:.3f} dB)"
        )

    def test_criterion_2_baseline_to_ideal_gap(self, headline_gaps):
        """Perfect-threshold baseline sits 1.0-4.0 dB from the genie at 1e-3."""
        conv = headline_gaps.crossings[1e-3, "conv-perfect"]
        ideal = headline_gaps.crossings[1e-3, "ideal"]
        assert conv is not None and ideal is not None, "curves must cross 1e-3 in the sweep"
        gap = conv - ideal
        print(f"criterion 2: conv-perfect at {conv:.3f} dB, ideal at {ideal:.3f} dB, gap {gap:.3f} dB")
        assert 1.0 <= gap <= 4.0, f"gap to ideal should be 1.0..4.0 dB, measured {gap:.3f} dB"

    def test_criterion_3_understated_threshold_error_floor(self, headline_records):
        """An understated delay-spread threshold leaves a high-SNR error floor."""
        by_key = {(r.estimator_id, r.snr_db): r for r in headline_records}
        floor_30 = by_key["conv-inaccurate", 30.0].ber
        ideal_30 = by_key["ideal", 30.0].ber
        floor_25 = by_key["conv-inaccurate", 25.0].ber
        ratio = floor_30 / ideal_30
        decrease = floor_25 / floor_30
        print(
            f"criterion 3: conv-inaccurate/ideal at 30 dB = {ratio:.1f}x, "
            f"conv-inaccurate 25->30 dB improvement = {decrease:.2f}x"
        )
        assert ratio >= 10.0, f"floor should exceed ideal by >= 10x, measured {ratio:.1f}x"
        assert decrease < 2.0, f"floor should barely improve, measured {decrease:.2f}x"

    def test_criterion_4_exact_recovery(self):
        """Both denoising schemes recover 1000 noiseless in-range channels."""
        rng = np.random.default_rng(404)
        h_true = random_sparse_channels(rng, trials=1000, max_delay=38, n_subcarriers=512)
        pilot_row = h_true[:, ::8]
        conv = conventional_estimate(pilot_row[:, None, :], 512, threshold=39, c=2.0)
        prop = multi_symbol_estimate(np.stack([pilot_row, pilot_row], axis=-2), 512)
        scale = np.max(np.abs(h_true), axis=-1)
        worst_conv = np.max(np.max(np.abs(conv.freq_response[:, 0] - h_true), axis=-1) / scale)
        worst_prop = np.max(np.max(np.abs(prop.freq_response[:, 0] - h_true), axis=-1) / scale)
        print(f"criterion 4: worst relative error conv {worst_conv:.2e}, proposed {worst_prop:.2e}")
        assert worst_conv <= 1e-9, f"per-symbol recovery off by {worst_conv:.2e}"
        assert worst_prop <= 1e-9, f"multi-symbol recovery off by {worst_prop:.2e}"

    def test_criterion_5_noise_channel_separation(self):
        """Interleave noise positions are channel-free and noise-independent."""
        rng = np.random.default_rng(505)
        clean = rng.normal(size=(1000, 64)) + 1j * rng.normal(size=(1000, 64))
        stacked = stack_pilot_cir(np.stack([clean, clean], axis=-2))
        worst = np.max(np.abs(stacked[..., 1:]))
        print(f"criterion 5: worst noiseless noise-block entry {worst:.2e}")
        assert worst <= 1e-12, f"noise block should vanish without noise, worst {worst:.2e}"

        trials, sigma2 = 10_000, 0.1
        channel = rng.normal(size=(trials, 64)) + 1j * rng.normal(size=(trials, 64))
        # Drawn pilot by pilot, (trials, Np, M), and read symbol-major as a view.
        noise = np.swapaxes(complex_normal(rng, (trials, 64, 2), sigma2), -1, -2)
        pilots = channel[..., None, :] + noise
        noise_block = stack_pilot_cir(pilots)[..., 1]
        channel_cir = idft(channel)
        inner = np.sum(noise_block * np.conj(channel_cir))
        corr = abs(inner) / math.sqrt(
            float(np.sum(np.abs(noise_block) ** 2) * np.sum(np.abs(channel_cir) ** 2))
        )
        print(f"criterion 5: |correlation| noise block vs channel = {corr:.4f}")
        assert corr <= 0.02, f"noise block should be uncorrelated with the channel, got {corr:.4f}"

    def test_criterion_6_noise_variance_calibration(self):
        """Both read-offs are unbiased; the multi-symbol one is tighter."""
        for sigma2 in (0.01, 0.1, 1.0):
            rng = np.random.default_rng((606, int(sigma2 * 1000)))
            # Drawn pilot by pilot, (trials, Np, M), and read symbol-major as a view.
            pilots = 1.0 + np.swapaxes(complex_normal(rng, (10_000, 64, 2), sigma2), -1, -2)
            prop = multi_symbol_noise_var(stack_pilot_cir(pilots))
            conv = conventional_noise_var(idft(pilots[..., 0, :]), 1)
            prop_mean, conv_mean = float(np.mean(prop)), float(np.mean(conv))
            prop_target, conv_target = sigma2 / 128.0, sigma2 / 64.0
            print(
                f"criterion 6: sigma2={sigma2}: multi-symbol mean {prop_mean:.4e} "
                f"(target {prop_target:.4e}), per-symbol mean {conv_mean:.4e} "
                f"(target {conv_target:.4e}), variances {np.var(prop):.2e} < {np.var(conv):.2e}"
            )
            assert 0.98 * prop_target <= prop_mean <= 1.02 * prop_target, (
                f"multi-symbol mean {prop_mean:.4e} outside 2% of {prop_target:.4e}"
            )
            assert 0.98 * conv_target <= conv_mean <= 1.02 * conv_target, (
                f"per-symbol mean {conv_mean:.4e} outside 2% of {conv_target:.4e}"
            )
            assert np.var(prop) < np.var(conv), "multi-symbol estimate should be tighter"

    def test_criterion_7_analytic_awgn_anchor(self):
        """Genie equalization on a static flat channel matches closed-form QPSK."""
        config = SimConfig(
            profile="single-tap",
            fading=False,
            estimators=("ideal",),
            snr_points_db=tuple(i * 2.5 for i in range(13)),
            subframes_per_point=1000,
        )
        worst_z = 0.0
        for record in sweep(config, workers=1):
            p = awgn_qpsk_ber(record.snr_db)
            se = math.sqrt(p * (1.0 - p) / record.total_bits)
            deviation = abs(record.ber - p)
            assert deviation <= 3.0 * se, (
                f"{record.snr_db} dB: measured {record.ber:.3e} vs analytic {p:.3e}, "
                f"|diff| {deviation:.3e} > 3 SE = {3 * se:.3e}"
            )
            if se > 0:
                worst_z = max(worst_z, deviation / se)
        print(f"criterion 7: worst deviation {worst_z:.2f} standard errors across 13 points")

    def test_criterion_8_kernel_oracles(self):
        """The numpy.fft transforms match direct summation, invert, and conserve energy."""
        rng = np.random.default_rng(808)
        worst_direct = worst_round = worst_parseval = 0.0
        for length in (4, 8, 64, 128, 512):
            x = rng.normal(size=length) + 1j * rng.normal(size=length)
            phases = np.exp(-2j * np.pi * np.arange(length) / length)
            table = phases[np.outer(np.arange(length), np.arange(length)) % length]
            worst_direct = max(worst_direct, float(np.max(np.abs(dft(x) - table @ x))))
            worst_direct = max(
                worst_direct,
                float(np.max(np.abs(idft(x) - np.conj(table) @ x / length))),
            )
            worst_round = max(worst_round, float(np.max(np.abs(idft(dft(x)) - x))))
            energy = float(np.sum(np.abs(x) ** 2))
            spectral = float(np.sum(np.abs(dft(x)) ** 2)) / length
            worst_parseval = max(worst_parseval, abs(energy - spectral) / energy)
        print(
            f"criterion 8: worst vs direct {worst_direct:.2e}, round trip {worst_round:.2e}, "
            f"Parseval {worst_parseval:.2e} relative"
        )
        assert worst_direct <= 1e-12, f"direct-summation mismatch {worst_direct:.2e}"
        assert worst_round <= 1e-12, f"round-trip error {worst_round:.2e}"
        assert worst_parseval <= 1e-10, f"Parseval error {worst_parseval:.2e}"

    def test_criterion_9_worker_count_determinism(self, tmp_path, capsys):
        """Identical seed and config give byte-identical CSVs at any worker count."""
        args = ["sweep", "--snr", "5,15", "--subframes", "300"]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(args + ["--workers", "1", "--out", str(serial)]) == 0
        assert main(args + ["--workers", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        identical = serial.read_bytes() == parallel.read_bytes()
        print(f"criterion 9: byte-identical across worker counts: {identical}")
        assert identical, "worker count changed the output bytes"

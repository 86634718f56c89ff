"""Power delay profiles, fading realizations, and noise injection."""

import numpy as np
import pytest

from ofdmce.channel import (
    ChannelRealization,
    NoiseSpec,
    PowerDelayProfile,
    apply_channel,
    build_profile,
    complex_normal,
    load_profile,
    profile_from_taps,
    tap_gains,
)
from ofdmce.phy import GridConfig, build_grid, generate_pilots, ofdm_demodulate, ofdm_modulate, qpsk_modulate

FS = 7.68e6


def expected_etu_taps() -> tuple[dict[int, float], float]:
    """Independent recomputation of the quantized ETU tap set at 7.68 MHz.

    50 ns rounds onto the 0 ns tap and 230 ns onto the 200 ns tap, leaving
    seven sample-spaced taps.
    """
    delays_ns = [0, 50, 120, 200, 230, 500, 1600, 2300, 5000]
    powers_db = [-1, -1, -1, 0, 0, 0, -3, -5, -7]
    merged: dict[int, float] = {}
    for d_ns, p_db in zip(delays_ns, powers_db):
        idx = int(round(d_ns * FS / 1e9))
        merged[idx] = merged.get(idx, 0.0) + 10.0 ** (p_db / 10.0)
    total = sum(merged.values())
    return {d: p / total for d, p in merged.items()}, total


# ---------------------------------------------------------------------------
# Profile quantization
# ---------------------------------------------------------------------------


class TestProfiles:
    def test_etu_quantizes_to_seven_taps(self):
        profile = build_profile("etu", FS)
        assert profile.tap_delays == (0, 1, 2, 4, 12, 18, 38)

    def test_etu_merged_powers(self):
        """Colliding taps add in linear power before renormalization."""
        profile = build_profile("etu", FS)
        expected, _ = expected_etu_taps()
        for delay, power in zip(profile.tap_delays, profile.tap_powers):
            assert abs(power - expected[delay]) <= 1e-12, f"tap {delay}"

    def test_powers_sum_to_one(self):
        profile = build_profile("etu", FS)
        assert abs(sum(profile.tap_powers) - 1.0) <= 1e-12

    def test_delay_spread_fits_default_cp(self):
        assert build_profile("etu", FS).delay_spread == 38
        assert build_profile("etu", FS).delay_spread < GridConfig().cp_len

    def test_single_tap(self):
        profile = build_profile("single-tap", FS)
        assert profile.tap_delays == (0,)
        assert profile.tap_powers == (1.0,)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            build_profile("eva", FS)

    def test_validation_catches_bad_profiles(self):
        with pytest.raises(ValueError, match="delay 0"):
            PowerDelayProfile("bad", (1, 2), (0.5, 0.5), FS)
        with pytest.raises(ValueError, match="increasing"):
            PowerDelayProfile("bad", (0, 3, 3), (0.4, 0.3, 0.3), FS)
        with pytest.raises(ValueError, match="sum to 1"):
            PowerDelayProfile("bad", (0, 1), (0.7, 0.6), FS)

    @pytest.mark.parametrize(
        "delays, powers, rate, field",
        [
            ([np.nan, 0.0], [0.0, 0.0], FS, "delays_ns"),
            ([0.0, 50.0], [0.0, np.inf], FS, "powers_db"),
            ([0.0], [0.0], np.nan, "sample_rate_hz"),
        ],
    )
    def test_non_finite_taps_rejected(self, delays, powers, rate, field):
        """Non-finite tap values or sample rates name the offending field."""
        with pytest.raises(ValueError, match=field):
            profile_from_taps("bad", delays, powers, rate)


class TestProfileFiles:
    def test_round_trip_through_file(self, tmp_path):
        text = "\n".join(
            [
                "# two-ray test profile",
                "name = two-ray",
                "tap = 0 0.0",
                "tap = 260.4 -3.0  # rounds to sample 2",
            ]
        )
        path = tmp_path / "two_ray.prof"
        path.write_text(text + "\n")
        profile = load_profile(path, FS)
        assert profile.name == "two-ray"
        assert profile.tap_delays == (0, 2)
        expected = 10.0 ** (-0.3)
        assert abs(profile.tap_powers[1] - expected / (1 + expected)) <= 1e-12

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "office.prof"
        path.write_text("tap = 0 0\n")
        assert load_profile(path, FS).name == "office"

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.prof"
        path.write_text("tap = 0\n")
        with pytest.raises(ValueError, match="bad.prof:1"):
            load_profile(path, FS)
        path.write_text("delay = 0 0\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_profile(path, FS)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_profile(tmp_path / "absent.prof", FS)


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


def draw_realization(profile: PowerDelayProfile, n_subcarriers: int, rng, size: int | None = None):
    """A realization of ``tap_gains`` draws: one block, or ``size`` blocks from one stream."""
    if size is None:
        gains = tap_gains(profile, rng)
    else:
        gains = np.array([tap_gains(profile, rng) for _ in range(size)])
    return ChannelRealization.from_taps(profile.tap_delays, gains, n_subcarriers)


class TestTapGains:
    def test_shapes(self):
        profile = build_profile("etu", FS)
        assert tap_gains(profile, np.random.default_rng(0)).shape == (7,)
        single = draw_realization(profile, 512, np.random.default_rng(0))
        assert single.gains.shape == (7,)
        assert single.freq_response.shape == (512,)
        batch = draw_realization(profile, 512, np.random.default_rng(0), size=10)
        assert batch.gains.shape == (10, 7)
        assert batch.freq_response.shape == (10, 512)
        assert np.array_equal(batch.gains[0], single.gains), "a batch is successive draws"

    def test_draw_is_amplitudes_times_unit_normal(self):
        """The gains are sqrt(power) times a unit complex normal from the given stream."""
        profile = build_profile("etu", FS)
        expected = np.sqrt(profile.tap_powers) * complex_normal(np.random.default_rng(3), 7, 1.0)
        assert np.array_equal(tap_gains(profile, np.random.default_rng(3)), expected)

    def test_mean_energy_is_calibrated(self):
        """Average total tap energy over many draws stays within 1%."""
        profile = build_profile("etu", FS)
        rng = np.random.default_rng(42)
        gains = np.array([tap_gains(profile, rng) for _ in range(100_000)])
        mean_energy = np.mean(np.sum(np.abs(gains) ** 2, axis=-1))
        assert 0.99 <= mean_energy <= 1.01, f"mean energy {mean_energy:.4f}"

    def test_static_single_tap_is_identity(self):
        profile = build_profile("single-tap", FS)
        fixed = ChannelRealization.from_taps(profile.tap_delays, tap_gains(profile, None), 64)
        assert np.array_equal(fixed.gains, [1.0 + 0.0j])
        assert fixed.gains.dtype == np.complex128
        assert np.allclose(fixed.freq_response, 1.0, atol=1e-15)

    def test_static_gains_are_root_powers(self):
        profile = build_profile("etu", FS)
        assert np.array_equal(tap_gains(profile, None), np.sqrt(profile.tap_powers))

    def test_dc_response_is_gain_sum(self):
        profile = build_profile("etu", FS)
        draw = draw_realization(profile, 512, np.random.default_rng(5))
        assert abs(draw.freq_response[0] - draw.gains.sum()) <= 1e-12

    def test_freq_response_matches_literal_sum(self):
        """from_taps agrees with an explicit evaluation of the tap sum."""
        rng = np.random.default_rng(6)
        delays = np.array([0, 3, 9])
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = ChannelRealization.from_taps(delays, gains, 64).freq_response
        expected = np.zeros(64, dtype=complex)
        for k in range(64):
            for d, g in zip(delays, gains):
                expected[k] += g * np.exp(-2j * np.pi * k * d / 64)
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("delays", [[0, 64], [-1, 3]])
    def test_from_taps_rejects_delays_off_the_grid(self, delays):
        """Tap delays must index one of the N DFT bins."""
        with pytest.raises(ValueError, match=r"\[0, 64\)"):
            ChannelRealization.from_taps(delays, [1.0, 0.5], 64)


# ---------------------------------------------------------------------------
# Applying the channel
# ---------------------------------------------------------------------------


class TestApplyChannel:
    def test_identity_tap_passes_through(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        ident = ChannelRealization.from_taps([0], [1.0], 64)
        assert np.array_equal(apply_channel(x, ident, 40), x)

    def test_pure_delay_shifts_with_zero_fill(self):
        x = np.arange(1.0, 9.0)
        delayed = ChannelRealization.from_taps([0, 2], [0.0 + 0j, 1.0 + 0j], 64)
        out = apply_channel(x, delayed, 40)
        assert np.allclose(out, [0, 0, 1, 2, 3, 4, 5, 6])

    def test_delay_spread_must_fit_cp(self):
        """A spread of cp_len samples still fits the prefix; one more does not."""
        wide = ChannelRealization.from_taps([0, 41], [1.0, 0.5], 512)
        with pytest.raises(ValueError, match="cp_len"):
            apply_channel(np.zeros(100), wide, 40)
        fitting = ChannelRealization.from_taps([0, 40], [1.0, 0.5], 512)
        assert apply_channel(np.zeros(100), fitting, 40).shape == (100,)

    def test_unsorted_delays_check_the_largest(self):
        """Taps may come in any order; the spread is the largest delay, so a
        5-sample echo listed first is refused without a prefix."""
        unsorted = ChannelRealization.from_taps([5, 0], [1, 1], 16)
        assert unsorted.delay_spread == 5
        with pytest.raises(ValueError, match="delay spread 5 exceeds cp_len 0"):
            apply_channel(np.ones(16), unsorted, cp_len=0)

    def test_spread_equal_to_cp_gives_the_frequency_response(self):
        """The tap at delay cp_len reads only the prefix of its own symbol."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)
        rng = np.random.default_rng(14)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(4, cfg),
            cfg,
        )
        edge = ChannelRealization.from_taps([0, 12], [1.0 + 0j, 0.5 - 0.5j], 64)
        rx = ofdm_demodulate(apply_channel(ofdm_modulate(grid, cfg), edge, cfg.cp_len), cfg)
        assert np.abs(rx - edge.freq_response[:, None] * grid).max() <= 1e-12

    def test_one_sample_delay_rotates_subcarriers(self):
        """A pure one-sample delay multiplies subcarrier k by e^{-j2pik/N}."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)
        rng = np.random.default_rng(8)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(1, cfg),
            cfg,
        )
        delay = ChannelRealization.from_taps([0, 1], [0.0 + 0j, 1.0 + 0j], 64)
        rx = ofdm_demodulate(apply_channel(ofdm_modulate(grid, cfg), delay, cfg.cp_len), cfg)
        k = np.arange(64)
        expected = grid * np.exp(-2j * np.pi * k / 64)[:, None]
        assert np.abs(rx - expected).max() <= 1e-10

    def test_two_tap_frequency_response(self):
        """Taps {0: 1, 1: 0.5} scale cell k by 1 + 0.5 e^{-j2pik/N}."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)
        rng = np.random.default_rng(9)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(2, cfg),
            cfg,
        )
        two_tap = ChannelRealization.from_taps([0, 1], [1.0 + 0j, 0.5 + 0j], 64)
        rx = ofdm_demodulate(apply_channel(ofdm_modulate(grid, cfg), two_tap, cfg.cp_len), cfg)
        ratio = rx / grid
        k = np.arange(64)
        expected = 1 + 0.5 * np.exp(-2j * np.pi * k / 64)
        assert np.abs(ratio - expected[:, None]).max() <= 1e-10

    def test_demodulated_grid_sees_freq_response(self):
        """With cp_len above the delay spread, each cell is scaled by H[k]."""
        cfg = GridConfig()
        profile = build_profile("etu", FS)
        draw = draw_realization(profile, cfg.n_subcarriers, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(3, cfg),
            cfg,
        )
        rx = ofdm_demodulate(apply_channel(ofdm_modulate(grid, cfg), draw, cfg.cp_len), cfg)
        expected = draw.freq_response[:, None] * grid
        assert np.abs(rx - expected).max() <= 1e-10

    def test_batched_gains_broadcast(self):
        profile = build_profile("etu", FS)
        draws = draw_realization(profile, 512, np.random.default_rng(12), size=3)
        x = np.ones(80, dtype=complex)
        out = apply_channel(x, draws, 40)
        assert out.shape == (3, 80)
        single = ChannelRealization.from_taps(draws.tap_delays, draws.gains[1], 512)
        assert np.array_equal(out[1], apply_channel(x, single, 40))


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


class TestNoise:
    def test_snr_to_sigma2(self):
        assert NoiseSpec.from_snr_db(10.0).sigma2 == pytest.approx(0.1)
        assert NoiseSpec.from_snr_db(0.0).sigma2 == 1.0
        assert NoiseSpec.from_snr_db(np.inf).sigma2 == 0.0

    def test_zero_sigma2_passthrough(self):
        """Unit noise scaled by sqrt(sigma2) of an infinite SNR adds nothing."""
        x = np.ones(50, dtype=complex)
        noise = complex_normal(np.random.default_rng(0), 50, 1.0)
        out = x + np.sqrt(NoiseSpec.from_snr_db(np.inf).sigma2) * noise
        assert np.array_equal(out, x)

    def test_noise_variance_calibration(self):
        """Unit noise scaled by sqrt(sigma2) has variance sigma2."""
        rng = np.random.default_rng(13)
        out = np.sqrt(NoiseSpec(3.0, 0.5).sigma2) * complex_normal(rng, 200_000, 1.0)
        measured = np.mean(np.abs(out) ** 2)
        assert abs(measured - 0.5) <= 0.01, f"measured {measured:.4f}"

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, -4000.0])
    def test_non_finite_noise_rejected(self, snr_db):
        """NaN, -inf and overflowing dB values give no usable noise variance."""
        with pytest.raises(ValueError, match="snr_db|sigma2"):
            NoiseSpec.from_snr_db(snr_db)

    def test_complex_normal_is_circular(self):
        rng = np.random.default_rng(14)
        draws = complex_normal(rng, 100_000, 2.0)
        assert abs(np.mean(np.abs(draws) ** 2) - 2.0) <= 0.04
        assert abs(np.mean(draws.real * draws.imag)) <= 0.02

    def test_time_noise_keeps_variance_in_frequency(self):
        """The sqrt(N) demod scaling maps CN(0, s2) samples to CN(0, s2) cells."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)
        rng = np.random.default_rng(15)
        sigma2 = 0.25
        cells = []
        for _ in range(200):
            noisy = complex_normal(rng, cfg.samples_per_block, sigma2)
            cells.append(ofdm_demodulate(noisy, cfg))
        var = np.mean(np.abs(np.stack(cells)) ** 2)
        assert abs(var - sigma2) <= 0.01, f"frequency-domain variance {var:.4f}"

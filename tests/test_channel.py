"""Power delay profiles, fading realizations, and noise injection."""

import math
import warnings

import numpy as np
import pytest

from ofdmce.channel import (
    PowerDelayProfile,
    apply_channel,
    build_profile,
    complex_normal,
    from_taps,
    load_profile,
    noise_variance,
    profile_from_taps,
    read_key_values,
    tap_gains,
)
from ofdmce.phy import GridConfig, build_grid, generate_pilots, ofdm_demodulate, ofdm_modulate, qpsk_modulate
from ofdmce.spectral import dft

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


def box_muller(rng: np.random.Generator, shape: tuple[int, ...], variance) -> np.ndarray:
    """``shape`` CN(0, variance) values redrawn from ``rng`` with numpy alone:
    ``u = random(shape + (2,))``, modulus ``sqrt(-variance * log1p(-u0))``
    and phase ``2π u1`` rounded to float32, the value ``modulus * cos(phase)
    + 1j * modulus * sin(phase)``."""
    u = rng.random(shape + (2,))
    modulus = np.sqrt(-variance * np.log1p(-u[..., 0]))
    phase = (2.0 * np.pi * u[..., 1]).astype(np.float32)
    return modulus * np.cos(phase) + 1j * (modulus * np.sin(phase))


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

    @pytest.mark.parametrize("fs", [1.0, 3.84e6, FS, 30.72e6])
    def test_single_tap_is_a_row_of_taps(self, fs):
        """The flat builtin is the one-tap profile at 0 ns and 0 dB, at any rate."""
        assert build_profile("single-tap", fs) == profile_from_taps("single-tap", [0.0], [0.0], fs)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "delays, powers, rate, fields",
        [
            ([0.0, 5000.0], [0.0, 0.0], 1e300, ["delays_ns", "sample_rate_hz 1e+300"]),
            ([0.0, 5000.0], [0.0, 0.0], 1e308, ["delays_ns", "sample_rate_hz 1e+308"]),
            ([0.0, 1e30], [0.0, -3.0], FS, ["delays_ns", "sample_rate_hz"]),
            ([0.0, -1e30], [0.0, -3.0], FS, ["delays_ns", "sample_rate_hz"]),
            ([0.0], [4000.0], FS, ["powers_db"]),
            ([0.0, 50.0], [3080.0, 3080.0], FS, ["powers_db"]),
            # 0.0 as a linear power; 1e-20 that is subnormal 1e-320 once
            # normalized; a total of 0.0; a subnormal total.
            ([0.0, 500.0], [0.0, -4000.0], FS, ["powers_db [0.0, -4000.0]"]),
            ([0.0, 500.0], [3000.0, -200.0], FS, ["powers_db [3000.0, -200.0]"]),
            ([0.0], [-4000.0], FS, ["powers_db [-4000.0]"]),
            ([0.0, 500.0], [-3200.0, -3200.0], FS, ["powers_db [-3200.0, -3200.0]"]),
        ],
    )
    def test_overflowing_taps_rejected(self, delays, powers, rate, fields):
        """Delays past the int64 sample range, powers whose linear sum
        overflows, and powers below the normal float range once normalized
        name the field before any cast warns."""
        with pytest.raises(ValueError) as excinfo:
            profile_from_taps("bad", delays, powers, rate)
        for field in fields:
            assert field in str(excinfo.value)

    @pytest.mark.filterwarnings("error")
    def test_delays_inside_the_int64_range_are_kept(self):
        profile = profile_from_taps("far", [0.0, 1e18], [0.0, 0.0], 1e9)
        assert profile.tap_delays == (0, 10**18)

    def test_faint_normal_powers_are_kept(self):
        profile = profile_from_taps("faint", [0.0, 500.0], [0.0, -3000.0], FS)
        assert profile.tap_powers[1] == pytest.approx(1e-300, rel=1e-12)


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

    @pytest.mark.parametrize("line", ["name =", "= 5", "tap", "tap =  # no value"])
    def test_incomplete_lines_rejected_as_key_value(self, tmp_path, line):
        """A line without key, ``=`` or value fails in the shared reader."""
        path = tmp_path / "bad.prof"
        path.write_text(f"tap = 0 0\n{line}\n")
        with pytest.raises(ValueError, match=f"bad.prof:2: expected 'key = value', got '{line}'"):
            load_profile(path, FS)


class TestKeyValueReader:
    def test_lines_comments_and_positions(self, tmp_path):
        """Blank and comment-only lines are skipped; keys repeat as written;
        ``where`` names the file and line."""
        path = tmp_path / "kv.txt"
        path.write_text("# header\n\n a = 1 # note\nb=x=y\n  \na = 2\n")
        assert read_key_values(path) == [
            (f"{path}:3", "a", "1"),
            (f"{path}:4", "b", "x=y"),
            (f"{path}:6", "a", "2"),
        ]


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


def response(tap_delays, gains, n_subcarriers: int) -> np.ndarray:
    """The frequency response ``(..., N)`` of sample-spaced taps."""
    return dft(from_taps(tap_delays, gains, n_subcarriers))


class TestTapGains:
    def test_shapes(self):
        """``rows`` blocks give ``(rows, T)`` gains, drawn row by row: a draw
        of 10 rows is a draw of 4 and then of 6 from the same stream."""
        profile = build_profile("etu", FS)
        batch = tap_gains(profile, np.random.default_rng(0), 10)
        assert batch.shape == (10, 7)
        assert from_taps(profile.tap_delays, batch, 512).shape == (10, 512)
        rng = np.random.default_rng(0)
        parts = tap_gains(profile, rng, 4), tap_gains(profile, rng, 6)
        assert np.array_equal(np.concatenate(parts), batch), "rows are successive draws"
        assert tap_gains(profile, np.random.default_rng(0), 1).shape == (1, 7)

    def test_draw_is_uniform_pairs_at_the_tap_powers(self):
        """Each row is ``T`` uniform pairs from the given stream, ``random((T,
        2))``, through the Box–Muller transform at each tap's power."""
        profile = build_profile("etu", FS)
        expected = box_muller(np.random.default_rng(3), (5, 7), np.array(profile.tap_powers))
        assert np.array_equal(tap_gains(profile, np.random.default_rng(3), 5), expected)

    def test_draw_is_complex_normal_at_the_tap_powers(self):
        profile = build_profile("etu", FS)
        expected = complex_normal(np.random.default_rng(4), (6, 7), np.array(profile.tap_powers))
        assert np.array_equal(tap_gains(profile, np.random.default_rng(4), 6), expected)

    def test_mean_energy_is_calibrated(self):
        """Average total tap energy over many draws stays within 1%."""
        profile = build_profile("etu", FS)
        gains = tap_gains(profile, np.random.default_rng(42), 100_000)
        mean_energy = np.mean(np.sum(np.abs(gains) ** 2, axis=-1))
        assert 0.99 <= mean_energy <= 1.01, f"mean energy {mean_energy:.4f}"

    def test_static_single_tap_is_identity(self):
        profile = build_profile("single-tap", FS)
        gains = tap_gains(profile, None, 2)
        assert np.array_equal(gains, [[1.0 + 0.0j]] * 2)
        assert gains.dtype == np.complex128
        assert np.allclose(response(profile.tap_delays, gains, 64), 1.0, atol=1e-15)

    def test_static_gains_are_root_powers(self):
        """Without a stream every row is the square roots of the tap powers."""
        profile = build_profile("etu", FS)
        assert np.array_equal(tap_gains(profile, None, 3), np.tile(np.sqrt(profile.tap_powers), (3, 1)))

    def test_dc_response_is_gain_sum(self):
        profile = build_profile("etu", FS)
        (gains,) = tap_gains(profile, np.random.default_rng(5), 1)
        assert abs(response(profile.tap_delays, gains, 512)[0] - gains.sum()) <= 1e-12

    def test_freq_response_matches_literal_sum(self):
        """The transform of from_taps agrees with an explicit evaluation of the tap sum."""
        rng = np.random.default_rng(6)
        delays = np.array([0, 3, 9])
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = response(delays, gains, 64)
        expected = np.zeros(64, dtype=complex)
        for k in range(64):
            for d, g in zip(delays, gains):
                expected[k] += g * np.exp(-2j * np.pi * k * d / 64)
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("delays", [[0, 64], [-1, 3]])
    def test_from_taps_rejects_delays_off_the_grid(self, delays):
        """Tap delays must index one of the N DFT bins."""
        with pytest.raises(ValueError, match=r"\[0, 64\)"):
            from_taps(delays, [1.0, 0.5], 64)

    def test_from_taps_adds_shared_delays(self):
        taps = from_taps([0, 3, 3, 20, 20], [1.0, 2.0, -0.5, 1.0j, 2.0j], 64)
        assert taps.shape == (64,) and taps.dtype == np.complex128
        expected = np.zeros(64, dtype=complex)
        expected[[0, 3, 20]] = [1.0, 1.5, 3.0j]
        assert np.array_equal(taps, expected)


# ---------------------------------------------------------------------------
# Applying the channel
# ---------------------------------------------------------------------------


class TestApplyChannel:
    def test_identity_tap_passes_through(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert np.array_equal(apply_channel(x, [0], [1.0], 40), x)

    def test_pure_delay_shifts_with_zero_fill(self):
        x = np.arange(1.0, 9.0)
        out = apply_channel(x, [0, 2], [0.0 + 0j, 1.0 + 0j], 40)
        assert np.allclose(out, [0, 0, 1, 2, 3, 4, 5, 6])

    def test_delay_spread_must_fit_cp(self):
        """A spread of cp_len samples still fits the prefix; one more does not."""
        with pytest.raises(ValueError, match="cp_len"):
            apply_channel(np.zeros(100), [0, 41], [1.0, 0.5], 40)
        assert apply_channel(np.zeros(100), [0, 40], [1.0, 0.5], 40).shape == (100,)

    def test_negative_delay_refused(self):
        with pytest.raises(ValueError, match=r"nonnegative, got \[0, -1\]"):
            apply_channel(np.ones(1), [0, -1], [1.0, 0.5], 40)

    def test_unsorted_delays_check_the_largest(self):
        """Taps may come in any order; the spread is the largest delay, so a
        5-sample echo listed first is refused without a prefix."""
        with pytest.raises(ValueError, match="delay spread 5 exceeds cp_len 0"):
            apply_channel(np.ones(16), [5, 0], [1, 1], cp_len=0)

    def test_spread_equal_to_cp_gives_the_frequency_response(self):
        """The tap at delay cp_len reads only the prefix of its own symbol."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)
        rng = np.random.default_rng(14)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(4, cfg),
            cfg,
        )
        delays, gains = [0, 12], [1.0 + 0j, 0.5 - 0.5j]
        rx = ofdm_demodulate(apply_channel(ofdm_modulate(grid, cfg), delays, gains, cfg.cp_len), cfg)
        assert np.abs(rx - response(delays, gains, 64) * grid).max() <= 1e-12

    def test_one_sample_delay_rotates_subcarriers(self):
        """A pure one-sample delay multiplies subcarrier k by e^{-j2pik/N}."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)
        rng = np.random.default_rng(8)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(1, cfg),
            cfg,
        )
        delayed = apply_channel(ofdm_modulate(grid, cfg), [0, 1], [0.0 + 0j, 1.0 + 0j], cfg.cp_len)
        rx = ofdm_demodulate(delayed, cfg)
        k = np.arange(64)
        expected = grid * np.exp(-2j * np.pi * k / 64)
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
        filtered = apply_channel(ofdm_modulate(grid, cfg), [0, 1], [1.0 + 0j, 0.5 + 0j], cfg.cp_len)
        rx = ofdm_demodulate(filtered, cfg)
        ratio = rx / grid
        k = np.arange(64)
        expected = 1 + 0.5 * np.exp(-2j * np.pi * k / 64)
        assert np.abs(ratio - expected).max() <= 1e-10

    def test_demodulated_grid_sees_freq_response(self):
        """With cp_len above the delay spread, each cell is scaled by H[k]."""
        cfg = GridConfig()
        profile = build_profile("etu", FS)
        (gains,) = tap_gains(profile, np.random.default_rng(10), 1)
        rng = np.random.default_rng(11)
        grid = build_grid(
            qpsk_modulate(rng.integers(0, 2, cfg.data_bits_per_block)),
            generate_pilots(3, cfg),
            cfg,
        )
        faded = apply_channel(ofdm_modulate(grid, cfg), profile.tap_delays, gains, cfg.cp_len)
        rx = ofdm_demodulate(faded, cfg)
        expected = response(profile.tap_delays, gains, cfg.n_subcarriers) * grid
        assert np.abs(rx - expected).max() <= 1e-10

    def test_batched_gains_broadcast(self):
        profile = build_profile("etu", FS)
        gains = tap_gains(profile, np.random.default_rng(12), 3)
        x = np.ones(80, dtype=complex)
        out = apply_channel(x, profile.tap_delays, gains, 40)
        assert out.shape == (3, 80)
        assert np.array_equal(out[1], apply_channel(x, profile.tap_delays, gains[1], 40))


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


class TestNoise:
    def test_snr_to_sigma2(self):
        assert noise_variance(10.0) == pytest.approx(0.1)
        assert noise_variance(0.0) == 1.0
        assert noise_variance(np.inf) == 0.0
        assert noise_variance(-300.0) == 1e30
        assert type(noise_variance(np.float64(3.0))) is float

    def test_zero_sigma2_passthrough(self):
        """Unit noise scaled by sqrt(sigma2) of an infinite SNR adds nothing."""
        x = np.ones(50, dtype=complex)
        noise = complex_normal(np.random.default_rng(0), 50, 1.0)
        out = x + np.sqrt(noise_variance(np.inf)) * noise
        assert np.array_equal(out, x)

    def test_noise_variance_calibration(self):
        """Unit noise scaled by sqrt(sigma2) has variance sigma2."""
        rng = np.random.default_rng(13)
        out = np.sqrt(noise_variance(3.0)) * complex_normal(rng, 200_000, 1.0)
        measured = np.mean(np.abs(out) ** 2)
        assert abs(measured - 10.0**-0.3) <= 0.01, f"measured {measured:.4f}"

    @pytest.mark.parametrize(
        "snr_db, message",
        [
            (np.nan, "snr_db must not be NaN"),
            (-np.inf, r"SNR point -inf dB lies below -300.0 dB"),
            (-4000.0, r"SNR point -4000.0 dB lies below -300.0 dB"),
        ],
        ids=["nan", "-inf", "-4000.0"],
    )
    def test_non_finite_noise_rejected(self, snr_db, message):
        """NaN, and -inf and every SNR below the floor (where sigma2 could
        overflow), give no usable noise variance."""
        with pytest.raises(ValueError, match=message):
            noise_variance(snr_db)

    @pytest.mark.parametrize("variance", [0.3, np.array([0.5, 0.25, 2.0])], ids=["scalar", "per-tap"])
    def test_complex_normal_is_box_muller_of_uniform_pairs(self, variance):
        """``random(shape + (2,))`` from the same stream through the
        Box–Muller transform, exactly; the variance broadcasts over the last
        axis."""
        expected = box_muller(np.random.default_rng(16), (4, 3), variance)
        assert np.array_equal(complex_normal(np.random.default_rng(16), (4, 3), variance), expected)

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


class TestComplexNormalLaw:
    """``complex_normal`` against the CN(0, v) law at a million seeded draws,
    each check within 5 binomial or sampling standard errors."""

    N = 1_000_000
    VARIANCE = 2.0

    @pytest.fixture(scope="class")
    def draws(self):
        return complex_normal(np.random.default_rng(27), self.N, self.VARIANCE)

    @pytest.mark.parametrize("q", [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    def test_squared_modulus_is_exponential(self, draws, q):
        """``|W|² / v`` falls below Exp(1)'s q-quantile ``-ln(1 - q)`` in a
        share q of the draws."""
        share = np.mean(np.abs(draws) ** 2 / self.VARIANCE <= -np.log1p(-q))
        assert abs(share - q) <= 5 * np.sqrt(q * (1 - q) / self.N), share

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_parts_have_the_gaussian_tail(self, draws, part, x):
        """``P(Re W < -x) = P(Im W < -x) = erfc(x / sqrt(v)) / 2``."""
        p = 0.5 * math.erfc(x / math.sqrt(self.VARIANCE))
        share = np.mean(getattr(draws, part) < -x)
        assert abs(share - p) <= 5 * np.sqrt(p * (1 - p) / self.N), (share, p)

    def test_parts_are_uncorrelated_and_the_phase_uniform(self, draws):
        """``E[Re W Im W] = 0``, whose terms have standard deviation v / 2,
        and ``E[exp(iθ)] = 0``, whose parts have variance 1/2."""
        assert abs(np.mean(draws.real * draws.imag)) <= 5 * (self.VARIANCE / 2) / np.sqrt(self.N)
        mean_phasor = np.mean(np.exp(1j * np.angle(draws)))
        assert abs(mean_phasor.real) <= 5 * np.sqrt(0.5 / self.N)
        assert abs(mean_phasor.imag) <= 5 * np.sqrt(0.5 / self.N)

    def test_per_tap_variances(self):
        """Each column's mean ``|W|²`` is its variance; an Exp(1) multiple
        has standard deviation v."""
        variance = np.array([0.5, 0.25, 2.0, 1e-3])
        rows = self.N // len(variance)
        draws = complex_normal(np.random.default_rng(28), (rows, len(variance)), variance)
        measured = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.all(np.abs(measured - variance) <= 5 * variance / np.sqrt(rows)), measured

    def test_extreme_uniforms_give_finite_draws(self):
        """The smallest and largest values of ``random()``, 0 and ``1 - 2**-53``,
        give a zero draw and one of ``|W|² = 53 ln(2) v``, with no warning."""

        class EdgeUniforms:
            def random(self, out):
                out[...] = [[0.0, 0.0], [0.0, 1 - 2**-53], [1 - 2**-53, 0.0], [1 - 2**-53, 1 - 2**-53]]

        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            draws = complex_normal(EdgeUniforms(), 4, self.VARIANCE)
        assert np.all(np.isfinite(draws))
        assert np.array_equal(draws[:2], [0, 0])
        assert np.allclose(np.abs(draws[2:]) ** 2, 53 * math.log(2) * self.VARIANCE, rtol=1e-12)
        assert np.allclose(draws[2:].real, np.abs(draws[2:]), rtol=1e-12)

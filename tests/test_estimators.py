"""Channel estimator pipelines: denoising, stacking, thresholds, equalization."""

import inspect

import numpy as np
import pytest

from ofdmce.channel import build_profile, complex_normal, from_taps, tap_gains
from ofdmce.estimators import (
    cir_mse,
    conventional_estimate,
    conventional_noise_var,
    equalize,
    estimator_mse,
    ls_nearest_estimate,
    multi_symbol_estimate,
    multi_symbol_noise_var,
    stack_pilot_cir,
)
from ofdmce import harness
from ofdmce.harness import ESTIMATORS, SimConfig, resolve_profile
from ofdmce.phy import GridConfig, residue_major
from ofdmce.spectral import dft, idft

from reference import pilot_indices, qpsk_bit_errors

FS = 7.68e6
# Perfect delay-spread threshold and denoising constant of the default grid.
PERFECT = (39, 2.0)


def response(tap_delays, gains, n: int) -> np.ndarray:
    """The frequency response ``(..., n)`` of sample-spaced taps."""
    return dft(from_taps(tap_delays, gains, n))


def random_cir_channel(rng: np.random.Generator, max_delay: int, n: int) -> np.ndarray:
    """Frequency response of a random sample-spaced channel with taps inside [0, max_delay]."""
    n_taps = int(rng.integers(1, 8))
    delays = np.sort(rng.choice(max_delay + 1, size=n_taps, replace=False))
    gains = complex_normal(rng, n_taps, 1.0)
    return response(delays, gains, n)


def pilot_observation(truth: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Noiseless block-constant pilot LS grid (..., M, Np) for a frequency response."""
    row = truth[..., pilot_indices(cfg)]
    return np.repeat(row[..., None, :], cfg.n_symbols, axis=-2)


# ---------------------------------------------------------------------------
# Conventional scheme
# ---------------------------------------------------------------------------


class TestConventionalNoiseVar:
    def test_hand_computed_tail_mean(self):
        """Tail magnitudes [1, 1] beyond threshold 2 average to 1."""
        cir = np.array([5.0, 3.0j, 1.0, -1.0])
        assert conventional_noise_var(cir, threshold=2) == pytest.approx(1.0)

    def test_threshold_bounds(self):
        cir = np.zeros(8, dtype=complex)
        with pytest.raises(ValueError, match="threshold"):
            conventional_noise_var(cir, 8)
        with pytest.raises(ValueError, match="threshold"):
            conventional_noise_var(cir, -1)
        assert conventional_noise_var(cir, 0) == 0.0
        assert conventional_noise_var(np.ones((3, 8)), 7).shape == (3,)


class TestConventionalEstimate:
    def test_exact_recovery_when_threshold_covers_delay_spread(self):
        """Noiseless channels inside the threshold come back exactly."""
        cfg = GridConfig()
        rng = np.random.default_rng(21)
        for _ in range(50):
            truth = random_cir_channel(rng, 38, cfg.n_subcarriers)
            pilots = pilot_observation(truth, cfg)
            est = conventional_estimate(pilots, cfg.n_subcarriers, *PERFECT)
            assert est.freq_response.shape == (cfg.n_symbols, cfg.n_subcarriers)
            err = np.abs(est.freq_response - truth).max()
            scale = np.abs(truth).max()
            assert err <= 1e-9 * scale, f"relative error {err / scale:.2e}"

    def test_energy_beyond_threshold_is_discarded(self):
        """A tap past the threshold is treated as noise and removed."""
        row = response([0, 45], [1.0, 0.7], 512)[None, ::8]
        est = conventional_estimate(row, 512, *PERFECT)
        assert np.abs(est.freq_response - 1.0).max() <= 1e-9
        # The removed tap dominates the tail, inflating the noise estimate.
        assert est.sigma2_hat == pytest.approx([0.49 / 25], rel=1e-9)

    def test_weak_leading_samples_are_zeroed(self):
        """Head samples below c * sigma2_hat are cleared, strong ones kept."""
        cir = np.zeros(64, dtype=complex)
        cir[0] = 1.0
        cir[5] = 0.05
        cir[40:] = 0.1
        row = dft(cir)[None, :]
        est = conventional_estimate(row, 512, *PERFECT)
        # sigma2_hat = 24 * 0.01 / 25; c = 2 puts the cut at 0.0192 > 0.05^2.
        assert np.abs(est.freq_response - 1.0).max() <= 1e-9

    def test_batched_matches_single(self):
        cfg = GridConfig()
        rng = np.random.default_rng(22)
        pilots = complex_normal(rng, (5, cfg.n_symbols, cfg.n_pilots), 1.0)
        batched = conventional_estimate(pilots, cfg.n_subcarriers, *PERFECT)
        for i in range(5):
            single = conventional_estimate(pilots[i], cfg.n_subcarriers, *PERFECT)
            assert np.array_equal(batched.freq_response[i], single.freq_response)
            assert np.array_equal(batched.cleaned_cir[i], single.cleaned_cir)
            # The mean reduction may differ in the last ulp between layouts.
            assert batched.sigma2_hat[i] == pytest.approx(single.sigma2_hat, rel=1e-12)


# ---------------------------------------------------------------------------
# Stacked multi-symbol scheme
# ---------------------------------------------------------------------------


class TestStacking:
    def test_two_pilot_two_symbol_closed_form(self):
        """Identical symbols [a, b] stack to [a, b, a, b] and interleave."""
        a, b = 1.1 - 0.2j, 0.4 + 0.9j
        pilots = np.array([[a, b], [a, b]])
        cir = stack_pilot_cir(pilots)
        expected = np.array([(a + b) / 2, 0, (a - b) / 2, 0])
        assert np.allclose(cir.reshape(-1), expected, atol=1e-14)
        assert np.allclose(cir[:, 0], [(a + b) / 2, (a - b) / 2], atol=1e-14)
        assert np.allclose(cir[:, 1:], 0, atol=1e-14)

    def test_noise_block_vanishes_for_block_constant_channels(self):
        cfg = GridConfig()
        rng = np.random.default_rng(23)
        for _ in range(20):
            truth = random_cir_channel(rng, 63, cfg.n_subcarriers)
            cir = stack_pilot_cir(pilot_observation(truth, cfg))
            assert np.abs(cir[..., 1:]).max() <= 1e-12

    def test_noise_block_ignores_the_channel(self):
        """Swapping the channel while holding pilot noise fixed leaves the
        noise block untouched."""
        cfg = GridConfig()
        rng = np.random.default_rng(24)
        noise = complex_normal(rng, (cfg.n_symbols, cfg.n_pilots), 0.1)
        blocks = []
        for _ in range(2):
            truth = random_cir_channel(rng, 38, cfg.n_subcarriers)
            cir = stack_pilot_cir(pilot_observation(truth, cfg) + noise)
            blocks.append(cir[..., 1:])
        assert np.abs(blocks[0] - blocks[1]).max() <= 1e-12

    def test_single_symbol_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            stack_pilot_cir(np.ones((1, 64)))

    def test_matrix_view_indexing(self):
        """Stacked CIR sample n * M + v appears at matrix position (n, v)."""
        samples = np.arange(8.0)
        # Symbol v's pilots are entries v * Np .. (v + 1) * Np - 1 of the stacked spectrum.
        pilots = dft(samples).reshape(2, 4)
        cir = stack_pilot_cir(pilots)
        assert cir.shape == (4, 2)
        assert cir[3, 1] == pytest.approx(samples[7], abs=1e-14)
        assert np.allclose(cir[:, 0], samples[0::2], atol=1e-14)
        assert np.allclose(cir[:, 1], samples[1::2], atol=1e-14)
        assert multi_symbol_noise_var(cir) == pytest.approx(np.mean(samples[1::2] ** 2))


class TestMultiSymbolEstimate:
    def test_exact_recovery_noiseless(self):
        cfg = GridConfig()
        rng = np.random.default_rng(25)
        for _ in range(50):
            truth = random_cir_channel(rng, 38, cfg.n_subcarriers)
            est = multi_symbol_estimate(pilot_observation(truth, cfg), cfg.n_subcarriers)
            assert est.freq_response.shape == (1, cfg.n_subcarriers)
            err = np.abs(est.freq_response - truth).max()
            scale = np.abs(truth).max()
            assert err <= 1e-9 * scale, f"relative error {err / scale:.2e}"

    def test_boundary_energy_is_retained(self):
        """CIR samples exactly at sigma2_hat survive the strict comparison.

        A constant stacked CIR makes every channel sample's energy exactly
        equal to the noise estimate (all arithmetic is exact here), so a
        non-strict comparison would zero the whole estimate.
        """
        stacked = dft(np.full(8, 0.3 + 0.0j))
        pilots = stacked.reshape(2, 4)
        est = multi_symbol_estimate(pilots, 8)
        assert est.freq_response[0, 0] == pytest.approx(4 * 0.3, abs=1e-12)
        assert est.sigma2_hat == pytest.approx([0.09], abs=1e-15)

    def test_takes_no_prior_channel_knowledge(self):
        """The signature closes over pilot data and grid size only."""
        params = list(inspect.signature(multi_symbol_estimate).parameters)
        assert params == ["pilots", "n_subcarriers"]

    def test_noise_variance_calibration(self):
        """On a constant channel, sigma2_hat averages sigma2 / (Np * M)."""
        rng = np.random.default_rng(26)
        sigma2 = 0.1
        pilots = 1.0 + complex_normal(rng, (5000, 2, 64), sigma2)
        est = multi_symbol_noise_var(stack_pilot_cir(pilots))
        assert est.shape == (5000,)
        mean = est.mean()
        target = sigma2 / 128
        assert 0.98 * target <= mean <= 1.02 * target, f"mean {mean:.3e} vs {target:.3e}"

    def test_tighter_than_conventional_tail_estimate(self):
        """More noise samples mean lower estimator variance."""
        rng = np.random.default_rng(27)
        sigma2 = 0.1
        pilots = 1.0 + complex_normal(rng, (5000, 2, 64), sigma2)
        multi = multi_symbol_noise_var(stack_pilot_cir(pilots))
        conv = conventional_noise_var(idft(pilots[:, 0]), threshold=1)
        # Rescale to a common target before comparing spreads.
        rel_multi = np.var(multi * 128 / sigma2)
        rel_conv = np.var(conv * 64 / sigma2)
        assert rel_multi < rel_conv

    def test_batched_matches_single(self):
        rng = np.random.default_rng(28)
        pilots = complex_normal(rng, (5, 2, 64), 1.0)
        batched = multi_symbol_estimate(pilots, 512)
        for i in range(5):
            single = multi_symbol_estimate(pilots[i], 512)
            assert np.array_equal(batched.freq_response[i], single.freq_response)
            assert np.array_equal(batched.cleaned_cir[i], single.cleaned_cir)


class TestRandomGrids:
    """Properties over seeded random grids, M = 2..5 symbols per block included."""

    @staticmethod
    def draw_cases(seed: int, count: int):
        """Noiseless pilot grids (3, M, Np) of sample-spaced channels whose taps
        all lie below a drawn threshold, with their true responses (3, N)."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n_pilots = 2 ** int(rng.integers(2, 8))
            n_subcarriers = n_pilots * 2 ** int(rng.integers(0, 4))
            n_symbols = int(rng.integers(2, 6))
            threshold = int(rng.integers(1, n_pilots))
            n_taps = int(rng.integers(1, min(threshold, 8) + 1))
            delays = np.sort(rng.choice(threshold, size=n_taps, replace=False))
            gains = complex_normal(rng, (3, n_taps), 1.0)
            truth = response(delays, gains, n_subcarriers)
            row = truth[:, :: n_subcarriers // n_pilots]
            pilots = np.repeat(row[..., None, :], n_symbols, axis=-2)
            yield pilots, truth, threshold

    def test_noiseless_channels_are_recovered(self):
        for pilots, truth, threshold in self.draw_cases(31, 60):
            n_subcarriers = truth.shape[-1]
            scale = np.abs(truth).max(axis=-1)[:, None, None]
            for est in (
                conventional_estimate(pilots, n_subcarriers, threshold, 2.0),
                multi_symbol_estimate(pilots, n_subcarriers),
            ):
                err = np.abs(est.freq_response - truth[:, None, :]) / scale
                assert err.max() <= 1e-9, f"{pilots.shape}, N = {n_subcarriers}: {err.max():.2e}"

    def test_noise_columns_vanish(self):
        for pilots, _, _ in self.draw_cases(32, 60):
            worst = np.abs(stack_pilot_cir(pilots)[..., 1:]).max()
            assert worst <= 1e-12, f"{pilots.shape}: {worst:.2e}"


# ---------------------------------------------------------------------------
# Residue order and MSE by Parseval
# ---------------------------------------------------------------------------


def padded_dft(cir: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Reference: the length-N transform of the zero-padded impulse response."""
    padded = np.zeros(cir.shape[:-1] + (n_subcarriers,), dtype=np.complex128)
    padded[..., : cir.shape[-1]] = cir
    return dft(padded)


def nearest_pilot_fill(pilots: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Reference: gather each subcarrier's cyclically nearest pilot, midpoints
    rounding up, symbol-major (..., M, N) like the pilots."""
    spacing = n_subcarriers // pilots.shape[-1]
    k = np.arange(n_subcarriers)
    return pilots[..., ((k + spacing // 2) // spacing) % pilots.shape[-1]]


class TestResidueOrder:
    """Seeded random grids, pilot spacing S = 1 (every cell a pilot) included."""

    @staticmethod
    def draw_grids(seed: int, count: int):
        """(rng, N, Np, M) with S = N / Np from 1 to 16."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            n_pilots = 2 ** int(rng.integers(0, 8))
            spacing = 1 if i == 0 else 2 ** int(rng.integers(0, 5))
            yield rng, n_pilots * spacing, n_pilots, int(rng.integers(1, 5))

    def test_data_cells_are_the_padded_transform_reordered(self):
        for rng, n, n_pilots, n_symbols in self.draw_grids(51, 60):
            pilots = complex_normal(rng, (3, n_symbols, n_pilots), 1.0)
            threshold = int(rng.integers(0, n_pilots))
            estimates = [conventional_estimate(pilots, n, threshold, 2.0)]
            if n_symbols >= 2:
                estimates.append(multi_symbol_estimate(pilots, n))
            for est in estimates:
                reference = padded_dft(est.cleaned_cir, n)
                scale = np.abs(reference).max(initial=1e-300)
                cells = est.cells
                assert cells.shape == est.cleaned_cir.shape[:-1] + (n // n_pilots, n_pilots)
                assert cells.flags.c_contiguous
                err = np.abs(cells - residue_major(reference, n_pilots))
                assert err.max(initial=0.0) <= 1e-12 * scale, f"N = {n}, Np = {n_pilots}"
                err = np.abs(est.freq_response - reference).max()
                assert err <= 1e-12 * scale, f"N = {n}, Np = {n_pilots}: {err / scale:.2e}"

    def test_parseval_mse_is_the_grid_mse(self):
        """Against taps beyond Np and taps sharing a delay, as well as ETU's
        38-sample spread over 16 pilots."""
        cases = [(16, 512, build_profile("etu", FS).tap_delays)]
        for rng, n, n_pilots, _ in self.draw_grids(52, 60):
            cases.append((n_pilots, n, rng.integers(0, n, size=int(rng.integers(1, 12)))))
        rng = np.random.default_rng(53)
        for n_pilots, n, delays in cases:
            taps = from_taps(delays, complex_normal(rng, (4, len(delays)), 1.0), n)
            cleaned = complex_normal(rng, (4, 2, n_pilots), 0.1)
            cleaned[..., n_pilots // 2 :] = 0.0
            mse = cir_mse(cleaned, taps)
            grid = estimator_mse(padded_dft(cleaned, n), dft(taps))
            assert mse.shape == (4,)
            assert np.allclose(mse, grid, rtol=1e-12, atol=0), f"Np = {n_pilots}, delays {delays}"

    def test_ls_only_is_the_nearest_pilot_gather(self):
        for rng, n, n_pilots, n_symbols in self.draw_grids(54, 60):
            pilots = complex_normal(rng, (3, n_symbols, n_pilots), 1.0)
            est = ls_nearest_estimate(pilots, n)
            assert est.cells.flags.c_contiguous
            assert np.array_equal(est.freq_response, nearest_pilot_fill(pilots, n)), f"N = {n}, Np = {n_pilots}"

    def test_grid_must_hold_whole_pilot_spacings(self):
        with pytest.raises(ValueError, match="multiple of the pilot count"):
            conventional_estimate(np.ones((1, 64)), 100, 39, 2.0)
        with pytest.raises(ValueError, match="multiple of the pilot count"):
            ls_nearest_estimate(np.ones((1, 64)), 32)


# ---------------------------------------------------------------------------
# Ideal and nearest-pilot baselines
# ---------------------------------------------------------------------------


class TestBaselines:
    def test_ideal_is_exact(self):
        profile = build_profile("etu", FS)
        (gains,) = tap_gains(profile, np.random.default_rng(29), 1)
        truth = response(profile.tap_delays, gains, 512)
        est = ESTIMATORS["ideal"].run(None, None, residue_major(truth, 64))
        assert est.cells.shape == (1, 8, 64)
        assert np.array_equal(est.freq_response, truth[None, :])
        assert est.sigma2_hat is None and est.cleaned_cir is None
        assert estimator_mse(est.freq_response, truth) == 0.0

    def test_ideal_is_a_view_of_the_chunk_truth(self):
        config = SimConfig(subframes_per_point=4)
        streams = harness._batch_streams(config.master_seed, 0)
        block = harness._draw_block(config, resolve_profile(config), streams, 4)
        est = ESTIMATORS["ideal"].run(config, None, block.truth)
        assert est.cells.shape == (4, 1, 8, 64)
        assert est.cells.base is block.truth

    def test_nearest_pilot_fill_on_flat_channel(self):
        est = ls_nearest_estimate(np.ones((2, 64), dtype=complex), 512)
        assert np.array_equal(est.freq_response, np.ones((2, 512)))
        assert est.sigma2_hat is None and est.cleaned_cir is None

    def test_nearest_pilot_wraps_and_rounds_up(self):
        col = np.arange(64, dtype=complex)
        est = ls_nearest_estimate(np.stack([col, col + 100]), 512)
        for m, offset in enumerate((0, 100)):
            assert est.freq_response[m, 3] == col[0] + offset
            assert est.freq_response[m, 4] == col[1] + offset, "midpoint rounds to the next pilot"
            assert est.freq_response[m, 509] == col[0] + offset, "top subcarriers wrap to pilot 0"

    def test_nearest_pilot_is_coarser_than_multi_symbol(self):
        """Interpolation-free fill loses to the stacked estimator on MSE."""
        cfg = GridConfig()
        rng = np.random.default_rng(30)
        profile = build_profile("etu", FS)
        gains = tap_gains(profile, rng, 100)
        truth = response(profile.tap_delays, gains, cfg.n_subcarriers)
        noisy = pilot_observation(truth, cfg) + complex_normal(rng, (100, 2, 64), 0.1)
        near = ls_nearest_estimate(noisy[..., :1, :], 512).freq_response
        mse_near = estimator_mse(near, truth).mean()
        multi = multi_symbol_estimate(noisy, 512).freq_response
        mse_multi = estimator_mse(multi, truth).mean()
        assert mse_near >= mse_multi, f"{mse_near:.4f} < {mse_multi:.4f}"


# ---------------------------------------------------------------------------
# Equalization and MSE bookkeeping
# ---------------------------------------------------------------------------


def decided_bits(symbols: np.ndarray) -> np.ndarray:
    """Hard-decision bits of symbols, (re, im) per symbol, zero deciding 0."""
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=bool)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits


class TestEqualize:
    """Decisions come from ``qpsk_bit_errors(equalize(rx, h), bits)``."""

    def test_zero_estimate_decides_on_rx(self):
        """Where the estimate is exactly 0 the decisions follow the received signs."""
        rng = np.random.default_rng(40)
        rx = complex_normal(rng, (1, 6), 1.0)
        h = np.array([[0, 1j, 0, -1, 0j, complex(-0.0, -0.0)]])
        out = equalize(rx, h)
        zero = h == 0
        assert np.array_equal(out[zero], rx[zero])
        assert qpsk_bit_errors(out[zero], decided_bits(rx[zero])) == 0

    def test_tiny_estimate_decides_as_division(self):
        """A deep fade keeps its phase: decisions equal those of dividing by it."""
        rng = np.random.default_rng(41)
        theta = rng.uniform(-np.pi, np.pi, size=(3, 64))
        h = 1e-15 * np.exp(1j * theta)
        rx = complex_normal(rng, (3, 64), 1.0)
        out = equalize(rx, h)
        assert np.all(np.isfinite(out))
        assert qpsk_bit_errors(out, decided_bits(rx / h)) == 0

    def test_zero_component_decides_bit_zero(self):
        """A component that lands exactly on 0 decides bit 0."""
        rx = np.array([[1.0 + 0.0j, 0.0 + 0.0j, 0.0 - 2.0j]])
        h = np.array([[1.0 + 0.0j, 0.7 - 0.1j, 0.0 + 0.0j]])
        out = equalize(rx, h)
        assert out[0, 0].imag == 0 and out[0, 1] == 0 and out[0, 2].real == 0
        assert qpsk_bit_errors(out, np.array([[0, 0, 0, 0, 0, 1]], dtype=bool)) == 0
        assert qpsk_bit_errors(out, np.array([[0, 1, 1, 1, 1, 1]], dtype=bool)) == 4

    def test_symbol_major_estimate_divides_each_symbol_by_its_row(self):
        """Row m of an (M, K) estimate serves symbol m; a (1, K) row serves all."""
        rx = np.array([[1.0 + 1.0j, -2.0 + 0.5j], [0.5 - 1.0j, 1.0 + 1.0j]])
        h = np.array([[1.0 - 1.0j, 2.0 + 0.0j], [-1.0 + 0.0j, 0.0 + 4.0j]])
        out = equalize(rx, h)
        assert np.allclose(out, rx / h * np.abs(h) ** 2, rtol=1e-15)
        shared = equalize(rx, h[:1])
        assert np.allclose(shared, rx / h[:1] * np.abs(h[:1]) ** 2, rtol=1e-15)
        assert qpsk_bit_errors(shared, decided_bits(rx / h[:1])) == 0

    def test_batched_estimate_needs_a_symbol_axis(self):
        """A (B, K) estimate against (B, M, K) cells is refused, not broadcast."""
        rx = np.ones((2, 2, 4), dtype=complex)
        with pytest.raises(ValueError, match="symbol-major"):
            equalize(rx, np.ones((2, 4), dtype=complex))
        with pytest.raises(ValueError, match="symbol-major"):
            equalize(rx, np.ones((2, 3, 4), dtype=complex))

    def test_strided_estimate_gives_c_ordered_products(self):
        """Strided estimates, such as ideal's rows of the true response or a
        Fortran-ordered block, equalize into a fresh C-ordered array with the
        decisions of a contiguous copy."""
        rng = np.random.default_rng(42)
        rx = complex_normal(rng, (5, 2, 56), 1.0)
        truth = complex_normal(rng, (5, 8, 8), 1.0)
        for h in (
            truth[:, None, 1:, :].reshape(5, 1, 56),
            np.asfortranarray(complex_normal(rng, (5, 2, 56), 1.0)),
        ):
            assert not h.flags.c_contiguous
            out = equalize(rx, h)
            assert out.flags.c_contiguous
            assert np.array_equal(out, equalize(rx, np.ascontiguousarray(h)))
            assert qpsk_bit_errors(out, decided_bits(rx / h)) == 0

    def test_writes_the_product_into_out(self):
        """With ``out`` the product lands in that buffer, reused call after
        call, equal to a fresh product, zero-estimate cells included."""
        rng = np.random.default_rng(43)
        rx = complex_normal(rng, (4, 2, 24), 1.0)
        out = np.full(rx.shape, np.nan, dtype=np.complex128)
        for rows in (1, 2):
            h = complex_normal(rng, (4, rows, 24), 1.0)
            h[:, :, ::5] = 0
            fresh = equalize(rx, h)
            assert equalize(rx, h, out=out) is out
            assert np.array_equal(out, fresh)

    def test_mse_of_constant_offset(self):
        truth = response([0], [1.0], 8)
        est = truth[None, :] + 1.0
        assert estimator_mse(est, truth) == pytest.approx(1.0)

    def test_mse_averages_symbol_major_rows(self):
        truth = response([0], [1.0], 8)
        est = truth + np.array([[1.0], [3.0]])
        assert estimator_mse(est, truth) == pytest.approx(5.0)

    def test_mse_is_the_mean_squared_magnitude(self):
        rng = np.random.default_rng(57)
        for shape in [(1, 1), (3, 1, 8), (5, 2, 512), (2, 3, 4, 100)]:
            est = complex_normal(rng, shape, 1.0)
            truth = complex_normal(rng, shape[:-2] + shape[-1:], 1.0)
            expected = np.mean(np.abs(est - truth[..., None, :]) ** 2, axis=(-2, -1))
            assert np.allclose(estimator_mse(est, truth), expected, rtol=1e-15, atol=0), shape

    def test_mse_leaves_its_inputs_unchanged(self):
        rng = np.random.default_rng(58)
        est = complex_normal(rng, (4, 2, 64), 1.0)
        truth = complex_normal(rng, (4, 64), 1.0)
        est_before, truth_before = est.copy(), truth.copy()
        estimator_mse(est, truth)
        estimator_mse(est[:, :1], truth)
        assert np.array_equal(est, est_before) and np.array_equal(truth, truth_before)

    @pytest.mark.parametrize("shape", [(2, 1, 8), (2, 8), (3, 8), (3, 2, 2, 8)])
    def test_mse_rejects_mismatched_shapes(self, shape):
        """Estimates that are not symbol-major against the (3, N) truth raise, never broadcast."""
        truth = response([0], np.ones((3, 1)), 8)
        with pytest.raises(ValueError, match="does not match"):
            estimator_mse(np.ones(shape), truth)

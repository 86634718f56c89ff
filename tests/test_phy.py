"""Resource grid, and the reference chain's QPSK mapping and OFDM modulation
round trips."""

import numpy as np
import pytest

from ofdmce.phy import GridConfig, residue_major

from reference import (
    build_grid,
    extract_pilot_ls,
    generate_pilots,
    ofdm_demodulate,
    ofdm_modulate,
    pilot_indices,
    qpsk_bit_errors,
    qpsk_modulate,
    samples_per_block,
    samples_per_symbol,
)

DEFAULT = GridConfig()
SMALL = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=2, cp_len=12)


def data_cells(grid: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Reference: a grid's non-pilot cells, flattened symbol-major."""
    per_symbol = np.delete(grid, pilot_indices(cfg), axis=-1)
    return per_symbol.reshape(per_symbol.shape[:-2] + (-1,))


def random_grid(rng: np.random.Generator, cfg: GridConfig) -> np.ndarray:
    bits = rng.integers(0, 2, size=cfg.data_bits_per_block)
    pilots = generate_pilots(7, cfg)
    return build_grid(qpsk_modulate(bits), pilots, cfg)


# ---------------------------------------------------------------------------
# Grid configuration
# ---------------------------------------------------------------------------


class TestGridConfig:
    def test_default_dimensions(self):
        assert DEFAULT.pilot_spacing == 8
        assert DEFAULT.n_data == 448
        assert samples_per_block(DEFAULT) == 2 * (512 + 40)
        assert DEFAULT.data_bits_per_block == 2 * 2 * 448

    def test_pilots_need_only_divide_the_subcarriers(self):
        """Grids of no power of two run when the pilot count divides N."""
        assert GridConfig(n_subcarriers=384, n_pilots=48, n_symbols=3, cp_len=30).pilot_spacing == 8
        assert GridConfig(n_subcarriers=600, n_pilots=100, cp_len=47).pilot_spacing == 6

    def test_pilot_indices_are_spacing_multiples(self):
        assert np.array_equal(pilot_indices(DEFAULT), np.arange(0, 512, 8))
        assert pilot_indices(DEFAULT)[0] == 0, "subcarrier 0 carries a pilot"

    def test_residue_major_view(self):
        """Entry [r, p] is subcarrier p S + r; row 0 holds the pilot subcarriers."""
        cells = residue_major(np.arange(2 * 64).reshape(2, 64), 8)
        assert cells.shape == (2, 8, 8)
        assert cells[1, 3, 5] == 64 + 5 * 8 + 3
        assert np.array_equal(cells[0, 0], pilot_indices(SMALL))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_subcarriers": 500},
            {"n_pilots": 48},
            {"n_pilots": 1024},
            {"n_symbols": 0},
            {"cp_len": -1},
            {"cp_len": 513},
            {"n_pilots": 0},
        ],
    )
    def test_bad_dimensions_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**kwargs)


# ---------------------------------------------------------------------------
# QPSK mapping
# ---------------------------------------------------------------------------


class TestQpsk:
    def test_constellation_points(self):
        """All four bit pairs land on the Gray-mapped corners."""
        syms = qpsk_modulate(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        root = 1 / np.sqrt(2)
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * root
        assert np.allclose(syms, expected, atol=1e-15), f"got {syms}"

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        syms = qpsk_modulate(rng.integers(0, 2, size=256))
        assert np.abs(np.abs(syms) ** 2 - 1.0).max() <= 1e-15

    def test_round_trip(self):
        """Modulated bits decide back to themselves; the flipped bits all miss."""
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=2048).astype(bool)
        assert qpsk_bit_errors(qpsk_modulate(bits), bits) == 0
        assert qpsk_bit_errors(qpsk_modulate(bits), ~bits) == 2048

    def test_boundary_decides_bit_zero(self):
        """Components exactly on the decision boundary (either zero) decide 0."""
        symbols = np.array([0.0 + 0.0j, complex(-0.0, -0.3), 0.5 - 0.0j])
        assert qpsk_bit_errors(symbols, np.array([0, 0, 0, 1, 0, 0], dtype=bool)) == 0
        assert qpsk_bit_errors(symbols, np.array([1, 1, 1, 1, 0, 1], dtype=bool)) == 4

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_points_are_the_mapping_formula_exactly(self, dtype):
        """Table lookup gives the formula's values to the last bit."""
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(3, 64))
        formula = ((1.0 - 2.0 * bits[..., 0::2]) + 1j * (1.0 - 2.0 * bits[..., 1::2])) / np.sqrt(2.0)
        symbols = qpsk_modulate(bits.astype(dtype))
        assert symbols.dtype == np.complex128
        assert np.array_equal(symbols.view(np.float64), formula.view(np.float64))

    def test_bit_errors_count_per_component(self):
        """Each wrong sign is one error, in (real, imag) order per symbol."""
        symbols = np.array([[1 + 1j, -1 + 1j], [1 - 1j, -1 - 1j]])
        bits = np.zeros((2, 4), dtype=bool)
        assert qpsk_bit_errors(symbols, bits) == 4
        assert qpsk_bit_errors(symbols, np.array([[0, 0, 1, 0], [0, 1, 1, 1]], dtype=bool)) == 0

    def test_bit_errors_reject_unpaired_bits(self):
        with pytest.raises(ValueError, match="pair up"):
            qpsk_bit_errors(np.ones(4, dtype=complex), np.zeros(6, dtype=bool))

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            qpsk_modulate(np.zeros(5))


# ---------------------------------------------------------------------------
# Pilots
# ---------------------------------------------------------------------------


class TestPilots:
    def test_shape_and_modulus(self):
        pilots = generate_pilots(123, DEFAULT)
        assert pilots.shape == (2, 64)
        assert np.abs(np.abs(pilots) ** 2 - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("seed, cfg", [(123, DEFAULT), (4, SMALL), (9, GridConfig(n_symbols=3))])
    def test_values_are_the_pilot_by_pilot_draw(self, seed, cfg):
        """The symbol-major grid transposes bits drawn as (Np, 2M), so every
        pilot value is that of the draw, whatever the grid's axis order."""
        bits = np.random.default_rng(seed).integers(0, 2, (cfg.n_pilots, 2 * cfg.n_symbols))
        assert np.array_equal(generate_pilots(seed, cfg).T, qpsk_modulate(bits))

    def test_reproducible_from_seed(self):
        assert np.array_equal(generate_pilots(9, DEFAULT), generate_pilots(9, DEFAULT))
        assert not np.array_equal(generate_pilots(9, DEFAULT), generate_pilots(10, DEFAULT))


# ---------------------------------------------------------------------------
# Grid assembly
# ---------------------------------------------------------------------------


class TestGridAssembly:
    def test_data_round_trip(self):
        rng = np.random.default_rng(5)
        data = qpsk_modulate(rng.integers(0, 2, size=SMALL.data_bits_per_block))
        grid = build_grid(data, generate_pilots(1, SMALL), SMALL)
        assert grid.shape == (2, 64)
        assert np.array_equal(data_cells(grid, SMALL), data)
        assert np.array_equal(grid[:, pilot_indices(SMALL)], generate_pilots(1, SMALL))

    def test_pilot_cells_hold_pilot_values(self):
        pilots = generate_pilots(2, SMALL)
        grid = build_grid(np.zeros(SMALL.n_symbols * SMALL.n_data), pilots, SMALL)
        assert np.array_equal(grid[:, pilot_indices(SMALL)], pilots)

    def test_wrong_data_length_rejected(self):
        with pytest.raises(ValueError, match="data symbols"):
            build_grid(np.zeros(10), generate_pilots(1, SMALL), SMALL)


# ---------------------------------------------------------------------------
# OFDM modulation
# ---------------------------------------------------------------------------


class TestOfdmModulate:
    def test_dc_only_cell_gives_constant_body(self):
        """One unit cell on subcarrier 0 spreads to a constant 1/sqrt(N)."""
        cfg = GridConfig(n_subcarriers=64, n_pilots=8, n_symbols=1, cp_len=0)
        grid = np.zeros((1, 64), dtype=complex)
        grid[0, 0] = 1.0
        samples = ofdm_modulate(grid, cfg)
        assert np.allclose(samples, np.full(64, 1 / 8.0), atol=1e-14)

    def test_cyclic_prefix_copies_symbol_tail(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, SMALL)
        samples = ofdm_modulate(grid, SMALL)
        per_sym = samples.reshape(SMALL.n_symbols, samples_per_symbol(SMALL))
        cp, body = per_sym[:, : SMALL.cp_len], per_sym[:, SMALL.cp_len :]
        assert np.array_equal(cp, body[:, -SMALL.cp_len :])

    def test_sample_power_matches_cell_power(self):
        """sqrt(N) scaling keeps body power equal to grid cell power."""
        rng = np.random.default_rng(7)
        grid = random_grid(rng, SMALL)
        body = ofdm_modulate(grid, SMALL).reshape(SMALL.n_symbols, -1)[:, SMALL.cp_len :]
        assert abs(np.mean(np.abs(body) ** 2) - np.mean(np.abs(grid) ** 2)) <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, DEFAULT)
        back = ofdm_demodulate(ofdm_modulate(grid, DEFAULT), DEFAULT)
        assert np.abs(back - grid).max() <= 1e-12

    def test_batched_round_trip_matches_single(self):
        rng = np.random.default_rng(9)
        grids = np.stack([random_grid(rng, SMALL) for _ in range(4)])
        batched = ofdm_demodulate(ofdm_modulate(grids, SMALL), SMALL)
        for i in range(4):
            single = ofdm_demodulate(ofdm_modulate(grids[i], SMALL), SMALL)
            assert np.array_equal(batched[i], single)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="grid"):
            ofdm_modulate(np.zeros((64, 2)), SMALL)
        with pytest.raises(ValueError, match="samples"):
            ofdm_demodulate(np.zeros(17), SMALL)


# ---------------------------------------------------------------------------
# Pilot extraction and the noiseless end-to-end chain
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_pilot_ls_on_clean_grid_is_all_ones(self):
        """Without a channel the LS observation is exactly H = 1."""
        pilots = generate_pilots(11, SMALL)
        grid = build_grid(np.zeros(SMALL.n_symbols * SMALL.n_data), pilots, SMALL)
        ls = extract_pilot_ls(grid, pilots, SMALL)
        assert np.abs(ls - 1.0).max() <= 1e-15

    def test_noiseless_bits_survive_the_chain(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=DEFAULT.data_bits_per_block)
        pilots = generate_pilots(13, DEFAULT)
        grid = build_grid(qpsk_modulate(bits), pilots, DEFAULT)
        rx_grid = ofdm_demodulate(ofdm_modulate(grid, DEFAULT), DEFAULT)
        assert qpsk_bit_errors(data_cells(rx_grid, DEFAULT), bits) == 0

"""Tests for the Monte Carlo harness: pairing, aggregation, CSV, gaps."""

import ctypes
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ofdmce import harness
from ofdmce.channel import from_taps, noise_variance, tap_gains
from ofdmce.cli import main
from ofdmce.estimators import equalize, estimator_mse, stack_pilot_cir
from ofdmce.harness import (
    ESTIMATOR_IDS,
    ESTIMATORS,
    BerRecord,
    SimConfig,
    awgn_qpsk_ber,
    gap_report,
    read_csv,
    resolve_profile,
    simulate_subframe,
    sweep,
    write_csv,
    write_gaps,
)
from ofdmce.phy import GridConfig, residue_major
from ofdmce.spectral import dft

from reference import (
    apply_channel,
    build_grid,
    extract_pilot_ls,
    generate_pilots,
    ofdm_demodulate,
    ofdm_modulate,
    qpsk_bit_errors,
    qpsk_modulate,
)
from test_channel import box_muller
from test_cli import block_lines
from test_phy import data_cells


def tiny_config(**overrides) -> SimConfig:
    defaults = dict(subframes_per_point=4, snr_points_db=(10.0, 20.0))
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimConfig:
    def test_defaults_are_valid(self):
        """The default configuration constructs without complaint."""
        cfg = SimConfig()
        assert cfg.grid.n_subcarriers == 512, f"unexpected default grid {cfg.grid}"
        assert cfg.snr_points_db[0] == 0.0 and cfg.snr_points_db[-1] == 30.0

    def test_rejects_unsorted_snr(self):
        """SNR points must be strictly increasing."""
        with pytest.raises(ValueError, match="increasing"):
            tiny_config(snr_points_db=(10.0, 10.0))

    def test_rejects_unknown_estimator(self):
        """An estimator id outside the known set is a config error."""
        with pytest.raises(ValueError, match="unknown estimators"):
            tiny_config(estimators=("ideal", "secret"))

    def test_rejects_duplicate_estimator(self):
        """Duplicate ids would double-count records."""
        with pytest.raises(ValueError, match="duplicates"):
            tiny_config(estimators=("ideal", "ideal"))

    def test_rejects_proposed_on_single_symbol(self):
        """The multi-symbol estimator needs at least two symbols."""
        with pytest.raises(ValueError, match="at least 2 symbols"):
            tiny_config(grid=GridConfig(n_symbols=1), estimators=("proposed",))

    def test_rejects_out_of_range_threshold(self):
        """Thresholds live in [0, n_pilots - 1]."""
        with pytest.raises(ValueError, match="outside"):
            tiny_config(th_perfect=64)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"snr_points_db": (math.nan,)}, "snr_points_db"),
            ({"snr_points_db": (-math.inf, 10.0)}, "snr_points_db"),
            ({"snr_points_db": (10.0, math.inf)}, "snr_points_db"),
            ({"snr_points_db": (-4000.0, 10.0)}, "sigma2"),
            ({"c": math.nan}, "c must"),
            ({"c": math.inf}, "c must"),
            ({"sample_rate_hz": math.nan}, "sample_rate_hz"),
        ],
    )
    def test_rejects_non_finite_values(self, overrides, field):
        """Non-finite numbers are refused up front, naming the field."""
        with pytest.raises(ValueError, match=field):
            tiny_config(**overrides)

    def test_snr_floor_gives_finite_records(self):
        """At the -300 dB floor every estimator's record is finite, and a
        point just below it is refused by name."""
        cfg = tiny_config(subframes_per_point=3, snr_points_db=(-300.0, 0.0), estimators=ESTIMATOR_IDS)
        for record in sweep(cfg, workers=1):
            values = (record.ber, record.mean_mse, record.mean_sigma2_hat or 0.0)
            assert all(math.isfinite(v) for v in values), record
        with pytest.raises(ValueError, match=r"SNR point -300.5 dB lies below -300.0 dB"):
            tiny_config(snr_points_db=(-300.5, 10.0))

    def test_rejects_an_empty_profile_name(self):
        """An empty profile names neither a builtin nor a file; read as a path
        it would be the directory '.'."""
        with pytest.raises(ValueError, match="profile must name a builtin profile or a profile file"):
            tiny_config(profile="")

    def test_rejects_bad_counts(self):
        """Zero subframes, empty SNR grid, and empty estimator list all fail."""
        with pytest.raises(ValueError):
            tiny_config(subframes_per_point=0)
        with pytest.raises(ValueError):
            tiny_config(snr_points_db=())
        with pytest.raises(ValueError):
            tiny_config(estimators=())


class TestAwgnReference:
    def test_zero_db(self):
        """At 0 dB sample SNR the QPSK bit error rate is Q(1)."""
        expected = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
        assert awgn_qpsk_ber(0.0) == pytest.approx(expected, rel=1e-12)

    def test_ten_db(self):
        """At 10 dB the rate is Q(sqrt(10)), about 7.8e-4."""
        assert awgn_qpsk_ber(10.0) == pytest.approx(7.827011290012744e-4, rel=1e-9)

    def test_monotone_decreasing(self):
        """More SNR never hurts (strictly, until erfc underflows)."""
        values = [awgn_qpsk_ber(s) for s in np.linspace(-5, 25, 13)]
        assert all(a > b for a, b in zip(values, values[1:])), f"not monotone: {values}"


class TestResolveProfile:
    def test_builtin_names(self):
        """Builtin profile names resolve without touching the filesystem."""
        assert resolve_profile(tiny_config()).name == "etu"
        assert resolve_profile(tiny_config(profile="single-tap")).delay_spread == 0

    def test_path_resolution(self, tmp_path):
        """Anything other than a builtin name is treated as a file path."""
        path = tmp_path / "flat.profile"
        path.write_text("tap = 0 0\n")
        cfg = tiny_config(profile=str(path))
        assert resolve_profile(cfg).tap_delays == (0,)

    def test_missing_file(self):
        """A non-builtin, non-existent profile fails with a file error."""
        with pytest.raises(OSError):
            resolve_profile(tiny_config(profile="no-such-profile"))


def draw_block(config: SimConfig, lo: int, hi: int):
    """Trials ``lo .. hi - 1`` of one batch as one block, drawn by
    ``_draw_block`` from the batch's streams after its earlier rows."""
    assert lo // harness._BATCH == (hi - 1) // harness._BATCH, "one batch"
    profile = resolve_profile(config)
    streams = harness._batch_streams(config.master_seed, lo // harness._BATCH)
    if lo % harness._BATCH:
        harness._draw_block(config, profile, streams, lo % harness._BATCH)
    return harness._draw_block(config, profile, streams, hi - lo)


def sweep_blocks(config: SimConfig):
    """Every block of a sweep of ``config``, batch after batch, as ``_blocks`` yields them."""
    for batch in range(-(-config.subframes_per_point // harness._BATCH)):
        yield from harness._blocks(config, batch, config.subframes_per_point)


def receive(block, snr_db: float):
    """A block's received cells at one SNR, ``(trials, M, S, Np)``, and its
    pilot LS grid, ``(trials, M, Np)``."""
    rx = np.empty_like(block.noise)
    return rx, harness._receive(block, noise_variance(snr_db), rx)


def tx_grid(config: SimConfig) -> np.ndarray:
    """A subframe's transmit grid, ``(M, N)``, as the reference ``build_grid``
    makes it: its pilots, and the QPSK point of bits (0, 0) at every data cell."""
    grid = config.grid
    data = qpsk_modulate(np.zeros(grid.data_bits_per_block, dtype=bool))
    return build_grid(data, generate_pilots(config.master_seed, grid), grid)


def batch_row(config: SimConfig, trial: int, purpose: int, draw):
    """Row ``trial % 256`` of ``draw(rng, rows)`` from a fresh
    ``default_rng((seed, trial // 256, purpose))``, every row of the batch up
    to the trial drawn in one call."""
    rng = np.random.default_rng((config.master_seed, trial // 256, purpose))
    return draw(rng, trial % 256 + 1)[-1]


def unit_cells(rng, rows: int, grid: GridConfig) -> np.ndarray:
    """``rows`` grids of unit CN(0, 1) cells in residue order, ``(rows, M, S,
    Np)``: uniform pairs through the Box–Muller transform at variance 1."""
    return box_muller(rng, (rows, grid.n_symbols, grid.pilot_spacing, grid.n_pilots), 1.0)


def reference_subframe(config: SimConfig, trial: int, snr_db: float):
    """One subframe drawn from row ``trial % 256`` of its batch's fresh
    streams and sent through the time-domain chain, its noise the samples
    ``ofdm_modulate`` makes of its drawn noise cells in subcarrier order,
    each pilot cell's times its pilot: its frequency response and
    demodulated grid. The pilot least-squares noise is then the drawn cell,
    as the sweep receives it."""
    grid = config.grid
    profile = resolve_profile(config)
    gains = batch_row(
        config, trial, harness._CHANNEL,
        lambda rng, rows: tap_gains(profile, rng if config.fading else None, rows),
    )
    cells = batch_row(config, trial, harness._NOISE, lambda rng, rows: unit_cells(rng, rows, grid))
    cells[:, 0, :] *= generate_pilots(config.master_seed, grid)
    unit_noise = ofdm_modulate(np.swapaxes(cells, -1, -2).reshape(grid.n_symbols, -1), grid)
    response = dft(from_taps(profile.tap_delays, gains, grid.n_subcarriers))
    rx_samples = apply_channel(ofdm_modulate(tx_grid(config), grid), profile.tap_delays, gains, grid.cp_len)
    rx_samples += math.sqrt(noise_variance(snr_db)) * unit_noise
    return response, ofdm_demodulate(rx_samples, grid)


class TestSubframePairing:
    """The sweep's blocks, read in their own residue order."""

    def test_subframe_reproducible(self):
        """The same (seed, trial) pair always produces the same subframe."""
        cfg = tiny_config()
        a, b = draw_block(cfg, 3, 4), draw_block(cfg, 3, 4)
        assert np.array_equal(receive(a, 15.0)[0], receive(b, 15.0)[0])
        assert np.array_equal(a.taps, b.taps)

    def test_trials_differ(self):
        """Different trial indices draw different channels and noise."""
        cfg = tiny_config()
        a, b = draw_block(cfg, 0, 1), draw_block(cfg, 1, 2)
        assert not np.array_equal(a.truth, b.truth)
        assert not np.array_equal(a.noise, b.noise)

    def test_noise_scales_not_redraws(self):
        """Changing SNR rescales the same noise realization."""
        cfg = tiny_config()
        lo, hi, clean = (receive(draw_block(cfg, 2, 3), snr)[0] for snr in (10.0, 20.0, math.inf))
        ratio = (lo - clean) / (hi - clean)
        expected = math.sqrt(10.0)
        assert np.allclose(ratio, expected, rtol=1e-9), (
            f"noise ratio should be {expected}, got {ratio.reshape(-1)[:4]}"
        )

    def test_internal_consistency(self):
        """The block's clean part is one grid for every symbol: the point of
        bits (0, 0) times the response at the data cells and the response
        itself at the pilot row, which is its pilot LS."""
        cfg = tiny_config()
        block = draw_block(cfg, 1, 3)
        rx, pilot_ls = receive(block, 12.0)
        x0 = qpsk_modulate(np.zeros(2, dtype=bool))[0]
        assert block.clean.shape == (2, 1, cfg.grid.pilot_spacing, cfg.grid.n_pilots)
        assert np.array_equal(block.clean[:, 0, 1:, :], block.truth[:, 1:, :] * x0)
        assert np.array_equal(block.clean[:, 0, 0, :], block.truth[:, 0, :])
        assert np.array_equal(pilot_ls, rx[:, :, 0, :])

    @pytest.mark.parametrize("n_symbols", [1, 2, 3])
    def test_pilot_grid_is_a_view_of_the_receive_buffer(self, n_symbols):
        """The estimators read the pilot row as received, ``(trials, M, Np)``,
        in the buffer itself: no axis conversion copies it."""
        cfg = tiny_config(grid=GridConfig(n_symbols=n_symbols), estimators=("ideal",))
        grid = cfg.grid
        rx, pilot_ls = receive(draw_block(cfg, 0, 3), 12.0)
        assert pilot_ls.shape == (3, grid.n_symbols, grid.n_pilots)
        assert np.shares_memory(pilot_ls, rx)
        assert pilot_ls.base is rx

    @pytest.mark.parametrize("fading", [True, False])
    def test_block_channel_is_tap_gains_of_the_batch_stream(self, fading):
        """Each trial's channel is its row of one ``tap_gains`` draw from its
        batch's channel stream: its taps up to ``max(Np, spread + 1)`` and
        their response, on the default grid and over 16 pilots, short of
        ETU's 38-sample spread."""
        for n_pilots in (64, 16):
            grid = GridConfig(n_pilots=n_pilots)
            cfg = tiny_config(fading=fading, grid=grid, th_perfect=15, th_inaccurate=15)
            profile = resolve_profile(cfg)
            width = max(grid.n_pilots, profile.delay_spread + 1)
            lo, hi = 298, 302
            block = draw_block(cfg, lo, hi)
            assert block.taps.shape == (hi - lo, width)
            for j, trial in enumerate(range(lo, hi)):
                gains = batch_row(
                    cfg, trial, harness._CHANNEL, lambda rng, rows: tap_gains(profile, rng if fading else None, rows)
                )
                taps = from_taps(profile.tap_delays, gains, grid.n_subcarriers)
                assert np.array_equal(block.truth[j], residue_major(dft(taps), grid.n_pilots))
                assert np.array_equal(block.taps[j], taps[:width])

    def test_infinite_snr_is_noiseless(self):
        """snr = inf leaves H * X at every data cell and H at the pilot row."""
        cfg = tiny_config()
        rx, _ = receive(draw_block(cfg, 0, 1), math.inf)
        response, _ = reference_subframe(cfg, 0, math.inf)
        clean = residue_major(response * tx_grid(cfg), cfg.grid.n_pilots)
        clean[:, 0, :] *= np.conj(generate_pilots(cfg.master_seed, cfg.grid))
        assert np.allclose(rx[0], clean, rtol=1e-15, atol=0)

    def test_infinite_snr_pilot_ls_is_the_truth(self):
        """At snr = inf, ``simulate_subframe``'s pilot LS is exactly the true
        response at the pilots in every symbol, so the noise-only columns
        of the stacked CIR are exactly 0."""
        cfg = tiny_config()
        for trial in (0, 3, 300):
            pilot_ls, truth = simulate_subframe(cfg, math.inf, trial)
            assert np.array_equal(pilot_ls, np.broadcast_to(truth[0], pilot_ls.shape)), trial
            assert np.all(stack_pilot_cir(pilot_ls)[:, 1:] == 0.0), trial

    @pytest.mark.parametrize("snr_db", [12.0, math.inf])
    @pytest.mark.parametrize("trial", [1, 100, 2**32 + 1])
    def test_inspect_shows_the_trial_the_sweep_scored(self, trial, snr_db):
        """``simulate_subframe`` returns exactly the trial's row of the
        64-trial block the sweep draws it in, received at the same SNR: its
        pilot LS grid and truth."""
        cfg = tiny_config()
        grid = cfg.grid
        assert harness._block_trials(grid) == 64
        lo = trial - trial % 64
        block = draw_block(cfg, lo, lo + 64)
        _, pilot_ls = receive(block, snr_db)
        single_ls, truth = simulate_subframe(cfg, snr_db, trial)
        assert single_ls.shape == (grid.n_symbols, grid.n_pilots)
        assert truth.shape == (grid.pilot_spacing, grid.n_pilots)
        assert np.array_equal(single_ls, pilot_ls[trial - lo])
        assert np.array_equal(truth, block.truth[trial - lo])


class TestTrialStreams:
    """Trial t is row t % 256 of batch t // 256, whose streams are numpy's
    ``default_rng((seed, t // 256, purpose))``. These tests redraw trials from
    fresh streams with numpy alone, so they also catch a numpy release that
    changed SeedSequence, PCG64 or ``random``."""

    TRIALS = [0, 255, 256, 300, 2**32 + 3, 2**40 + 5]

    @pytest.mark.parametrize("seed", [12345, 2**32 + 1])
    def test_trials_are_rows_of_their_batch_streams(self, seed):
        """Each trial's gains and noise cells are row t % 256 of its batch's
        channel and noise streams, purposes 1 and 2 (purpose 0 is retired),
        drawn in one call, for trials at and past batch edges, past 2**32, and
        past 2**40, where the batch index takes two entropy words, under a
        one- and a two-word seed."""
        assert (harness._CHANNEL, harness._NOISE) == (1, 2)
        cfg = tiny_config(master_seed=seed)
        grid = cfg.grid
        profile = resolve_profile(cfg)
        powers = np.array(profile.tap_powers)
        for trial in self.TRIALS:
            gains = batch_row(
                cfg, trial, harness._CHANNEL, lambda rng, rows: box_muller(rng, (rows, len(powers)), powers)
            )
            cells = batch_row(cfg, trial, harness._NOISE, lambda rng, rows: unit_cells(rng, rows, grid))
            block = draw_block(cfg, trial, trial + 1)
            assert np.array_equal(block.taps[0, list(profile.tap_delays)], gains)
            assert np.array_equal(block.noise[0], cells), trial

    def test_blocks_are_clipped_at_batch_edges(self):
        """A 600-trial run of 56-trial blocks splits each batch into four
        blocks and a 32-trial rest, and its last, 88-trial batch into 56 + 32;
        each batch's two streams are made once and serve all its blocks."""
        grid = GridConfig(n_subcarriers=384, n_pilots=48, n_symbols=3, cp_len=30)
        cfg = tiny_config(grid=grid, subframes_per_point=600)
        assert harness._block_trials(cfg.grid) == 56
        blocks = list(sweep_blocks(cfg))
        assert [rows for _, rows in blocks] == [56, 56, 56, 56, 32] * 2 + [56, 32]
        streams = [s for s, _ in blocks]
        assert [len({id(s) for s in streams[i:j]}) for i, j in ((0, 5), (5, 10), (10, 12))] == [1, 1, 1]
        assert len({id(s) for s in streams}) == 3

    def test_inspect_of_a_large_trial_matches_the_reference(self, capsys):
        """``inspect --trial 4294967299`` prints the channel and pilot LS of
        row 3 of batch 16777216's default_rng streams."""
        trial, snr_db = 4294967299, 20.0
        assert main(["inspect", "--trial", str(trial), "--snr", "20", "--estimator", "ideal"]) == 0
        out = capsys.readouterr().out
        cfg = SimConfig()
        truth, rx = reference_subframe(cfg, trial, snr_db)
        rows = block_lines(out, "pilot-ls")[1:]
        printed = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
        # Printed one row per pilot n, one (re, im) pair per symbol m.
        pilot_ls = (printed[:, 0::2] + 1j * printed[:, 1::2]).T
        reference = extract_pilot_ls(rx, generate_pilots(cfg.master_seed, cfg.grid), cfg.grid)
        assert np.abs(pilot_ls - reference).max() <= 1e-9 * np.abs(reference).max()
        rows = block_lines(out, "estimate-vs-truth")[1:]
        printed = np.array([[float(x) for x in row.split(",")[3:]] for row in rows])
        assert np.abs(printed[:, 0] + 1j * printed[:, 1] - truth).max() <= 1e-11 * np.abs(truth).max()

    def test_sweep_at_a_large_seed_matches_the_reference(self, tmp_path):
        """``sweep --seed 4294967301`` counts the errors of the rows of batch
        0's default_rng streams equalized with the true channel, every data
        cell carrying bits (0, 0)."""
        seed, snr_db, n_trials = 4294967301, 3.0, 3
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--seed", str(seed), "--estimators", "ideal", "--snr", "3",
                "--subframes", str(n_trials), "--workers", "1", "--out", str(out)]
        assert main(argv) == 0
        (record,) = read_csv(out)
        cfg = SimConfig(master_seed=seed)
        errors = 0
        zeros = np.zeros(cfg.grid.data_bits_per_block, dtype=bool)
        for trial in range(n_trials):
            response, rx = reference_subframe(cfg, trial, snr_db)
            equalized = rx * np.conj(response)
            errors += qpsk_bit_errors(data_cells(equalized, cfg.grid), zeros)
        assert errors > 0
        assert (record.bit_errors, record.total_bits) == (errors, n_trials * cfg.grid.data_bits_per_block)


class Moments:
    """Running count, sum and sum of squares of real samples."""

    def __init__(self):
        self.n, self.total, self.squares = 0, 0.0, 0.0

    def add(self, values):
        values = np.ravel(values).astype(np.float64)
        self.n += values.size
        self.total += float(values.sum())
        self.squares += float(values @ values)

    def standard_errors_from(self, expected: float) -> float:
        mean = self.total / self.n
        return abs(mean - expected) / math.sqrt((self.squares / self.n - mean**2) / self.n)


class TestDrawLaw:
    """Over 4096 default-grid trials, drawn as the sweep draws them, every
    moment below lies within 5 standard errors of its law."""

    def test_moments_of_the_draws(self):
        cfg = SimConfig(subframes_per_point=4096)
        profile = resolve_profile(cfg)
        delays = list(profile.tap_delays)
        moments = {}

        def add(name, values):
            moments.setdefault(name, Moments()).add(values)

        def add_cells(name, w):
            """Unit CN(0, 1) cells: mean 0, E|W|² = 1, E[W²] = 0."""
            for part, values in (("re", w.real), ("im", w.imag)):
                add(f"{name} mean {part}", values)
            add(f"{name} |W|^2", np.abs(w) ** 2)
            add(f"{name} W^2 re", (w * w).real)
            add(f"{name} W^2 im", (w * w).imag)

        def add_neighbours(name, a, b):
            """Neighbouring cells are uncorrelated: E[a conj(b)] = 0."""
            product = a * np.conj(b)
            add(f"{name} re", product.real)
            add(f"{name} im", product.imag)

        for streams, rows in sweep_blocks(cfg):
            block = harness._draw_block(cfg, profile, streams, rows)
            data, pilot_row = block.noise[:, :, 1:, :], block.noise[:, :, 0, :]
            add_cells("data", data)
            add_cells("pilot", pilot_row)
            add_neighbours("data, next pilot column", data[..., 1:], data[..., :-1])
            add_neighbours("data, next residue row", data[..., 1:, :], data[..., :-1, :])
            add_neighbours("data, next symbol", data[:, 1:], data[:, :-1])
            add_neighbours("pilot, next column", pilot_row[..., 1:], pilot_row[..., :-1])
            add_neighbours("pilot, next symbol", pilot_row[:, 1:], pilot_row[:, :-1])
            for tap, delay in enumerate(delays):
                add(f"tap {tap} |g|^2", np.abs(block.taps[:, delay]) ** 2)
        expected = {f"tap {tap} |g|^2": power for tap, power in enumerate(profile.tap_powers)}
        expected.update({name: 1.0 for name in moments if name.endswith("|W|^2")})
        assert moments["data |W|^2"].n == 4096 * cfg.grid.n_symbols * cfg.grid.n_data
        errors = {name: m.standard_errors_from(expected.get(name, 0.0)) for name, m in moments.items()}
        assert max(errors.values()) < 5.0, errors


class TestFixedDataPoint:
    """Every data cell carries X0, the QPSK point for bits (0, 0): with Gray
    mapping and circularly symmetric noise, a cell's error count has the
    same law whatever point it carries. Every pilot LS cell is ``H + σW``:
    the noise ``W conj(p)`` of a unit-modulus pilot ``p`` divided out has
    the law of ``W``."""

    def test_turned_points_count_the_same_errors(self):
        """The points ``X0 j^k`` are the reference mapping's for bits 00, 10,
        11 and 01, and ``X0 j^k z`` decided against its bits makes exactly the
        errors of ``X0 z`` against zeros, for any ``z`` off the decision
        boundaries."""
        bits = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=bool)
        points = qpsk_modulate(bits)[:, 0]
        x0 = points[0]
        assert np.array_equal(points, x0 * np.array([1, 1j, -1, -1j]))
        rng = np.random.default_rng(20)
        z = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        assert np.all((x0 * z).view(np.float64) != 0.0)
        expected = qpsk_bit_errors(x0 * z, np.zeros(2 * z.size, dtype=bool))
        assert 0 < expected < 2 * z.size
        for point, pair in zip(points, bits):
            assert qpsk_bit_errors(point * z, np.tile(pair, z.size)) == expected

    def test_x0_is_phys_point_for_bits_00(self):
        """The sweep's data point is exactly the reference QPSK point for bits (0, 0),
        which makes no error when received as sent."""
        zeros = np.zeros(2, dtype=bool)
        assert harness._X0 == qpsk_modulate(zeros)[0]
        assert qpsk_bit_errors(np.array([harness._X0]), zeros) == 0

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    def test_random_data_counts_the_same_errors_in_law(self, snr_db):
        """On the same channels and noise, random data bits from a side
        stream make, per trial, errors whose mean differs from the sweep's
        fixed-point count by less than 4 standard errors of the paired
        differences, for the genie and the multi-symbol estimate."""
        assert_fixed_point_law(snr_db, ("ideal", "proposed"))

    @pytest.mark.parametrize("estimator_id", ["conv-perfect", "conv-inaccurate", "ls-only"])
    def test_per_symbol_estimates_count_the_same_errors_in_law(self, estimator_id):
        """The same holds at 20 dB for the per-symbol estimates, thresholded
        or not: they see only the pilots, so the data point cannot move them."""
        assert_fixed_point_law(20.0, (estimator_id,))

    @pytest.mark.parametrize("snr_db", [5.0, 25.0])
    def test_pilot_sequence_moves_nothing_in_law(self, snr_db):
        """The pilot LS noise of the reference pilots divided out, ``W conj(p)``,
        against the sweep's ``W``, on the same channels and data noise: the
        thresholding estimates' per-trial errors, MSE and σ̂² differ in mean
        by less than 4 standard errors of the paired differences."""
        assert_fixed_point_law(snr_db, ("conv-perfect", "conv-inaccurate", "proposed"), turn="pilots")


def assert_fixed_point_law(snr_db: float, estimators: tuple[str, ...], turn: str = "data"):
    """Over 4096 trials at ``snr_db``, ``sweep`` counts the errors of the
    fixed point equalized with each estimate. A second receive of the same
    channels and noise makes per-trial errors, MSE and σ̂² whose means differ
    from the sweep's by less than 4 standard errors of the paired
    differences. With ``turn="data"`` its data cells carry random bits from
    a side stream; with ``turn="pilots"`` its pilot LS noise is ``W
    conj(p)``, the noise of the reference pilots ``p`` divided out."""
    cfg = SimConfig(subframes_per_point=4096, snr_points_db=(snr_db,), estimators=estimators)
    profile, sigma2 = resolve_profile(cfg), noise_variance(snr_db)
    conj_pilots = np.conj(generate_pilots(cfg.master_seed, cfg.grid))
    side = np.random.default_rng(2001)
    fixed = {e: [] for e in estimators}
    differences = {e: [] for e in estimators}
    for streams, rows in sweep_blocks(cfg):
        block = harness._draw_block(cfg, profile, streams, rows)
        rx = np.empty_like(block.noise)
        pilot_ls = harness._receive(block, sigma2, rx)
        other = rx.copy()
        bits = np.zeros(rx[:, :, 1:, :].shape[:-1] + (2 * cfg.grid.n_pilots,), dtype=bool)
        if turn == "data":
            bits = side.integers(0, 2, bits.shape).astype(bool)
            other[:, :, 1:, :] = qpsk_modulate(bits) * block.truth[:, None, 1:, :]
            other[:, :, 1:, :] += math.sqrt(sigma2) * block.noise[:, :, 1:, :]
        else:
            other[:, :, 0, :] = block.truth[:, None, 0, :] + math.sqrt(sigma2) * block.noise[:, :, 0, :] * conj_pilots
        flat_bits = bits.reshape(rows, cfg.grid.n_symbols, -1)
        zeros = np.zeros_like(flat_bits[0])
        for e in estimators:
            h_data, mse, sigma2_hat = harness._estimate_cells(cfg, e, pilot_ls, block)
            other_h, other_mse, other_sigma2 = harness._estimate_cells(cfg, e, other[:, :, 0, :], block)
            decided = equalize(harness._flat(rx[:, :, 1:, :]), h_data)
            other_decided = equalize(harness._flat(other[:, :, 1:, :]), other_h)
            for j in range(rows):
                count = qpsk_bit_errors(decided[j], zeros)
                fixed[e].append(count)
                paired = [qpsk_bit_errors(other_decided[j], flat_bits[j]) - count, other_mse[j] - mse[j]]
                if sigma2_hat is not None:
                    paired.append(other_sigma2[j] - sigma2_hat[j])
                differences[e].append(paired)
    for record in sweep(cfg, workers=1):
        assert record.bit_errors == sum(fixed[record.estimator_id]), record.estimator_id
    for e, d in differences.items():
        d = np.array(d, dtype=np.float64)
        stderr = d.std(axis=0, ddof=1) / math.sqrt(len(d))
        assert np.all(np.abs(d.mean(axis=0)) <= 4.0 * stderr), (e, d.mean(axis=0) / stderr, sum(fixed[e]))


def reference_configs():
    """Small random grids, with M = 3, Np = N, cp_len = 0 and fading off among them."""
    rng = np.random.default_rng(2024)
    configs = [
        # Every cell a pilot, and a one-tap channel with no prefix at all.
        SimConfig(
            grid=GridConfig(n_subcarriers=16, n_pilots=16, n_symbols=3, cp_len=0),
            profile="single-tap", th_perfect=0, th_inaccurate=0, estimators=("ideal",),
        ),
        # ETU at 1.92 MHz spreads over 10 samples, exactly the prefix here.
        SimConfig(
            grid=GridConfig(n_subcarriers=64, n_pilots=16, n_symbols=2, cp_len=10),
            sample_rate_hz=1.92e6, th_perfect=0, th_inaccurate=0, estimators=("ideal",),
            fading=False,
        ),
        # No power of two: ETU at 5.76 MHz spreads over 29 samples.
        SimConfig(
            grid=GridConfig(n_subcarriers=384, n_pilots=48, n_symbols=3, cp_len=30),
            sample_rate_hz=5.76e6, th_perfect=0, th_inaccurate=0, estimators=("ideal",),
        ),
    ]
    for _ in range(6):
        n = int(2 ** rng.integers(4, 8))
        profile, sample_rate, spread = (
            ("single-tap", 7.68e6, 0) if rng.random() < 0.5 else ("etu", 1.92e6, 10)
        )
        grid = GridConfig(
            n_subcarriers=n,
            n_pilots=int(2 ** rng.integers(0, int(math.log2(n)) + 1)),
            n_symbols=int(rng.integers(1, 4)),
            cp_len=int(rng.integers(spread, spread + 5)),
        )
        configs.append(
            SimConfig(
                grid=grid, profile=profile, sample_rate_hz=sample_rate, th_perfect=0,
                th_inaccurate=0, estimators=("ideal",), fading=bool(rng.random() < 0.7),
                master_seed=int(rng.integers(1000)),
            )
        )
    return configs


class TestFrequencyDomainReceive:
    """The sweep's receive path against the time-domain reference model."""

    @pytest.mark.parametrize("config", reference_configs(), ids=lambda c: f"{c.grid}-{c.profile}")
    @pytest.mark.parametrize("snr_db", [7.0, math.inf])
    def test_matches_the_time_domain_chain(self, config, snr_db):
        """Data cells and pilot LS equal demodulate(channel(modulate(X)) + noise)."""
        grid = config.grid
        pilots = generate_pilots(config.master_seed, grid)
        trials = range(6)
        rx, pilot_ls = receive(draw_block(config, 0, 6), snr_db)
        for j, trial in enumerate(trials):
            _, reference = reference_subframe(config, trial, snr_db)
            scale = np.abs(reference).max()
            data_error = np.abs(rx[j, :, 1:, :] - residue_major(reference, grid.n_pilots)[:, 1:, :])
            assert data_error.max(initial=0.0) <= 1e-12 * scale
            pilot_error = np.abs(pilot_ls[j] - extract_pilot_ls(reference, pilots, grid))
            assert pilot_error.max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "config",
        [
            c for c in reference_configs()
            if c.grid.n_data and resolve_profile(c).delay_spread + 1 < c.grid.n_pilots
        ],
        ids=lambda c: f"{c.grid}-{c.profile}",
    )
    def test_no_bit_errors_at_300_db(self, config):
        """Every estimator that can recover the channel exactly decides every bit right.

        Grids need data cells and more pilots than the spread. Thresholds sit
        one sample past the spread; ``proposed`` needs two symbols, and the
        nearest-pilot fill is exact only on a flat channel.
        """
        spread = resolve_profile(config).delay_spread
        estimators = ["ideal", "conv-perfect", "conv-inaccurate"]
        if config.grid.n_symbols >= 2:
            estimators.append("proposed")
        if spread == 0:
            estimators.append("ls-only")
        cfg = replace(
            config, snr_points_db=(300.0,), subframes_per_point=6, estimators=tuple(estimators),
            th_perfect=spread + 1, th_inaccurate=spread + 1,
        )
        for record in sweep(cfg, workers=1):
            assert record.bit_errors == 0, f"{record.estimator_id}: {record.bit_errors} errors"

    def test_rejects_spread_beyond_prefix_before_drawing(self, monkeypatch):
        """An ETU profile over an 8-sample prefix fails before any draw."""
        def no_draws(*args):
            raise AssertionError("drew before checking the prefix")

        monkeypatch.setattr(harness, "_batch_streams", no_draws)
        cfg = tiny_config(grid=GridConfig(cp_len=8))
        for run in (lambda: sweep(cfg, workers=1), lambda: simulate_subframe(cfg, 10.0, 0)):
            with pytest.raises(ValueError, match=r"38 samples.*cp_len = 8"):
                run()

    def test_rejects_a_grid_without_data_cells(self):
        """With every subcarrier a pilot there are no bits to count."""
        cfg = tiny_config(grid=GridConfig(n_subcarriers=64, n_pilots=64), th_perfect=39)
        with pytest.raises(ValueError, match="no data subcarriers"):
            sweep(cfg, workers=1)


def one_trial(estimator_id, snr_db):
    """The record of one estimator on subframe 0 at one SNR point."""
    cfg = tiny_config(subframes_per_point=1, snr_points_db=(snr_db,), estimators=(estimator_id,))
    (record,) = sweep(cfg, workers=1)
    return record


class TestRunTrial:
    """Single-subframe outcomes, read through a one-subframe sweep."""

    def test_noiseless_estimators_are_error_free(self):
        """Exact-recovery estimators make no bit errors at 300 dB."""
        for estimator_id in ("ideal", "proposed", "conv-perfect"):
            record = one_trial(estimator_id, 300.0)
            assert record.bit_errors == 0, f"{estimator_id}: {record.bit_errors} errors"
            assert record.mean_mse <= 1e-18, f"{estimator_id}: mse {record.mean_mse}"

    def test_mse_is_the_full_grid_error(self):
        """Every estimator's mean_mse is the mean over subframes of its
        estimate's squared error over all N cells, whether the sweep takes it
        by Parseval or from the pilot row and data block; ideal's is 0."""
        cfg = tiny_config(subframes_per_point=3, snr_points_db=(15.0,), estimators=ESTIMATOR_IDS)
        for record in sweep(cfg, workers=1):
            errors = []
            for trial in range(3):
                pilot_ls, truth = simulate_subframe(cfg, 15.0, trial)
                est = ESTIMATORS[record.estimator_id].run(cfg, pilot_ls, truth)
                response, _ = reference_subframe(cfg, trial, 15.0)
                errors.append(estimator_mse(est.freq_response, response))
            assert record.mean_mse == pytest.approx(np.mean(errors), rel=1e-12), record.estimator_id

    @pytest.mark.parametrize("n_subcarriers, n_pilots", [(512, 64), (256, 16)])
    def test_ideal_mse_is_exactly_zero_in_every_trial(self, n_subcarriers, n_pilots):
        """``ideal``'s cells are the truth, so a block's per-trial MSE is
        exactly 0.0 at every SNR point, also over 16 pilots, where ETU's
        38-sample spread lies past Np."""
        cfg = tiny_config(
            grid=GridConfig(n_subcarriers=n_subcarriers, n_pilots=n_pilots),
            th_perfect=0, th_inaccurate=0, estimators=("ideal",),
        )
        streams = harness._batch_streams(cfg.master_seed, 0)
        partial = harness._sweep_block(cfg, resolve_profile(cfg), streams, 5)
        for snr_idx in range(len(cfg.snr_points_db)):
            _, mse, sigma2 = partial[snr_idx, "ideal"]
            assert mse.shape == (5,) and sigma2 is None
            assert np.all(mse == 0.0), mse

    def test_total_bits_bookkeeping(self):
        """Each subframe carries M * (N - Np) * 2 data bits."""
        record = one_trial("ideal", 10.0)
        grid = tiny_config().grid
        expected = grid.n_symbols * (grid.n_subcarriers - grid.n_pilots) * 2
        assert record.total_bits == expected, f"{record.total_bits} != {expected}"

    def test_rejects_unknown_estimator(self):
        """An unknown id fails before any simulation work."""
        with pytest.raises(ValueError, match="unknown estimator"):
            one_trial("secret", 10.0)

    def test_sigma2_presence_by_estimator(self):
        """Only the thresholding estimators report a noise estimate."""
        assert one_trial("ideal", 10.0).mean_sigma2_hat is None
        assert one_trial("ls-only", 10.0).mean_sigma2_hat is None
        assert one_trial("proposed", 10.0).mean_sigma2_hat > 0
        assert one_trial("conv-perfect", 10.0).mean_sigma2_hat > 0


def has_mallopt() -> bool:
    """Whether the process's C library has glibc's ``mallopt``."""
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def run_fresh(child: str, *args: str) -> str:
    """The stdout of ``python -c child *args`` run in a fresh interpreter on
    this checkout's package, which must exit 0."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", child, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def random_grid_config(seed: int) -> SimConfig:
    """A seeded random grid and trial count, all five estimators, two SNR points."""
    rng = np.random.default_rng(seed)
    n_pilots = 2 ** int(rng.integers(3, 7))
    grid = GridConfig(
        n_subcarriers=n_pilots * 2 ** int(rng.integers(1, 4)),
        n_pilots=n_pilots,
        n_symbols=int(rng.integers(2, 4)),
        cp_len=10,
    )
    return SimConfig(
        grid=grid, sample_rate_hz=1.92e6, snr_points_db=(5.0, 15.0),
        subframes_per_point=int(rng.integers(8, 20)), estimators=ESTIMATOR_IDS,
        master_seed=seed, th_perfect=n_pilots - 1, th_inaccurate=n_pilots // 2,
    )


class TestSweep:
    @staticmethod
    def _sweeps_by_block(monkeypatch, cfg, workers=1):
        """Records of ``cfg`` with blocks of 1, 3 and 7 trials, and at the
        default block size."""
        cell_bytes = 16 * cfg.grid.n_symbols * cfg.grid.n_subcarriers
        records = {"default": sweep(cfg, workers=workers)}
        for trials in (1, 3, 7):
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_BLOCK_BYTES", trials * cell_bytes)
                assert harness._block_trials(cfg.grid) == trials
                records[trials] = sweep(cfg, workers=workers)
        return records

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_size_does_not_move_any_record(self, monkeypatch, seed):
        """Blocks of 1, 3 or 7 trials give exactly the default records on
        seeded random grids with all five estimators: every trial draws from
        its own streams, every value summed is per trial, and every sum is
        exactly rounded."""
        cfg = random_grid_config(seed)
        records = self._sweeps_by_block(monkeypatch, cfg)
        for trials in (1, 3, 7):
            assert records[trials] == records["default"], f"blocks of {trials}"

    def test_means_are_exact_sums_of_one_trial_blocks(self):
        """Each record's ``mean_mse`` and ``mean_sigma2_hat`` is ``math.fsum``
        of the one-trial blocks' values divided by the trial count, exactly."""
        cfg = random_grid_config(0)
        n = cfg.subframes_per_point
        profile = resolve_profile(cfg)
        streams = harness._batch_streams(cfg.master_seed, 0)
        singles = [harness._sweep_block(cfg, profile, streams, 1) for _ in range(n)]
        for record in sweep(cfg, workers=1):
            key = cfg.snr_points_db.index(record.snr_db), record.estimator_id
            values = [single[key] for single in singles]
            label = f"{record.estimator_id}@{record.snr_db}"
            assert record.bit_errors == sum(v[0] for v in values), label
            assert record.mean_mse == math.fsum(float(v[1][0]) for v in values) / n, label
            if values[0][2] is None:
                assert record.mean_sigma2_hat is None, label
            else:
                expected = math.fsum(float(v[2][0]) for v in values) / n
                assert record.mean_sigma2_hat == expected, label

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_of_a_ragged_sweep(self, monkeypatch, workers):
        """A 300-trial sweep gives the same records with blocks of 1, 3 and 7
        trials as at the default size of 64, where its last block holds 44,
        serially and on two workers."""
        cfg = tiny_config(subframes_per_point=300, snr_points_db=(5.0, 15.0), estimators=ESTIMATOR_IDS)
        records = self._sweeps_by_block(monkeypatch, cfg, workers)
        for trials in (1, 3, 7):
            assert records[trials] == records["default"], f"blocks of {trials}"
        if workers == 2:
            assert records["default"] == sweep(cfg, workers=1)

    @pytest.mark.parametrize(
        "grid, sample_rate_hz, n_trials, block_trials, workers",
        [
            (GridConfig(n_subcarriers=384, n_pilots=48, n_symbols=3, cp_len=30), 5.76e6, n, (1, None, 227), (1, 2))
            for n in (300, 513)
        ]
        + [(GridConfig(), 7.68e6, n, (1, None, 256), (1, 2)) for n in (300, 513)]
        + [(GridConfig(n_subcarriers=64, n_pilots=16, n_symbols=2, cp_len=10), 1.92e6, 9 * 256 + 7, (7, None), (1, 2, 3))],
        ids=["300-384-48-3", "513-384-48-3", "300-default", "513-default", "2311-64-16"],
    )
    def test_no_partition_moves_a_byte(self, monkeypatch, tmp_path, grid, sample_rate_hz, n_trials, block_trials, workers):
        """Each block size (in trials: one, about 4 MiB, 7, and None for the
        default, 56 trials on 384/48/3, which do not divide a batch, 64 on the
        default grid and a whole batch on 64/16) on each worker count writes
        byte-identical CSVs for sweeps that end mid-batch. Ten batches on two
        workers go in chunks of two, on three in chunks of one."""
        cfg = SimConfig(
            grid=grid, sample_rate_hz=sample_rate_hz, snr_points_db=(10.0,), subframes_per_point=n_trials,
            estimators=ESTIMATOR_IDS, th_perfect=min(39, grid.n_pilots - 1), th_inaccurate=min(19, grid.n_pilots // 2),
        )
        one_trial = 16 * grid.n_symbols * grid.n_subcarriers
        texts = set()
        for trials in block_trials:
            for n_workers in workers:
                with monkeypatch.context() as patch:
                    if trials is not None:
                        patch.setattr(harness, "_BLOCK_BYTES", trials * one_trial)
                    path = tmp_path / f"{trials}-{n_workers}.csv"
                    write_csv(sweep(cfg, workers=n_workers), path)
                texts.add(path.read_bytes())
        assert len(texts) == 1

    def test_sweep_memory_stays_below_one_256_trial_grid(self):
        """A 256-trial sweep of the 2048-subcarrier grid peaks below 16 MiB of
        traced allocations, the size of a cell grid of all 256 trials: the
        trials are drawn and received a cache-sized block at a time."""
        grid = GridConfig(n_subcarriers=2048, n_pilots=256, n_symbols=2, cp_len=160)
        cfg = SimConfig(
            grid=grid, sample_rate_hz=30.72e6, snr_points_db=(10.0, 30.0),
            subframes_per_point=256, estimators=ESTIMATOR_IDS, th_perfect=155, th_inaccurate=77,
        )
        all_trials_grid = 256 * grid.n_symbols * grid.n_subcarriers * 16
        tracemalloc.start()
        try:
            sweep(cfg, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < all_trials_grid, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_does_not_grow_with_the_trial_count(self):
        """Each record keeps its running sums as a few floats, not its
        per-trial values: 2048 trials peak within 32 KiB of 256, where
        keeping each trial's MSE and σ̂² would add 16 bytes per trial and
        record (160 KiB here)."""
        peaks = {}
        for n in (256, 256, 2048):
            cfg = tiny_config(subframes_per_point=n, snr_points_db=(15.0,), estimators=ESTIMATOR_IDS)
            tracemalloc.start()
            try:
                sweep(cfg, workers=1)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] - peaks[256] < 32 * 1024, peaks

    def test_a_block_holds_one_estimate_at_a_time(self):
        """One block of the headline grid and estimators peaks below 6 cell
        grids of traced allocations. A block holds the unit noise cells and
        the received cells ``rx`` (a grid each), the clean cells and the truth
        (one symbol each, half a grid here), the equalized ``product`` of the
        data rows, and one estimate, freed before the next is built. Keeping
        the last estimate while building the next read 6.45 grids."""
        cfg = tiny_config(snr_points_db=(25.0, 27.5, 30.0))
        profile, rows = resolve_profile(cfg), harness._block_trials(cfg.grid)
        grid_bytes = rows * 16 * cfg.grid.n_symbols * cfg.grid.n_subcarriers
        # The first block also fills the estimators' cached tables.
        harness._sweep_block(cfg, profile, harness._batch_streams(cfg.master_seed, 0), rows)
        streams = harness._batch_streams(cfg.master_seed, 0)
        tracemalloc.start()
        try:
            harness._sweep_block(cfg, profile, streams, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * grid_bytes, f"peak {peak / grid_bytes:.2f} cell grids"

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_a_second_sweep_reuses_the_heap(self):
        """A sweep keeps its freed block arrays mapped, so a second 256-trial
        sweep in the same process takes under 100 minor page faults. With
        malloc's dynamic thresholds each block's freed arrays were trimmed and
        faulted back in by the next, about 7500 faults here."""
        child = (
            "import resource\n"
            "from ofdmce.harness import SimConfig, sweep\n"
            "config = SimConfig(snr_points_db=(20.0, 30.0), subframes_per_point=256)\n"
            "sweep(config, workers=1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "sweep(config, workers=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        faults = run_fresh(child)
        assert int(faults) < 100, f"{faults.strip()} minor faults"

    def test_one_trial_pins_the_heap(self):
        """``simulate_subframe``, which ``inspect`` runs, draws through the
        same block path as the sweep and so pins malloc's thresholds in a
        process that has swept nothing."""
        child = (
            "from ofdmce import harness\n"
            "harness.simulate_subframe(harness.SimConfig(), 20.0, 70)\n"
            "print(harness._keep_heap_mapped.cache_info().misses)\n"
        )
        assert int(run_fresh(child)) == 1

    def test_exact_terms_fold_to_fsum_of_everything(self):
        """Folding groups of values through ``_exact_terms`` keeps their exact
        sum: ``math.fsum`` of the terms is ``math.fsum`` of every value,
        however they are grouped. Keeping one rounded term instead fails at
        every group size here."""
        rng = np.random.default_rng(5)
        values = (rng.random(3000) * 10.0 ** rng.integers(-6, 1, 3000)).tolist()
        values[1000:1000] = [1e16, 1.0, -1e16]
        values += [1e300, 1.0, -1e300, 2.0**-1074]
        expected = math.fsum(values)
        for size in (1, 7, 500):
            terms = []
            for lo in range(0, len(values), size):
                terms = harness._exact_terms(terms + values[lo:lo + size])
            assert math.fsum(terms) == expected, f"groups of {size}"
        for special in (math.inf, math.nan):
            terms = harness._exact_terms(harness._exact_terms([1.0, special]) + [2.0])
            assert math.fsum(terms) == special or math.isnan(special) and math.isnan(math.fsum(terms))

    def test_three_symbol_blocks(self):
        """A block length that is not a power of two runs the stacked estimator.

        The stacked transform is Np * 3 = 192 points long. Noise-only samples
        keep sigma2 / (Np * M) of energy; at 100 dB nothing is decided wrongly.
        """
        grid = GridConfig(n_symbols=3)
        cfg = tiny_config(
            grid=grid, subframes_per_point=32, snr_points_db=(20.0, 100.0), estimators=("proposed",)
        )
        noisy, clean = sweep(cfg, workers=1)
        assert clean.bit_errors == 0, f"{clean.bit_errors} errors at 100 dB"
        target = 10.0 ** -2.0 / (grid.n_pilots * grid.n_symbols)
        ratio = noisy.mean_sigma2_hat / target
        assert 0.9 <= ratio <= 1.1, f"sigma2_hat {noisy.mean_sigma2_hat:.3e} vs {target:.3e}"

    def test_record_layout(self):
        """One record per (estimator, SNR), estimators outermost."""
        cfg = tiny_config(estimators=("ideal", "proposed"))
        records = sweep(cfg, workers=1)
        keys = [(r.estimator_id, r.snr_db) for r in records]
        assert keys == [
            ("ideal", 10.0),
            ("ideal", 20.0),
            ("proposed", 10.0),
            ("proposed", 20.0),
        ], f"unexpected layout {keys}"
        assert all(r.total_bits == 4 * cfg.grid.data_bits_per_block for r in records)

    def test_worker_count_does_not_change_bytes(self):
        """Exactly rounded sums make the CSV independent of parallelism."""
        cfg = tiny_config(subframes_per_point=300, snr_points_db=(12.0,))
        serial = sweep(cfg, workers=1)
        parallel = sweep(cfg, workers=2)
        assert serial == parallel, "records differ between worker counts"

    def test_pool_never_exceeds_the_batch_count(self, monkeypatch):
        """``workers=512`` on a two-batch sweep asks for a pool of two; a fake
        pool records the request and maps serially, so no process starts."""
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, batches, chunksize):
                return map(fn, batches)

        cfg = tiny_config(subframes_per_point=300, snr_points_db=(10.0,), estimators=("ideal",))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert sweep(cfg, workers=512) == sweep(cfg, workers=1)
        assert requested == [2]

    def test_only_a_pool_run_loads_the_pool(self, tmp_path):
        """A one-worker sweep and a one-batch sweep on two workers run in
        process: they import neither ``concurrent.futures.process`` nor
        ``multiprocessing`` and start no child process. A two-batch sweep on
        two workers then still starts its pool, forked so that its workers'
        page faults show in ``RUSAGE_CHILDREN``. Runs in a fresh interpreter,
        since this one has loaded the pool already."""
        child = (
            "import resource, sys\n"
            "from ofdmce.cli import main\n"
            "def run(subframes, workers):\n"
            "    assert main(['sweep', '--subframes', str(subframes), '--snr', '10', '--estimators', 'ideal',\n"
            "                 '--workers', str(workers), '--out', sys.argv[1]]) == 0\n"
            "    loaded = sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules)\n"
            "    print('run', subframes, workers, loaded, resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt > 0)\n"
            "run(300, 1)\n"
            "run(256, 2)\n"
            "import multiprocessing\n"
            "multiprocessing.set_start_method('fork')  # workers as this process's children, counted on exit\n"
            "run(300, 2)\n"
        )
        stdout = run_fresh(child, str(tmp_path / "out.csv"))
        runs = [ln for ln in stdout.splitlines() if ln.startswith("run ")]
        assert runs == [
            "run 300 1 [] False",
            "run 256 2 [] False",
            "run 300 2 ['concurrent.futures.process', 'multiprocessing'] True",
        ]

    def test_tasks_are_batches_in_chunks(self, monkeypatch):
        """Two workers on a 2311-trial sweep map over its ten batches (the
        last 7 trials long) in chunks of two, a quarter of the batches per
        worker rounded up, and give the records of one in-process run."""
        maps = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, batches, chunksize):
                maps.append((list(batches), chunksize))
                return map(fn, batches)

        cfg = tiny_config(
            grid=GridConfig(n_subcarriers=64, n_pilots=16, n_symbols=2, cp_len=10), sample_rate_hz=1.92e6,
            subframes_per_point=9 * 256 + 7, snr_points_db=(15.0,), estimators=("ideal", "proposed"),
            th_perfect=15, th_inaccurate=7,
        )
        serial = sweep(cfg, workers=1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert sweep(cfg, workers=2) == serial
        assert maps == [(list(range(10)), 2)]

    def test_rejects_bad_worker_count(self):
        """Zero workers is a usage error."""
        with pytest.raises(ValueError, match="workers"):
            sweep(tiny_config(), workers=0)

    def test_stderr_property(self):
        """Binomial standard error from the counted bits."""
        record = BerRecord("ideal", 10.0, 100, 25, 0.25, 0.0, None)
        assert record.ber_stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100), rel=1e-12)


def synthetic_curve(estimator_id, points, total_bits=10**6):
    return [
        BerRecord(estimator_id, snr, total_bits, int(round(ber * total_bits)), ber, 0.0, None)
        for snr, ber in points
    ]


class TestGapReport:
    def test_hand_interpolation(self):
        """Crossing 1e-3 between (10 dB, 1e-2) and (14 dB, 1e-4) lands at 12."""
        records = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        report = gap_report(records, (1e-3,))
        assert report.crossings[1e-3, "ideal"] == pytest.approx(12.0, abs=1e-9)

    def test_exact_point_hit(self):
        """A point exactly at the target is its own crossing."""
        records = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-3), (18.0, 1e-4)])
        report = gap_report(records, (1e-3,))
        assert report.crossings[1e-3, "ideal"] == 14.0

    def test_earlier_bracket_wins_over_later_exact_hit(self):
        """The first downward crossing counts, even if a later point sits exactly
        on the target (224 errors in 224 000 bits is exactly 1e-3)."""
        total = 224_000
        bers = [1e-2, 5e-4, 224 / total]
        assert bers[2] == 1e-3
        records = synthetic_curve("ideal", list(zip([0.0, 10.0, 20.0], bers)), total_bits=total)
        report = gap_report(records, (1e-3,))
        expected = 10.0 * (math.log10(1e-3) - math.log10(1e-2)) / (
            math.log10(5e-4) - math.log10(1e-2)
        )
        assert report.crossings[1e-3, "ideal"] == pytest.approx(expected, rel=1e-12)
        assert report.crossings[1e-3, "ideal"] == pytest.approx(7.686, abs=1e-3)

    def test_identical_curves_gap_zero(self):
        """Two estimators with the same curve have exactly zero gap."""
        points = [(10.0, 1e-2), (14.0, 1e-4)]
        records = synthetic_curve("ideal", points) + synthetic_curve("proposed", points)
        report = gap_report(records, (1e-3,))
        assert report.gap_db(1e-3, "proposed", "ideal") == 0.0

    def test_shifted_curve_gap(self):
        """A 2 dB right shift shows up as a 2 dB gap."""
        a = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        b = synthetic_curve("proposed", [(12.0, 1e-2), (16.0, 1e-4)])
        report = gap_report(a + b, (1e-3,))
        assert report.gap_db(1e-3, "proposed", "ideal") == pytest.approx(2.0, abs=1e-9)

    def test_floor_curve_never_crosses(self):
        """A curve stuck above the target reports None."""
        records = synthetic_curve("conv-inaccurate", [(10.0, 2e-2), (30.0, 1.5e-2)])
        report = gap_report(records, (1e-3,))
        assert report.crossings[1e-3, "conv-inaccurate"] is None
        both = records + synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        assert gap_report(both, (1e-3,)).gap_db(1e-3, "conv-inaccurate", "ideal") is None

    def test_zero_ber_endpoint_uses_half_error_floor(self):
        """A zero-error endpoint interpolates as half an error in its bits."""
        total = 10**6
        records = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 0.0)], total_bits=total)
        report = gap_report(records, (1e-3,))
        floor = 0.5 / total
        expected = 10.0 + 4.0 * (math.log10(1e-3) - math.log10(1e-2)) / (
            math.log10(floor) - math.log10(1e-2)
        )
        assert report.crossings[1e-3, "ideal"] == pytest.approx(expected, rel=1e-12)

    def test_pairs_ordering(self):
        """Pairs follow first-seen estimator order."""
        points = [(10.0, 1e-2), (14.0, 1e-4)]
        records = (
            synthetic_curve("ideal", points)
            + synthetic_curve("conv-perfect", points)
            + synthetic_curve("proposed", points)
        )
        report = gap_report(records, (1e-3,))
        names = [(a, b) for a, b, _ in report.pairs(1e-3)]
        assert names == [
            ("ideal", "conv-perfect"),
            ("ideal", "proposed"),
            ("conv-perfect", "proposed"),
        ], f"unexpected pair order {names}"

    @pytest.mark.parametrize("target", [0.0, -1e-3, math.nan, math.inf, -math.inf, 1.0, 1.5])
    def test_rejects_target_outside_unit_interval(self, target):
        """A target BER that is not finite or not inside (0, 1) is meaningless."""
        records = synthetic_curve("ideal", [(10.0, 1e-2)])
        with pytest.raises(ValueError, match=f"target BER .*got {target!r}"):
            gap_report(records, (1e-3, target))

    def test_rejects_a_repeated_target(self):
        """A target given twice would repeat its crossings and gaps under one key."""
        records = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        with pytest.raises(ValueError, match="target BER 0.001 is given twice"):
            gap_report(records, (1e-3, 1e-2, 1e-3))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("snr_db", math.nan, "SNR must be finite"),
            ("snr_db", math.inf, "SNR must be finite"),
            ("total_bits", 0, "total_bits must be positive"),
            ("ber", math.nan, "BER must lie in"),
            ("ber", -1e-3, "BER must lie in"),
            ("ber", 1.5, "BER must lie in"),
            ("bit_errors", -1, r"bit_errors must lie in \[0, 1000000\], got -1"),
            ("bit_errors", 10**6 + 1, r"bit_errors must lie in \[0, 1000000\], got 1000001"),
            ("ber", 0.9, r"BER 0.9 is not bit_errors / total_bits = 0.0001"),
            ("ber", 1e-4 * (1 + 1e-11), "BER .* is not bit_errors / total_bits"),
            ("ber", 0.0, r"BER 0.0 is not bit_errors / total_bits = 0.0001"),
        ],
    )
    def test_rejects_a_record_off_any_curve(self, field, value, message):
        """A record that cannot sit on a curve raises, naming its estimator and SNR."""
        records = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        records[1] = replace(records[1], **{field: value})
        snr = records[1].snr_db
        with pytest.raises(ValueError, match=f"record ideal at snr_db {re.escape(repr(snr))}: {message}"):
            gap_report(records, (1e-3,))

    def test_accepts_a_ber_within_rounding_of_its_counts(self):
        """A BER within 1e-12 relative of bit_errors / total_bits sits on its curve."""
        records = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        records[1] = replace(records[1], ber=1e-4 * (1 + 1e-13))
        assert gap_report(records, (1e-3,)).crossings[1e-3, "ideal"] == pytest.approx(12.0, abs=1e-9)

    def test_rejects_a_repeated_point(self):
        """A second record at the same (estimator, SNR) would fold two curves into one."""
        records = synthetic_curve("ideal", [(8.0, 2e-2), (10.0, 1e-2), (10.0, 1e-4)])
        records += synthetic_curve("proposed", [(10.0, 1e-2)])
        with pytest.raises(ValueError, match="record ideal at snr_db 10.0: a second record"):
            gap_report(records, (1e-3,))
        assert gap_report(records[:2] + records[3:], (1e-3,)).estimator_ids == ("ideal", "proposed")


class TestCsvRoundTrip:
    def test_records_survive_round_trip(self, tmp_path):
        """Every field, including None noise estimates, round-trips exactly."""
        cfg = tiny_config(subframes_per_point=2)
        records = sweep(cfg, workers=1)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_arbitrary_floats_round_trip(self, tmp_path):
        """Random float fields, signed zeros, subnormals and extremes survive bit for bit."""
        rng = np.random.default_rng(77)
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                   math.inf, -math.inf, 0.1, 1 / 3]

        def some_float():
            if rng.random() < 0.4:
                return special[rng.integers(len(special))]
            value = float(rng.integers(0, 2**64, dtype=np.uint64).view(np.float64))
            return value if math.isfinite(value) else some_float()

        for case in range(30):
            records = [
                BerRecord(
                    estimator_id=ESTIMATOR_IDS[rng.integers(len(ESTIMATOR_IDS))],
                    snr_db=some_float(),
                    total_bits=int(rng.integers(1, 2**62)),
                    bit_errors=int(rng.integers(0, 2**62)),
                    ber=some_float(),
                    mean_mse=some_float(),
                    mean_sigma2_hat=None if rng.random() < 0.3 else some_float(),
                )
                for _ in range(int(rng.integers(0, 6)))
            ]
            path = tmp_path / f"case{case}.csv"
            write_csv(records, path)
            back = read_csv(path)
            # repr tells -0.0 from 0.0, which == does not.
            assert [repr(r) for r in back] == [repr(r) for r in records]

    def test_line_count_and_header(self, tmp_path):
        """Header plus one line per record, comments on top."""
        cfg = tiny_config(subframes_per_point=2)
        records = sweep(cfg, workers=1)
        path = tmp_path / "out.csv"
        write_csv(records, path, header_comments=("run tag", "seed = 12345"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 1 + len(records), f"{len(lines)} lines"
        assert lines[0] == "# run tag" and lines[1] == "# seed = 12345"
        assert lines[2].startswith("estimator,snr_db,")

    def test_rejects_wrong_header(self, tmp_path):
        """A file without the expected schema is refused."""
        path = tmp_path / "bad.csv"
        path.write_text("snr,ber\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_gap_file_layout(self, tmp_path):
        """Gap files list crossings then pairwise gaps per target."""
        a = synthetic_curve("ideal", [(10.0, 1e-2), (14.0, 1e-4)])
        b = synthetic_curve("proposed", [(12.0, 1e-2), (16.0, 1e-4)])
        report = gap_report(a + b, (1e-3,))
        path = tmp_path / "gaps.csv"
        write_gaps(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "target_ber,kind,estimator_a,estimator_b,value_db"
        assert lines[1].startswith("0.001,crossing,ideal,,12.0")
        assert lines[3].startswith("0.001,gap,ideal,proposed,")
        assert len(lines) == 1 + 2 + 1, f"unexpected layout {lines}"

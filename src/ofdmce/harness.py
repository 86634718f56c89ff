"""Monte Carlo BER harness with paired random streams.

Every trial (subframe) owns three random substreams, exactly numpy's
``default_rng((master_seed, trial_index, purpose))`` with purposes bits /
channel / noise. They are seeded a block of trials at a time: one
vectorised pass of SeedSequence's hash gives the PCG64 state of every stream
of the block, and three reused generators take those states trial by trial.
The stream tests compare these states with ``default_rng``'s, so a numpy
release that changed SeedSequence or PCG64 fails them.

Estimator choice never touches the streams, so all estimators see identical
channels and noise (paired comparison), and results do not depend on how
trials are scheduled across workers: trials are processed in fixed-size
chunks whose boundaries depend only on the trial count, each chunk sums its
per-trial values once in trial order, partial sums are reduced in chunk
order, and the noise stream is drawn once per trial at unit variance and
scaled per SNR point. Repeated runs of the same configuration therefore
produce byte-identical CSV files at any worker count.

Trials are received in the frequency domain. While the delay spread fits
the cyclic prefix (checked before anything is drawn), the demodulated grid
of the time-domain chain ``ofdm_demodulate(apply_channel(ofdm_modulate(X))
+ sqrt(sigma2) * w)`` is exactly ``H * X + sqrt(sigma2) * W`` with
``W = ofdm_demodulate(w)``, the same in every symbol. A chunk is worked
through in cache-sized sub-blocks of trials (``_BLOCK_BYTES`` of cell grid
each): each sub-block's ``H * X`` and ``W`` are drawn once and run through
every SNR point, where each point only scales and adds them, while the
256-trial chunk stays the unit of scheduling and reduction. The cells are in
the layout of the truth and of every estimate: one residue grid ``(..., S,
Np)`` per OFDM symbol (``phy.residue_major``) whose row 0 holds the pilot
least-squares observations the estimators read, and rows ``1 .. S - 1`` the
data cells ``equalize`` decides on. The time-domain functions stay in the
library as the reference model the tests check this against.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    ChannelRealization,
    NoiseSpec,
    PowerDelayProfile,
    build_profile,
    complex_normal,
    load_profile,
    tap_gains,
)
from .estimators import (
    Estimate,
    cir_mse,
    conventional_estimate,
    equalize,
    estimator_mse,
    ls_nearest_estimate,
    multi_symbol_estimate,
)
from .phy import (
    GridConfig,
    build_grid,
    generate_pilots,
    ofdm_demodulate,
    qpsk_bit_errors,
    qpsk_modulate,
    residue_major,
)

__all__ = [
    "Estimator",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "SimConfig",
    "SubframeState",
    "BerRecord",
    "GapReport",
    "CSV_HEADER",
    "awgn_qpsk_ber",
    "resolve_profile",
    "simulate_subframe",
    "sweep",
    "gap_report",
    "write_csv",
    "read_csv",
    "write_gaps",
]

# Stream purposes; part of the reproducibility contract.
_BITS, _CHANNEL, _NOISE = 0, 1, 2

# Trials per processing chunk. Fixed so that chunk boundaries, and with
# them all floating-point reduction orders, are independent of the worker
# count. Changing this constant changes nothing statistically but shifts
# results in the last ulp, so treat it as part of the output contract.
_CHUNK = 256

# Bytes of one cell grid per trial sub-block. A chunk is drawn and received
# a sub-block at a time, so every SNR point re-reads grids of this size,
# which stay in cache, not chunk-sized ones (16 MiB on a 2048-point grid),
# which do not. Every value a sub-block yields is per trial, so its size
# moves no result.
_BLOCK_BYTES = 1 << 20

_DEFAULT_SNRS = tuple(float(s) for s in np.linspace(0.0, 30.0, 13))


# ---------------------------------------------------------------------------
# Estimator table
# ---------------------------------------------------------------------------


class Estimator(NamedTuple):
    """One table entry: the estimator function and what it needs."""

    run: Callable
    # Fewest OFDM symbols per block it works on.
    min_symbols: int
    # False if it never reads the pilots, so one evaluation per chunk serves
    # every SNR point.
    reads_pilots: bool = True


# Each run maps a config, a pilot least-squares grid ``ls`` (..., Np, M) and
# the true response in residue order (..., S, Np) (``phy.residue_major``) to
# an ``estimators.Estimate``.
ESTIMATORS = {
    "ideal": Estimator(
        lambda cfg, ls, h: Estimate(h[..., None, :, :]), 1, reads_pilots=False
    ),
    "conv-perfect": Estimator(
        lambda cfg, ls, _: conventional_estimate(ls, cfg.grid.n_subcarriers, cfg.th_perfect, cfg.c),
        1,
    ),
    "conv-inaccurate": Estimator(
        lambda cfg, ls, _: conventional_estimate(ls, cfg.grid.n_subcarriers, cfg.th_inaccurate, cfg.c),
        1,
    ),
    "proposed": Estimator(lambda cfg, ls, _: multi_symbol_estimate(ls, cfg.grid.n_subcarriers), 2),
    "ls-only": Estimator(lambda cfg, ls, _: ls_nearest_estimate(ls, cfg.grid.n_subcarriers), 1),
}

ESTIMATOR_IDS = tuple(ESTIMATORS)


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved sweep description; everything a run needs."""

    grid: GridConfig = GridConfig()
    profile: str = "etu"
    sample_rate_hz: float = 7.68e6
    snr_points_db: tuple[float, ...] = _DEFAULT_SNRS
    subframes_per_point: int = 10_000
    estimators: tuple[str, ...] = ("ideal", "conv-perfect", "conv-inaccurate", "proposed")
    master_seed: int = 12345
    c: float = 2.0
    th_perfect: int = 39
    th_inaccurate: int = 19
    fading: bool = True

    def __post_init__(self) -> None:
        if not self.snr_points_db:
            raise ValueError("need at least one SNR point")
        bad = [s for s in self.snr_points_db if not math.isfinite(s)]
        if bad:
            raise ValueError(f"snr_points_db must be finite, got {bad}")
        for snr_db in self.snr_points_db:
            NoiseSpec.from_snr_db(snr_db)
        if any(b <= a for a, b in zip(self.snr_points_db, self.snr_points_db[1:])):
            raise ValueError("SNR points must be strictly increasing")
        if self.subframes_per_point < 1:
            raise ValueError("subframes_per_point must be positive")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}; known ids are {ESTIMATOR_IDS}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimator list contains duplicates")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        for estimator_id in self.estimators:
            min_symbols = ESTIMATORS[estimator_id].min_symbols
            if self.grid.n_symbols < min_symbols:
                raise ValueError(
                    f"the {estimator_id} estimator needs at least {min_symbols} symbols per block"
                )
        for th in (self.th_perfect, self.th_inaccurate):
            if not 0 <= th <= self.grid.n_pilots - 1:
                raise ValueError(f"threshold {th} outside [0, {self.grid.n_pilots - 1}]")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be finite and positive, got {self.c}")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be finite and positive, got {self.sample_rate_hz}")


@dataclass(eq=False)
class SubframeState:
    """Everything observable about one simulated subframe (for inspection).

    ``rx_grid`` holds the data cells the sweep decides on; its pilot cells
    are ``pilot_ls`` times the pilots.
    """

    trial_index: int
    snr_db: float
    bits: np.ndarray
    pilots: np.ndarray
    tx_grid: np.ndarray
    rx_grid: np.ndarray
    pilot_ls: np.ndarray
    realization: ChannelRealization
    noise: NoiseSpec


def resolve_profile(config: SimConfig) -> PowerDelayProfile:
    """Map the config's profile string to a builtin name or a file path.

    Raises ValueError if the profile's delay spread exceeds the cyclic
    prefix, where the received grid would no longer be ``H * X`` plus noise.
    """
    from .channel import BUILTIN_PROFILES

    if config.profile.lower() in BUILTIN_PROFILES:
        profile = build_profile(config.profile, config.sample_rate_hz)
    else:
        profile = load_profile(config.profile, config.sample_rate_hz)
    if profile.delay_spread > config.grid.cp_len:
        raise ValueError(
            f"profile {profile.name} spreads over {profile.delay_spread} samples at "
            f"{config.sample_rate_hz!r} Hz, more than cp_len = {config.grid.cp_len}"
        )
    return profile


def awgn_qpsk_ber(snr_db: float) -> float:
    """Closed-form uncoded QPSK bit error rate over AWGN.

    ``snr_db`` is the per-sample SNR; unit-power QPSK puts half of it per
    bit, so this is Q(sqrt(2 Eb/N0)) with Eb/N0 = SNR/2.
    """
    eb_n0 = 10.0 ** (float(snr_db) / 10.0) / 2.0
    return 0.5 * math.erfc(math.sqrt(eb_n0))


# ---------------------------------------------------------------------------
# Chunked simulation engine
# ---------------------------------------------------------------------------


# numpy's SeedSequence hash over a pool of four 32-bit words, and PCG64's
# seeding step; NEP 19 fixes both for every numpy release.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _entropy_words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a nonnegative int, least significant first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's running hash of 32-bit words; each call moves the constant on."""

    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return step


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word."""
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> _XSHIFT)


def _stream_states(seed: int, trials) -> list[tuple[dict, ...]]:
    """The PCG64 states of ``np.random.default_rng((seed, trial, purpose))``
    for every trial, one per purpose, hashed in one pass over the chunk.

    Entropy shorter than the pool is hashed as if zero padded; every word
    past the pool (seeds or trials of 2**32 and up) is mixed into each pool
    word, but only in the rows that have it.
    """
    head = _entropy_words(int(seed))
    rows = [head + _entropy_words(int(trial)) for trial in trials]
    lengths = np.array([len(row) + 1 for row in rows])[:, None]
    entropy = np.zeros((len(rows), 3, max(_POOL, int(lengths.max()))), dtype=np.uint32)
    for j, row in enumerate(rows):
        entropy[j, :, : len(row)] = row
        entropy[j, :, len(row)] = (_BITS, _CHANNEL, _NOISE)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[..., i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[-1]):
        has_word = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(has_word, _mix(pool[dst], hashmix(entropy[..., src])), pool[dst])

    # generate_state(4, uint64): eight words cycled from the pool, paired little-endian.
    generate = _hasher(_INIT_B, _MULT_B)
    state = np.stack([generate(pool[i % _POOL]) for i in range(8)], axis=-1).astype("<u4", copy=False)
    words = state.view("<u8").reshape(len(rows), 3 * 4).tolist()

    # PCG64's seeding step, in Python ints because its state takes them.
    def pcg64(w0, w1, w2, w3):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        pcg = {"state": ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        return {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    return [(pcg64(*w[0:4]), pcg64(*w[4:8]), pcg64(*w[8:12])) for w in words]


def _bits_from_raw(raw: np.ndarray, n_bits: int) -> np.ndarray:
    """``integers(0, 2, n_bits)`` of each row's generator from its
    ``random_raw((n_bits + 1) // 2)`` outputs: the top bit of every 32-bit
    half, low half first."""
    return np.asarray(raw, dtype="<u8").view("<u4")[..., :n_bits] >= np.uint32(2**31)


@dataclass(eq=False)
class _ChunkState:
    """A sub-block's received cells in two parts, ``clean + sqrt(sigma2) *
    noise``, each ``(trials, M, S, Np)`` in residue order, and its true
    channel: the response ``(trials, S, Np)`` and its taps split at ``Np``.
    Row 0 holds the pilot least-squares parts, ``H p conj(p)`` and ``W
    conj(p)``, and rows ``1 .. S - 1`` the data cells, with ``bits`` in step.
    Drawn once, it serves every SNR point."""

    bits: np.ndarray
    gains: np.ndarray
    truth: np.ndarray
    true_head: np.ndarray
    tail_energy: np.ndarray
    clean: np.ndarray
    noise: np.ndarray


def _draw_chunk(
    config: SimConfig, profile: PowerDelayProfile, pilots: np.ndarray, trials: np.ndarray
) -> _ChunkState:
    """Draw bits, channel, and unit-variance noise for a block of trials.

    Returns them as the two parts of the received cells; the noise is
    demodulated here, once for every SNR point. Every draw is the trial's
    own, so a trial's values do not depend on the block it is drawn in.
    """
    grid = config.grid
    n_trials = len(trials)
    states = _stream_states(config.master_seed, trials)
    # Three generators, reseated for every trial.
    bits_gen, channel_gen, noise_gen = (np.random.PCG64(0) for _ in range(3))
    channel_rng = np.random.Generator(channel_gen) if config.fading else None
    noise_rng = np.random.Generator(noise_gen)
    # Bits first, so that their raw outputs are freed before the noise is drawn.
    raw = np.empty((n_trials, (grid.data_bits_per_block + 1) // 2), dtype="<u8")
    for j, trial_states in enumerate(states):
        bits_gen.state = trial_states[_BITS]
        raw[j] = bits_gen.random_raw(raw.shape[1])
    bits = _bits_from_raw(raw, grid.data_bits_per_block)
    del raw
    unit_noise = np.empty((n_trials, grid.samples_per_block), dtype=np.complex128)
    gains = np.empty((n_trials, len(profile.tap_delays)), dtype=np.complex128)
    for j, trial_states in enumerate(states):
        channel_gen.state = trial_states[_CHANNEL]
        noise_gen.state = trial_states[_NOISE]
        gains[j] = tap_gains(profile, channel_rng)
        unit_noise[j] = complex_normal(noise_rng, grid.samples_per_block, 1.0)
    realization = ChannelRealization.from_taps(
        np.array(profile.tap_delays), gains, grid.n_subcarriers
    )
    truth = np.ascontiguousarray(residue_major(realization.freq_response, grid.n_pilots))
    true_head, tail_energy = realization.split_taps(grid.n_pilots)
    del realization
    # Symbol-major pilots, (M, Np), in step with the grid's pilot row.
    row = np.swapaxes(pilots, -1, -2)
    demodulated = ofdm_demodulate(unit_noise, grid)
    del unit_noise
    noise = np.ascontiguousarray(residue_major(np.swapaxes(demodulated, -1, -2), grid.n_pilots))
    del demodulated
    noise[..., 0, :] *= np.conj(row)
    # Drawn symbol-major, a symbol's bit pairs are (Np, S - 1) cells; transpose them.
    drawn = bits.reshape((n_trials, grid.n_symbols, grid.n_pilots, grid.pilot_spacing - 1, 2))
    bits = np.swapaxes(drawn, 2, 3).reshape(n_trials, -1)
    clean = np.empty_like(noise)
    data = clean[..., 1:, :]
    np.multiply(qpsk_modulate(bits).reshape(data.shape), truth[:, None, 1:, :], out=data)
    clean[..., 0, :] = truth[:, None, 0, :] * row * np.conj(row)
    return _ChunkState(bits, gains, truth, true_head, tail_energy, clean, noise)


def _receive(state: _ChunkState, noise: NoiseSpec, rx: np.ndarray) -> np.ndarray:
    """Write the received cells at one SNR into ``rx`` and return the pilot
    least-squares grid, ``(trials, Np, M)``, a view of its pilot row."""
    np.multiply(state.noise, math.sqrt(noise.sigma2), out=rx)
    rx += state.clean
    return np.swapaxes(rx[..., 0, :], -1, -2)


def _flat(cells: np.ndarray) -> np.ndarray:
    return cells.reshape(cells.shape[:-2] + (-1,))


def _estimate_cells(config: SimConfig, estimator_id: str, pilot_ls, state: _ChunkState):
    """An estimate at the data cells, with the per-trial MSE and the
    per-trial mean σ̂² (or None) of the block.

    The MSE over all ``N`` cells is taken by Parseval where the estimate has
    an impulse response, else over the whole grid.
    """
    est = ESTIMATORS[estimator_id].run(config, pilot_ls, state.truth)
    if est.cleaned_cir is None:
        mse = estimator_mse(_flat(est.cells), _flat(state.truth))
    else:
        mse = cir_mse(est.cleaned_cir, state.true_head, state.tail_energy)
    sigma2 = None if est.sigma2_hat is None else np.mean(est.sigma2_hat, axis=-1)
    return _flat(est.cells[..., 1:, :]), mse, sigma2


def _chunk_bounds(n_trials: int) -> list[tuple[int, int]]:
    return [(start, min(start + _CHUNK, n_trials)) for start in range(0, n_trials, _CHUNK)]


def _block_trials(grid: GridConfig) -> int:
    """Trials per sub-block: as many complex128 cell grids as fit ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (16 * grid.n_symbols * grid.n_subcarriers))


def _sweep_block(config: SimConfig, profile: PowerDelayProfile, pilots: np.ndarray, trials):
    """Evaluate one sub-block at every SNR point: per (SNR index, estimator),
    its bit errors and its per-trial MSE and mean σ̂² (or None)."""
    state = _draw_chunk(config, profile, pilots, trials)
    bits = state.bits
    fixed = {
        estimator_id: _estimate_cells(config, estimator_id, None, state)
        for estimator_id in config.estimators
        if not ESTIMATORS[estimator_id].reads_pilots
    }
    # One received grid (its data rows a flat view) and one product buffer serve every SNR point.
    rx = np.empty_like(state.clean)
    rx_data = _flat(rx[..., 1:, :])
    product = np.empty(rx_data.shape, dtype=np.complex128)
    partial = {}
    for snr_idx, snr_db in enumerate(config.snr_points_db):
        pilot_ls = _receive(state, NoiseSpec.from_snr_db(snr_db), rx)
        for estimator_id in config.estimators:
            if estimator_id in fixed:
                h_data, mse, sigma2 = fixed[estimator_id]
            else:
                h_data, mse, sigma2 = _estimate_cells(config, estimator_id, pilot_ls, state)
            decided = equalize(rx_data, h_data, out=product).reshape(bits.shape[:-1] + (-1,))
            partial[snr_idx, estimator_id] = (qpsk_bit_errors(decided, bits), mse, sigma2)
    return partial


def _sweep_chunk(args):
    """Worker body: evaluate one trial chunk at every SNR point, a sub-block
    at a time, and sum each per-trial value once over the chunk in trial order."""
    config, profile, pilots, start, stop = args
    step = _block_trials(config.grid)
    blocks = [
        _sweep_block(config, profile, pilots, np.arange(lo, min(lo + step, stop)))
        for lo in range(start, stop, step)
    ]

    def total(key, field):
        parts = [block[key][field] for block in blocks]
        return None if parts[0] is None else float(np.concatenate(parts).sum())

    return {
        key: (sum(block[key][0] for block in blocks), total(key, 1), total(key, 2))
        for key in blocks[0]
    }


def simulate_subframe(config: SimConfig, snr_db: float, trial_index: int) -> SubframeState:
    """Run one subframe through the sweep's receive path and keep its products."""
    grid = config.grid
    profile = resolve_profile(config)
    pilots = generate_pilots(config.master_seed, grid)
    state = _draw_chunk(config, profile, pilots, np.array([trial_index]))
    noise = NoiseSpec.from_snr_db(snr_db)
    rx = np.empty_like(state.clean)
    pilot_ls = _receive(state, noise, rx)[0].copy()
    # The received pilot cells, then every cell in subcarrier order.
    rx[0, :, 0, :] *= np.swapaxes(pilots, 0, 1)
    rx_grid = np.swapaxes(rx[0], 1, 2).reshape(grid.n_symbols, -1).T
    # Back from the chunk's residue order to the symbol-major bits of phy.
    per_symbol = (grid.n_symbols, grid.pilot_spacing - 1, grid.n_pilots, 2)
    bits = np.swapaxes(state.bits[0].reshape(per_symbol), 1, 2).reshape(-1)
    single = ChannelRealization(
        np.array(profile.tap_delays, dtype=np.int64),
        state.gains[0],
        np.swapaxes(state.truth[0], 0, 1).reshape(-1),
    )
    return SubframeState(
        trial_index=trial_index,
        snr_db=float(snr_db),
        bits=bits,
        pilots=pilots,
        tx_grid=build_grid(qpsk_modulate(bits), pilots, grid),
        rx_grid=rx_grid,
        pilot_ls=pilot_ls,
        realization=single,
        noise=noise,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BerRecord:
    """Aggregated performance of one estimator at one SNR point."""

    estimator_id: str
    snr_db: float
    total_bits: int
    bit_errors: int
    ber: float
    mean_mse: float
    mean_sigma2_hat: float | None

    @property
    def ber_stderr(self) -> float:
        """Binomial standard error of the measured BER."""
        return math.sqrt(self.ber * (1.0 - self.ber) / self.total_bits)


def sweep(config: SimConfig, *, workers: int | None = None) -> list[BerRecord]:
    """Run the full (estimator x SNR) matrix of ``config``.

    ``workers`` caps process parallelism (default: machine parallelism);
    the output is byte-for-byte independent of it.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be positive")
    if config.grid.n_data == 0:
        raise ValueError(
            "the grid has no data subcarriers (n_pilots = n_subcarriers), so no bits to count"
        )
    profile = resolve_profile(config)
    pilots = generate_pilots(config.master_seed, config.grid)
    bounds = _chunk_bounds(config.subframes_per_point)
    tasks = [(config, profile, pilots, start, stop) for start, stop in bounds]
    # At most one process per chunk: the fork start method launches the
    # whole pool at the first submit.
    n_workers = min(workers or os.cpu_count() or 1, len(tasks))
    if n_workers == 1:
        partials = [_sweep_chunk(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(_sweep_chunk, tasks))

    n_trials = config.subframes_per_point
    total_bits = n_trials * config.grid.data_bits_per_block
    records = []
    for estimator_id in config.estimators:
        for snr_idx, snr_db in enumerate(config.snr_points_db):
            cells = [p[snr_idx, estimator_id] for p in partials]
            errors = sum(c[0] for c in cells)
            mean_mse = math.fsum(c[1] for c in cells) / n_trials
            sigma2 = None if cells[0][2] is None else math.fsum(c[2] for c in cells) / n_trials
            records.append(BerRecord(
                estimator_id, float(snr_db), total_bits, errors, errors / total_bits, mean_mse, sigma2
            ))
    return records


# ---------------------------------------------------------------------------
# Gap reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GapReport:
    """SNR positions of BER target crossings, per estimator and pairwise."""

    targets: tuple[float, ...]
    estimator_ids: tuple[str, ...]
    crossings: dict[tuple[float, str], float | None]

    def gap_db(self, target: float, a: str, b: str) -> float | None:
        """SNR(a) - SNR(b) at the target BER; None if either never crosses."""
        snr_a = self.crossings[target, a]
        snr_b = self.crossings[target, b]
        if snr_a is None or snr_b is None:
            return None
        return snr_a - snr_b

    def pairs(self, target: float):
        """All ordered pairs (a, b, gap_db) in configured estimator order."""
        out = []
        for i, a in enumerate(self.estimator_ids):
            for b in self.estimator_ids[i + 1 :]:
                out.append((a, b, self.gap_db(target, a, b)))
        return out


def _crossing_snr(snrs, bers, bit_totals, target: float) -> float | None:
    """First downward crossing of ``target``, interpolated in log10(BER).

    A zero-BER bracket endpoint is floored at half an error in its bit
    count so the interpolation stays finite; curves that never reach the
    target give None. Points are scanned in SNR order, so a point exactly at
    the target counts only if no earlier bracket crosses it.
    """
    for i, upper in enumerate(bers):
        if upper == target:
            return snrs[i]
        if i + 1 < len(bers) and upper > target > bers[i + 1]:
            floor = 0.5 / bit_totals[i + 1]
            span = math.log10(max(bers[i + 1], floor)) - math.log10(upper)
            frac = (math.log10(target) - math.log10(upper)) / span
            return snrs[i] + (snrs[i + 1] - snrs[i]) * frac
    return None


def gap_report(records: list[BerRecord], target_bers=(1e-3,)) -> GapReport:
    """Locate BER target crossings for every estimator curve in ``records``;
    a record that cannot sit on a curve raises ValueError naming it."""
    for target in target_bers:
        if not 0 < target < 1:
            raise ValueError(f"target BER must lie in (0, 1), got {target!r}")
    seen = set()
    for r in records:
        where = f"record {r.estimator_id} at snr_db {r.snr_db!r}"
        if not math.isfinite(r.snr_db):
            raise ValueError(f"{where}: SNR must be finite")
        if r.total_bits < 1:
            raise ValueError(f"{where}: total_bits must be positive, got {r.total_bits}")
        if not 0 <= r.ber <= 1:
            raise ValueError(f"{where}: BER must lie in [0, 1], got {r.ber!r}")
        if (r.estimator_id, r.snr_db) in seen:
            raise ValueError(f"{where}: a second record for the same point")
        seen.add((r.estimator_id, r.snr_db))
    order = list(dict.fromkeys(r.estimator_id for r in records))
    crossings: dict[tuple[float, str], float | None] = {}
    for estimator_id in order:
        curve = sorted(
            (r for r in records if r.estimator_id == estimator_id), key=lambda r: r.snr_db
        )
        snrs = [r.snr_db for r in curve]
        bers = [r.ber for r in curve]
        totals = [r.total_bits for r in curve]
        for target in target_bers:
            crossings[target, estimator_id] = _crossing_snr(snrs, bers, totals, target)
    return GapReport(tuple(target_bers), tuple(order), crossings)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

CSV_HEADER = "estimator,snr_db,total_bits,bit_errors,ber,mean_mse,mean_sigma2_hat"


def _fmt(value: float | None) -> str:
    """Shortest decimal that round-trips the float exactly; None prints nan."""
    if value is None:
        return "nan"
    return repr(float(value))


def write_csv(records: list[BerRecord], path: str | Path, header_comments=()) -> None:
    """Write sweep records, one row per (estimator, SNR) in record order."""
    lines = [f"# {comment}" for comment in header_comments]
    lines.append(CSV_HEADER)
    for r in records:
        lines.append(
            f"{r.estimator_id},{_fmt(r.snr_db)},{r.total_bits},{r.bit_errors},"
            f"{_fmt(r.ber)},{_fmt(r.mean_mse)},{_fmt(r.mean_sigma2_hat)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path: str | Path) -> list[BerRecord]:
    """Parse a file written by :func:`write_csv` back into records."""
    records = []
    lines = Path(path).read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing expected header {CSV_HEADER!r}")
    for ln in body[1:]:
        fields = ln.split(",")
        if len(fields) != 7:
            raise ValueError(f"{path}: malformed row {ln!r}")
        sigma2 = float(fields[6])
        records.append(
            BerRecord(
                estimator_id=fields[0],
                snr_db=float(fields[1]),
                total_bits=int(fields[2]),
                bit_errors=int(fields[3]),
                ber=float(fields[4]),
                mean_mse=float(fields[5]),
                mean_sigma2_hat=None if math.isnan(sigma2) else sigma2,
            )
        )
    return records


def write_gaps(report: GapReport, path: str | Path) -> None:
    """Write crossings and pairwise gaps; empty value means not reached."""
    lines = ["target_ber,kind,estimator_a,estimator_b,value_db"]
    for target in report.targets:
        for estimator_id in report.estimator_ids:
            snr = report.crossings[target, estimator_id]
            lines.append(f"{_fmt(target)},crossing,{estimator_id},,{'' if snr is None else _fmt(snr)}")
        for a, b, gap in report.pairs(target):
            lines.append(f"{_fmt(target)},gap,{a},{b},{'' if gap is None else _fmt(gap)}")
    Path(path).write_text("\n".join(lines) + "\n")

"""Monte Carlo BER harness with paired random streams.

Trials (subframes) come in batches of 256: trial ``t`` is row ``t % 256``
of batch ``t // 256``, which owns two random streams, exactly numpy's
``default_rng((master_seed, t // 256, purpose))`` with purposes 1 (channel)
and 2 (noise); purpose 0, once the data bits, is retired. Each stream is
drawn row by row in trial order by ``channel.complex_normal``, two
``random()`` uniforms per complex value, so a trial's values depend only on
the seed and its index, not on the block it is drawn in. A pool task is
one batch; ``sweep`` keeps every batch's partial, on either worker path,
and a sweep that starts no pool does not import one.

Estimator choice never touches the streams, so all estimators see identical
channels and noise (paired comparison). The noise is drawn once per trial
at unit variance and scaled per SNR point. Each record is an integer count
and exactly rounded sums of per-trial values, kept as a few floats
(``_exact_terms``) that one step, ``_fold``, merges over a batch's blocks
and then over the batches. Exact sums do not depend on order, so reruns at
any block size, task split or worker count give byte-identical CSV files.

Every data cell carries ``X0 = (1 + j) / sqrt(2)``, the Gray-mapped QPSK
point for bits (0, 0), and its errors are the negative parts of its
decision. This is exact in law: for ``X = X0 j^k`` the decision is
``j^k`` times that of ``X0`` under the noise ``W j^-k``, which is again
i.i.d. CN(0, 1), and a 90° turn keeps the Hamming distance of
Gray-labelled quadrants. The argument needs each cell to depend only on
its own symbol: no intercarrier interference. Nor is there a pilot
sequence: ``W conj(p)`` at a unit-modulus pilot ``p`` is again i.i.d.
CN(0, 1), so the pilot least-squares row is ``H + sqrt(sigma2) W``, exact
in law.

Trials are received in the frequency domain. While the delay spread fits
the cyclic prefix (checked before anything is drawn), the time-domain chain
(OFDM modulation of ``X``, the taps' filter, noise samples ``sqrt(sigma2) *
w`` and demodulation) gives exactly ``H * X + sqrt(sigma2) * W``, with
``W`` the demodulated ``w``, the same in every symbol. A unitary DFT of
i.i.d. CN(0, 1) samples is i.i.d. CN(0, 1), so the sweep draws ``W``
straight at the cells, exact in distribution, and no time-domain noise.
The sweep's unit of work is a cache-sized block of trials (``_BLOCK_BYTES``
of cell grid, clipped at batch edges): each block's clean cells (one grid
for all symbols) and ``W`` are drawn once and run through every SNR point.
The cells are in the layout of the truth and of every estimate: one residue
grid ``(..., S, Np)`` per OFDM symbol (``phy.residue_major``) whose row 0
holds the pilot least-squares observations, and rows ``1 .. S - 1`` the
data cells. Across the symbols the pilot rows are ``(..., M, Np)``,
symbol-major like every grid of the package, so the estimators read them
with no reorder. One step, ``_receive``, forms every received cell, at any
residues and with a leading axis of SNR points. What no SNR point changes is
done once: each estimator's impulse-response stage runs over the pilot rows
of a run of SNR points at once, ``(points, trials, M, Np)``, and keeps its
estimate's rows per point. Each point then only receives the data rows,
forms every estimate's conjugated cells there the same way and decides with
one multiply per cell. ``simulate_subframe`` draws a trial's batch the same
way, up to the trial, receives that trial's pilot row alone and returns it
and the truth as they are, so ``inspect`` shows what the sweep scored. Both
refuse an SNR below ``channel.SNR_FLOOR_DB``, and both draw through
``_blocks``, which pins glibc's malloc thresholds once per process. The
time-domain chain and its pilots are the tests' reference model, kept in
``tests/reference.py``; no command runs it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    BUILTIN_PROFILES,
    PowerDelayProfile,
    build_profile,
    complex_normal,
    from_taps,
    load_profile,
    noise_variance,
    tap_gains,
)
from .estimators import (
    Estimate,
    cir_mse,
    conj_cells,
    conventional_estimate,
    equalize,
    guard_zeros,
    ls_nearest_estimate,
    multi_symbol_estimate,
    nearest_error_terms,
)
from .phy import GridConfig, residue_major
from .spectral import dft

__all__ = [
    "Estimator",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "check_estimator_ids",
    "SimConfig",
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

# Trials per stream batch and the stream purposes; part of the
# reproducibility contract. Trial t is row t % _BATCH of batch t // _BATCH,
# whose streams are default_rng((master_seed, t // _BATCH, purpose)).
# Purpose 0, once the data bits, is retired.
_BATCH = 256
_CHANNEL, _NOISE = 1, 2

# The QPSK point of every data cell: the Gray-mapped point for bits (0, 0).
_X0 = (1 + 1j) / math.sqrt(2.0)

# Bytes of one cell grid per trial block, the sweep's unit of work. Every
# SNR point re-reads grids of this size, which stay in cache. Every stream
# is drawn row by row, every value a block yields is per trial and every sum
# is exactly rounded, so its size moves no result.
_BLOCK_BYTES = 1 << 20

_DEFAULT_SNRS = tuple(float(s) for s in np.linspace(0.0, 30.0, 13))


# ---------------------------------------------------------------------------
# Estimator table
# ---------------------------------------------------------------------------


class Estimator(NamedTuple):
    """One table entry: the estimator function and the fewest OFDM symbols
    per block it works on."""

    run: Callable
    min_symbols: int


# Each run maps a config, a pilot least-squares grid ``ls`` (..., M, Np) and
# the true response in residue order (..., S, Np) (``phy.residue_major``) to
# an ``estimators.Estimate``; ``ideal``'s reads neither the config nor ``ls``.
ESTIMATORS = {
    "ideal": Estimator(
        lambda cfg, ls, h: Estimate("cells", h[..., None, :, :], h.shape[-2] * h.shape[-1]), 1
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


def check_estimator_ids(ids: tuple[str, ...]) -> None:
    """Raise ValueError for an unknown or repeated estimator id."""
    unknown = [e for e in ids if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; known ids are {ESTIMATOR_IDS}")
    if len(set(ids)) != len(ids):
        raise ValueError("estimator list contains duplicates")


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
        noise_variance(min(self.snr_points_db))  # refuses a point below the SNR floor
        if any(b <= a for a, b in zip(self.snr_points_db, self.snr_points_db[1:])):
            raise ValueError("SNR points must be strictly increasing")
        if self.subframes_per_point < 1:
            raise ValueError("subframes_per_point must be positive")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        check_estimator_ids(self.estimators)
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
        if not self.profile:
            raise ValueError("profile must name a builtin profile or a profile file, got ''")


def resolve_profile(config: SimConfig) -> PowerDelayProfile:
    """Map the config's profile string to a builtin name or a file path.

    Raises ValueError if the profile's delay spread exceeds the cyclic
    prefix, where the received grid would no longer be ``H * X`` plus noise,
    or reaches ``n_subcarriers``, past the last tap a block's response has.
    """
    if config.profile.lower() in BUILTIN_PROFILES:
        profile = build_profile(config.profile, config.sample_rate_hz)
    else:
        profile = load_profile(config.profile, config.sample_rate_hz)
    spreads = f"profile {profile.name} spreads over {profile.delay_spread} samples at {config.sample_rate_hz!r} Hz"
    if profile.delay_spread > config.grid.cp_len:
        raise ValueError(f"{spreads}, more than cp_len = {config.grid.cp_len}")
    if profile.delay_spread >= config.grid.n_subcarriers:
        raise ValueError(f"{spreads}, not fewer than n_subcarriers = {config.grid.n_subcarriers}")
    return profile


def awgn_qpsk_ber(snr_db: float) -> float:
    """Closed-form uncoded QPSK bit error rate over AWGN.

    ``snr_db`` is the per-sample SNR; unit-power QPSK puts half of it per
    bit, so this is Q(sqrt(2 Eb/N0)) with Eb/N0 = SNR/2.
    """
    eb_n0 = 10.0 ** (float(snr_db) / 10.0) / 2.0
    return 0.5 * math.erfc(math.sqrt(eb_n0))


# ---------------------------------------------------------------------------
# Block simulation engine
# ---------------------------------------------------------------------------


def _batch_streams(seed: int, batch: int) -> list[np.random.Generator]:
    """The channel and noise streams of one batch of trials."""
    return [np.random.default_rng((seed, batch, purpose)) for purpose in (_CHANNEL, _NOISE)]


def _blocks(config: SimConfig, batch: int, stop: int):
    """Each block of batch ``batch``'s trials before trial ``stop``, as the
    batch's streams and its row count. The streams are made once and carried
    through every block, and the heap is pinned before the first is drawn."""
    _keep_heap_mapped()
    step = _block_trials(config.grid)
    streams = _batch_streams(config.master_seed, batch)
    lo = batch * _BATCH
    hi = min(lo + _BATCH, stop)
    for start in range(lo, hi, step):
        yield streams, min(step, hi - start)


@dataclass(eq=False)
class _Block:
    """A trial block's received cells in two parts, ``clean + sqrt(sigma2) *
    noise`` in residue order, and its true channel: the response ``(trials,
    S, Np)`` and the taps ``(trials, max(Np, spread + 1))``, every tap of the
    trial. ``noise`` is the unit cells, ``(trials, M, S, Np)``; ``clean`` is
    the same in every symbol, ``(trials, 1, S, Np)``: row 0 the pilot
    least-squares part, ``H`` itself, and rows ``1 .. S - 1`` the data cells,
    ``X0 H``. Drawn once, it serves every SNR point through ``_receive``."""

    truth: np.ndarray
    taps: np.ndarray
    clean: np.ndarray
    noise: np.ndarray

    @functools.cached_property
    def nearest_terms(self) -> tuple[np.ndarray, ...]:
        """``estimators.nearest_error_terms`` of the truth and the pilot rows'
        noise, which no SNR point moves."""
        return nearest_error_terms(self.truth, self.noise[..., 0, :])


def _draw_block(config: SimConfig, profile: PowerDelayProfile, streams, rows: int) -> _Block:
    """Draw the next ``rows`` trials of a batch from its ``streams``, each
    row by row: channel, and unit CN(0, 1) noise cells in residue order.
    Returns them as the two parts of the received cells, ``X0`` at every
    data cell."""
    grid = config.grid
    channel_rng, noise_rng = streams
    gains = tap_gains(profile, channel_rng if config.fading else None, rows)
    taps = from_taps(profile.tap_delays, gains, grid.n_subcarriers)
    truth = np.ascontiguousarray(residue_major(dft(taps), grid.n_pilots))
    taps = taps[:, : max(grid.n_pilots, profile.delay_spread + 1)].copy()
    noise = complex_normal(noise_rng, (rows, grid.n_symbols, grid.pilot_spacing, grid.n_pilots), 1.0)
    clean = truth[:, None].copy()
    clean[..., 1:, :] *= _X0
    return _Block(truth, taps, clean, noise)


def _receive(block: _Block, sigma2s, rows, out: np.ndarray | None = None) -> np.ndarray:
    """The received cells ``clean + sqrt(sigma2) * noise`` of the ``R``
    residues ``rows`` at each noise variance in ``sigma2s``, ``(points,
    trials, M, R, Np)``, written into ``out`` if given."""
    noise = block.noise[..., rows, :]
    if out is None:
        out = np.empty((len(sigma2s),) + noise.shape, dtype=np.complex128)
    np.multiply(noise, np.sqrt(sigma2s).reshape((-1,) + (1,) * noise.ndim), out=out)
    out += block.clean[..., rows, :]
    return out


def _flat(cells: np.ndarray) -> np.ndarray:
    return cells.reshape(cells.shape[:-2] + (-1,))


def _stages(config: SimConfig, block: _Block, sigma2s) -> dict:
    """Each estimator's work at a run of SNR points that no point repeats,
    done over all of them at once: its estimate, with its rows on a leading
    axis of points, and its per-trial MSE and mean σ̂² (or None), ``(points,
    trials)``, from inputs with that axis on them: ``ls-only``'s rows are the
    pilot rows ``_receive`` forms, ``ideal``'s the truth broadcast over it.

    The MSE over all ``N`` cells is taken by Parseval where the estimate has
    an impulse response, from the block's three sums (``_Block.nearest_terms``)
    for ``ls-only`` and is exactly 0 for ``ideal``, whose cells are the truth.
    """
    # A sweep of ideal alone forms no pilot rows.
    pilots = None if set(config.estimators) == {"ideal"} else _receive(block, sigma2s, slice(0, 1))[..., 0, :]
    truth = np.broadcast_to(block.truth, (len(sigma2s),) + block.truth.shape)
    stages = {}
    for estimator_id in config.estimators:
        est = ESTIMATORS[estimator_id].run(config, pilots, truth)
        if est.form == "cells":
            mse = np.zeros(truth.shape[:-2])
        elif est.form == "nearest":
            a, b, c = block.nearest_terms
            s = np.sqrt(sigma2s)[:, None]
            mse = (a + 2.0 * s * b + s * s * c) / (block.noise.shape[1] * config.grid.n_subcarriers)
        else:
            mse = cir_mse(est.cleaned_cir, block.taps)
        sigma2 = None if est.sigma2_hat is None else np.mean(est.sigma2_hat, axis=-1)
        stages[estimator_id] = est, mse, sigma2
    return stages


def _block_trials(grid: GridConfig) -> int:
    """Trials per block: as many complex128 cell grids as fit ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (16 * grid.n_symbols * grid.n_subcarriers))


def _snr_groups(config: SimConfig) -> list[range]:
    """The SNR indices in runs of at most ``S // 2``, so that the pilot rows
    of a run's points, ``(points, trials, M, Np)``, fill at most half a cell
    grid, and so does each stack of impulse responses made from them."""
    step = max(1, config.grid.pilot_spacing // 2)
    points = range(len(config.snr_points_db))
    return [points[i : i + step] for i in range(0, len(points), step)]


def _sweep_block(config: SimConfig, profile: PowerDelayProfile, streams, rows: int):
    """Draw the next ``rows`` trials of a batch and evaluate them at every SNR
    point: per (SNR index, estimator), the bit errors and the per-trial MSE and
    mean σ̂² (or None).

    Each estimator's per-block work runs once per run of SNR points
    (``_stages``), over all of them at once. Each point then only receives
    the data rows and, for every estimate alike, forms its zero-forcing
    weights there from its rows at the point (``conj_cells`` of the data
    rows, exact zeros made 1) and decides: every data cell carries ``X0``,
    so a cell's bit errors are the negative parts of ``rx`` times the
    weights, those that decide a bit 1.
    """
    block = _draw_block(config, profile, streams, rows)
    # One data-row receive buffer, flat, serves every SNR point.
    rx = np.empty(block.noise[..., 1:, :].shape, dtype=np.complex128)
    rx_data = _flat(rx)
    partial = {}
    for group in _snr_groups(config):
        sigma2s = [noise_variance(config.snr_points_db[i]) for i in group]
        stages = _stages(config, block, sigma2s)
        for j, snr_idx in enumerate(group):
            _receive(block, sigma2s[j : j + 1], slice(1, None), out=rx[None])
            for estimator_id, (est, mse, sigma2) in stages.items():
                weights = guard_zeros(_flat(conj_cells(est._replace(rows=est.rows[j]), 1)))
                errors = _bit_errors(rx_data, weights, last=estimator_id == config.estimators[-1])
                # Free the weights before the next are formed.
                del weights
                partial[snr_idx, estimator_id] = errors, mse[j], None if sigma2 is None else sigma2[j]
        del stages
    return partial


def _bit_errors(rx_data: np.ndarray, weights: np.ndarray, last: bool) -> int:
    """The bit errors of deciding ``rx_data * weights``, its negative parts.
    A point's ``last`` decision writes the product over the received cells,
    others into the weights if they have its shape, else into a new array."""
    if last:
        out = rx_data
    else:
        out = weights if weights.shape == rx_data.shape else None
    decided = equalize(rx_data, weights, out=out).view(np.float64)
    return np.count_nonzero(np.less(decided, 0.0))


@functools.cache
def _keep_heap_mapped() -> None:
    """Pin glibc's malloc thresholds once per process, so that each block
    reuses the heap pages the block before it freed, where glibc would trim
    them and the next block fault them in again; first hand back the free
    pages that imports left inside the heap. A no-op where the C library
    has no ``mallopt`` or ``malloc_trim``."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    malloc_trim(0)
    # M_MMAP_THRESHOLD (-3) at its 64-bit cap of 32 MiB and M_TRIM_THRESHOLD (-1)
    # at twice that: the values glibc's own dynamic rule moves toward.
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def _sweep_batch(config: SimConfig, profile: PowerDelayProfile, batch: int):
    """Worker body: batch ``batch``'s trials, a block at a time, folded
    (``_fold``) once per key over the batch's blocks."""
    partials = [
        _sweep_block(config, profile, streams, rows)
        for streams, rows in _blocks(config, batch, config.subframes_per_point)
    ]
    return {key: _fold([partial[key] for partial in partials]) for key in partials[0]}


def _fold(parts: list[tuple]) -> tuple:
    """One key's ``(bit errors, MSE values, σ̂² values or None)`` parts as one:
    the errors summed and each run of values as ``_exact_terms`` of them all."""
    errors, mse, sigma2 = zip(*parts)
    return (
        sum(errors), _exact_terms(np.concatenate(mse).tolist()),
        None if sigma2[0] is None else _exact_terms(np.concatenate(sigma2).tolist()),
    )


def _exact_terms(values: list[float]) -> list[float]:
    """Floats with the exact sum of ``values``, each the rounded remainder of the
    last (Shewchuk's expansion): ``math.fsum`` of them and more is exact."""
    terms = []
    while (term := math.fsum(values)) and math.isfinite(term):
        terms.append(term)
        values.append(-term)
    return terms + [term] if term else terms


def simulate_subframe(config: SimConfig, snr_db: float, trial_index: int):
    """One trial as the sweep scores it: its pilot least-squares grid ``(M,
    Np)`` and its true response in residue order ``(S, Np)``. Its batch is
    drawn a block at a time up to the block that ends with the trial, and
    only the trial's pilot row is received."""
    profile, sigma2 = resolve_profile(config), noise_variance(snr_db)
    for streams, rows in _blocks(config, trial_index // _BATCH, trial_index + 1):
        block = _draw_block(config, profile, streams, rows)
    trial = _Block(block.truth[-1:], block.taps[-1:], block.clean[-1:], block.noise[-1:])
    return _receive(trial, [sigma2], slice(0, 1))[0, 0, ..., 0, :], trial.truth[0]


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
    n_trials = config.subframes_per_point
    n_batches = -(-n_trials // _BATCH)
    # At most one process per batch (the fork start method launches the whole
    # pool at the first submit), and a few chunks of whole batches per worker.
    n_workers = min(workers or os.cpu_count() or 1, n_batches)
    task = functools.partial(_sweep_batch, config, profile)
    if n_workers == 1:
        partials = [task(batch) for batch in range(n_batches)]
    else:
        # Imported here: a sweep that starts no pool never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunksize = -(-n_batches // (4 * n_workers))
            partials = list(pool.map(task, range(n_batches), chunksize=chunksize))
    # Per (SNR index, estimator), folded over every batch; records go in this order.
    points = range(len(config.snr_points_db))
    totals = {(i, e): _fold([p[i, e] for p in partials]) for e in config.estimators for i in points}

    total_bits = n_trials * config.grid.data_bits_per_block
    return [
        BerRecord(
            e, float(config.snr_points_db[i]), total_bits, errors, errors / total_bits,
            math.fsum(mse) / n_trials, None if sigma2 is None else math.fsum(sigma2) / n_trials,
        )
        for (i, e), (errors, mse, sigma2) in totals.items()
    ]


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
    count, or at the target if that is lower, so the crossing is finite and
    inside its bracket. Curves that never reach the target give None. Points
    are scanned in SNR order, so a point exactly at the target counts only if
    no earlier bracket crosses it.
    """
    for i, upper in enumerate(bers):
        if upper == target:
            return snrs[i]
        if i + 1 < len(bers) and upper > target > bers[i + 1]:
            floor = min(0.5 / bit_totals[i + 1], target)
            span = math.log10(max(bers[i + 1], floor)) - math.log10(upper)
            frac = (math.log10(target) - math.log10(upper)) / span
            return snrs[i] + (snrs[i + 1] - snrs[i]) * frac
    return None


def gap_report(records: list[BerRecord], target_bers=(1e-3,)) -> GapReport:
    """Locate BER target crossings for every estimator curve in ``records``;
    a record that cannot sit on a curve, or a target given twice, raises
    ValueError naming it."""
    for i, target in enumerate(target_bers):
        if not 0 < target < 1:
            raise ValueError(f"target BER must lie in (0, 1), got {target!r}")
        if target in target_bers[:i]:
            raise ValueError(f"target BER {target!r} is given twice")
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
        if not 0 <= r.bit_errors <= r.total_bits:
            raise ValueError(f"{where}: bit_errors must lie in [0, {r.total_bits}], got {r.bit_errors}")
        share = r.bit_errors / r.total_bits
        if not math.isclose(r.ber, share, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(f"{where}: BER {r.ber!r} is not bit_errors / total_bits = {share!r}")
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
        try:
            estimator_id, snr_db, total_bits, bit_errors, ber, mse, sigma2 = ln.split(",")
            record = BerRecord(
                estimator_id, float(snr_db), int(total_bits), int(bit_errors), float(ber),
                float(mse), None if math.isnan(float(sigma2)) else float(sigma2),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {ln!r}") from exc
        records.append(record)
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

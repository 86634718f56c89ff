"""The time-domain QPSK/OFDM chain that the tests check the sweep against.

ofdmce receives in the frequency domain: the sweep draws ``H * X +
sqrt(sigma2) * W`` straight at the cells. This module is the chain that
receive stands in for, kept beside the tests as their reference model and
run by no command. It imports only ``GridConfig``, ``dft`` and ``idft`` from
the package, so it shares no code with the harness, estimator or channel
code it checks.

Its conventions, on top of the symbol-major grids and the pilot comb of
:mod:`ofdmce.phy` (:func:`pilot_indices`):

* OFDM modulation scales the inverse transform by ``sqrt(N)`` and
  demodulation by ``1 / sqrt(N)``, so the average time-sample power equals
  the average cell power and frequency-domain noise keeps the variance of
  the time-domain noise it came from. Each symbol's samples are its cyclic
  prefix, the last ``cp_len`` samples of its body, then the body; a
  block's symbols follow one another, ``samples_per_block`` samples in all.
* Data symbols flatten symbol-major: entry ``m * n_data + d`` of a flat
  data vector is the ``d``-th data subcarrier of OFDM symbol ``m``, which
  for ``d = p (S - 1) + r - 1`` is subcarrier ``p S + r``. Bits pair up as
  (real, imag) per QPSK symbol in the same order.
"""

from __future__ import annotations

import numpy as np

from ofdmce.phy import GridConfig
from ofdmce.spectral import dft, idft

_SQRT2 = np.sqrt(2.0)

# The four QPSK points indexed by 2 * b0 + b1.
_QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / _SQRT2


def pilot_indices(cfg: GridConfig) -> np.ndarray:
    return np.arange(0, cfg.n_subcarriers, cfg.pilot_spacing)


def samples_per_symbol(cfg: GridConfig) -> int:
    return cfg.n_subcarriers + cfg.cp_len


def samples_per_block(cfg: GridConfig) -> int:
    return cfg.n_symbols * samples_per_symbol(cfg)


def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Map bit pairs (b0, b1) to ((1 - 2 b0) + j (1 - 2 b1)) / sqrt(2).

    ``bits`` has an even last axis; output halves it. Gray mapping: b0
    selects the sign of the real part, b1 of the imaginary part. Any nonzero
    bit counts as 1.
    """
    arr = np.asarray(bits)
    if arr.shape[-1] % 2:
        raise ValueError(f"bit count must be even, got {arr.shape[-1]}")
    pairs = arr.astype(bool, copy=False).view(np.uint8)
    pairs = pairs.reshape(arr.shape[:-1] + (arr.shape[-1] // 2, 2))
    return _QPSK_POINTS[(pairs[..., 0] << 1) | pairs[..., 1]]


def qpsk_bit_errors(symbols: np.ndarray, bits: np.ndarray) -> int:
    """Count the hard-decision errors of QPSK symbols against the bits they carry.

    ``symbols`` is ``(..., K)`` and ``bits`` the ``(..., 2K)`` pairs that
    :func:`qpsk_modulate` maps onto them. A negative real (imaginary) part
    decides b0 (b1) = 1; a component exactly on the boundary (zero) decides
    0. Only the signs matter, so any positive scaling of the symbols counts
    the same errors.
    """
    s = np.ascontiguousarray(symbols, dtype=np.complex128)
    b = np.asarray(bits)
    if b.shape != s.shape[:-1] + (2 * s.shape[-1],):
        raise ValueError(f"bits {b.shape} do not pair up with symbols {s.shape}")
    # The float view interleaves (re, im) per symbol, as the bits do.
    return int(np.count_nonzero(np.less(s.view(np.float64), 0.0) != b))


def generate_pilots(seed: int, cfg: GridConfig) -> np.ndarray:
    """Deterministic unit-modulus QPSK pilot grid of shape (n_symbols, n_pilots),
    the transposed view of symbols drawn as (n_pilots, n_symbols)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(cfg.n_pilots, 2 * cfg.n_symbols))
    return qpsk_modulate(bits).T


def build_grid(data_symbols: np.ndarray, pilots: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Assemble a (..., M, N) resource grid from flat data symbols and (M, Np) pilots."""
    data = np.asarray(data_symbols)
    expected = cfg.n_symbols * cfg.n_data
    if data.shape[-1] != expected:
        raise ValueError(f"expected {expected} data symbols per block, got {data.shape[-1]}")
    # Symbol m as (Np, S): pilot p, then data cells p (S - 1) .. p (S - 1) + S - 2.
    shape = data.shape[:-1] + (cfg.n_symbols, cfg.n_pilots, cfg.pilot_spacing)
    cells = np.empty(shape, dtype=np.complex128)
    cells[..., 0] = pilots
    cells[..., 1:] = data.reshape(cells[..., 1:].shape)
    return cells.reshape(cells.shape[:-2] + (-1,))


def ofdm_modulate(grid: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Per-symbol scaled IDFT plus cyclic prefix, serialized to samples.

    Output shape is ``(..., n_symbols * (n_subcarriers + cp_len))``.
    """
    arr = np.asarray(grid)
    if arr.shape[-2:] != (cfg.n_symbols, cfg.n_subcarriers):
        raise ValueError(
            f"grid must end in shape ({cfg.n_symbols}, {cfg.n_subcarriers}), got {arr.shape[-2:]}"
        )
    body = idft(arr) * np.sqrt(cfg.n_subcarriers)
    body = np.concatenate([body[..., cfg.n_subcarriers - cfg.cp_len :], body], axis=-1)
    return body.reshape(body.shape[:-2] + (samples_per_block(cfg),))


def ofdm_demodulate(samples: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Strip cyclic prefixes and apply the scaled forward transform per
    symbol; output shape is ``(..., n_symbols, n_subcarriers)``."""
    arr = np.asarray(samples)
    if arr.shape[-1] != samples_per_block(cfg):
        raise ValueError(
            f"expected {samples_per_block(cfg)} samples per block, got {arr.shape[-1]}"
        )
    blocks = arr.reshape(arr.shape[:-1] + (cfg.n_symbols, samples_per_symbol(cfg)))
    body = blocks[..., cfg.cp_len :]
    freq = dft(body)
    freq /= np.sqrt(cfg.n_subcarriers)
    return freq


def extract_pilot_ls(rx_grid: np.ndarray, pilots: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Least-squares channel observation at the pilot cells.

    Pilots are unit modulus, so dividing by the pilot equals multiplying by
    its conjugate; returns shape ``(..., n_symbols, n_pilots)``.
    """
    return np.asarray(rx_grid)[..., pilot_indices(cfg)] * np.conj(pilots)


def apply_channel(
    samples: np.ndarray, tap_delays: np.ndarray, gains: np.ndarray, cp_len: int
) -> np.ndarray:
    """Convolve a sample stream with sample-spaced taps, gains ``(..., T)``.

    The stream starts from zero state and the output is truncated to the
    input length. Requires the delay spread, the largest delay, to fit
    inside the cyclic prefix, which is what makes the demodulated grid
    exactly ``H * X``.
    """
    delays = np.asarray(tap_delays, dtype=np.int64)
    if delays.max() > cp_len:
        raise ValueError(f"delay spread {delays.max()} exceeds cp_len {cp_len}")
    if delays.min() < 0:
        raise ValueError(f"tap delays must be nonnegative, got {delays.tolist()}")
    gains = np.asarray(gains, dtype=np.complex128)
    arr = np.asarray(samples, dtype=np.complex128)
    n_samples = arr.shape[-1]
    batch = np.broadcast_shapes(arr.shape[:-1], gains.shape[:-1])
    out = np.zeros(batch + (n_samples,), dtype=np.complex128)
    for t, delay in enumerate(delays.tolist()):
        gain = gains[..., t : t + 1]
        if delay:
            out[..., delay:] += gain * arr[..., : n_samples - delay]
        else:
            out += gain * arr
    return out

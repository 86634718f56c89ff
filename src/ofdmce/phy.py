"""QPSK/OFDM baseband signal chain on a comb-pilot resource grid.

Conventions used throughout the package:

* Resource grids are complex arrays of shape ``(..., M, N)``, and pilot
  grids ``(..., M, Np)``: OFDM symbol index first, subcarrier or pilot
  index last, optional leading batch axes.
* Pilot cells occupy every ``pilot_spacing``-th subcarrier (including
  subcarrier 0) on every symbol; all remaining cells carry data.
* OFDM modulation scales the inverse transform by ``sqrt(N)`` and
  demodulation by ``1 / sqrt(N)``, so the average time-sample power equals
  the average cell power and frequency-domain noise keeps the variance of
  the time-domain noise it came from.
* Data symbols flatten symbol-major: entry ``m * n_data + d`` of a flat
  data vector is the ``d``-th data subcarrier of OFDM symbol ``m``, which
  for ``d = p (S - 1) + r - 1`` is subcarrier ``p S + r``. Bits pair up as
  (real, imag) per QPSK symbol in the same order.
* Inside the sweep every cell is in residue order instead, that of the
  channel estimates: a symbol's cells are one ``(S, Np)`` grid, entry
  ``[r, p]`` subcarrier ``p S + r`` (:func:`residue_major`), row 0 the
  pilots, rows ``1 .. S - 1`` the data cells. These carry no drawn bits:
  each holds the point for bits (0, 0), and row 0 holds least-squares
  values with no pilot sequence (:func:`generate_pilots` is not called).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import dft, idft

__all__ = [
    "GridConfig",
    "generate_pilots",
    "qpsk_modulate",
    "qpsk_bit_errors",
    "build_grid",
    "ofdm_modulate",
    "ofdm_demodulate",
    "extract_pilot_ls",
    "residue_major",
]

_SQRT2 = np.sqrt(2.0)

# The four QPSK points indexed by 2 * b0 + b1.
_QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / _SQRT2


@dataclass(frozen=True)
class GridConfig:
    """Dimensions of one estimation block of the resource grid.

    ``n_symbols`` is the number of OFDM symbols the block spans; the
    multi-symbol estimator forms one channel estimate per block.
    """

    n_subcarriers: int = 512
    n_pilots: int = 64
    n_symbols: int = 2
    cp_len: int = 40

    def __post_init__(self) -> None:
        if self.n_pilots < 1:
            raise ValueError(f"n_pilots must be at least 1, got {self.n_pilots}")
        if self.n_pilots > self.n_subcarriers:
            raise ValueError("n_pilots cannot exceed n_subcarriers")
        if self.n_subcarriers % self.n_pilots:
            raise ValueError(f"n_pilots {self.n_pilots} must divide n_subcarriers {self.n_subcarriers}")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be at least 1, got {self.n_symbols}")
        if not 0 <= self.cp_len <= self.n_subcarriers:
            raise ValueError(f"cp_len must lie in [0, n_subcarriers], got {self.cp_len}")

    @property
    def pilot_spacing(self) -> int:
        return self.n_subcarriers // self.n_pilots

    @property
    def pilot_indices(self) -> np.ndarray:
        return np.arange(0, self.n_subcarriers, self.pilot_spacing)

    @property
    def n_data(self) -> int:
        """Data subcarriers per OFDM symbol."""
        return self.n_subcarriers - self.n_pilots

    @property
    def samples_per_symbol(self) -> int:
        return self.n_subcarriers + self.cp_len

    @property
    def samples_per_block(self) -> int:
        return self.n_symbols * self.samples_per_symbol

    @property
    def data_bits_per_block(self) -> int:
        """QPSK data bits carried by one block."""
        return 2 * self.n_symbols * self.n_data


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
    return body.reshape(body.shape[:-2] + (cfg.samples_per_block,))


def ofdm_demodulate(samples: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Strip cyclic prefixes and apply the scaled forward transform per
    symbol; output shape is ``(..., n_symbols, n_subcarriers)``."""
    arr = np.asarray(samples)
    if arr.shape[-1] != cfg.samples_per_block:
        raise ValueError(
            f"expected {cfg.samples_per_block} samples per block, got {arr.shape[-1]}"
        )
    blocks = arr.reshape(arr.shape[:-1] + (cfg.n_symbols, cfg.samples_per_symbol))
    body = blocks[..., cfg.cp_len :]
    freq = dft(body)
    freq /= np.sqrt(cfg.n_subcarriers)
    return freq


def residue_major(cells: np.ndarray, n_pilots: int) -> np.ndarray:
    """View cells in subcarrier order, ``(..., N)``, as ``(..., S, Np)`` whose
    entry ``[r, p]`` is subcarrier ``p S + r``: row 0 the pilots, then data."""
    arr = np.asarray(cells)
    return np.swapaxes(arr.reshape(arr.shape[:-1] + (n_pilots, -1)), -1, -2)


def extract_pilot_ls(rx_grid: np.ndarray, pilots: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Least-squares channel observation at the pilot cells.

    Pilots are unit modulus, so dividing by the pilot equals multiplying by
    its conjugate; returns shape ``(..., n_symbols, n_pilots)``.
    """
    return np.asarray(rx_grid)[..., cfg.pilot_indices] * np.conj(pilots)

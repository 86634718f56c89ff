"""DFT-based channel estimation from comb-type pilot observations.

Three estimator families share the pilot least-squares front end:

* ``ideal_estimate`` returns the true frequency response (genie bound).
* ``conventional_estimate`` works one OFDM symbol at a time: it transforms
  the pilot observations to a length-``Np`` impulse response, reads the
  noise level off the samples beyond a caller-supplied delay-spread
  threshold, zeroes that region, zeroes any remaining sample whose energy
  falls below ``c`` times the noise estimate, and transforms back at the
  full grid length. Its quality therefore hinges on how well the threshold
  matches the actual delay spread.
* ``multi_symbol_estimate`` stacks the pilot columns of all ``M`` symbols
  of a block into one vector before the inverse transform. For a channel
  that holds still over the block the stacked spectrum is periodic, so the
  impulse response interleaves: channel energy lands only on indices
  divisible by ``M`` while the other ``Np (M - 1)`` samples are pure noise.
  That yields a noise-variance estimate from far more samples than the
  conventional tail, needs no prior delay-spread knowledge, and one
  estimate serves the whole block.

All estimators are pure functions of their inputs and accept leading batch
axes on the pilot arrays. ``equalize`` and ``estimator_mse`` take
symbol-major estimates of shape ``(..., M', N)`` (``equalize`` only their
data cells): ``M' = 1`` for one response per block, ``M' = M`` for one per
OFDM symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelRealization
from .spectral import dft, idft

__all__ = [
    "NoiseEstimate",
    "ConventionalParams",
    "StackedCir",
    "ChannelEstimate",
    "ideal_estimate",
    "ls_nearest_estimate",
    "conventional_noise_var",
    "conventional_estimate",
    "stack_pilot_cir",
    "multi_symbol_noise_var",
    "multi_symbol_estimate",
    "equalize",
    "estimator_mse",
]


@dataclass(eq=False)
class NoiseEstimate:
    """Estimated per-CIR-sample noise variance and the sample count behind it."""

    sigma2_hat: float | np.ndarray
    sample_count: int


@dataclass(frozen=True)
class ConventionalParams:
    """Delay-spread threshold (in CIR samples) and denoising constant."""

    threshold: int
    c: float = 2.0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be finite and positive, got {self.c}")


@dataclass(eq=False)
class StackedCir:
    """Inverse transform of the symbol-stacked pilot observations.

    ``samples[..., n * n_symbols + v]`` is entry ``(n, v)`` of the matrix
    view. Column 0 holds the (decimated) channel impulse response; columns
    1 .. M-1 hold only noise when the channel is block constant.
    """

    samples: np.ndarray
    n_pilots: int
    n_symbols: int

    @property
    def matrix(self) -> np.ndarray:
        shape = self.samples.shape[:-1] + (self.n_pilots, self.n_symbols)
        return self.samples.reshape(shape)

    @property
    def channel_column(self) -> np.ndarray:
        return self.matrix[..., 0]

    @property
    def noise_block(self) -> np.ndarray:
        """Columns 1 .. M-1 concatenated, shape (..., n_pilots * (M - 1))."""
        tail = np.swapaxes(self.matrix[..., 1:], -1, -2)
        return tail.reshape(tail.shape[:-2] + (-1,))


@dataclass(eq=False)
class ChannelEstimate:
    """Full-grid frequency response, the noise estimate that shaped it, and
    the denoised impulse response it was transformed from."""

    freq_response: np.ndarray
    noise: NoiseEstimate | None = None
    cleaned_cir: np.ndarray | None = None


def ideal_estimate(realization: ChannelRealization) -> ChannelEstimate:
    """Genie bound: hand back the true frequency response."""
    return ChannelEstimate(realization.freq_response.copy())


@lru_cache(maxsize=None)
def _nearest_pilot(n_subcarriers: int, n_pilots: int) -> np.ndarray:
    spacing = n_subcarriers // n_pilots
    k = np.arange(n_subcarriers)
    # Cyclically nearest pilot; exact midpoints round up to the next pilot.
    idx = ((k + spacing // 2) // spacing) % n_pilots
    idx.setflags(write=False)
    return idx


def ls_nearest_estimate(pilot_col: np.ndarray, n_subcarriers: int) -> ChannelEstimate:
    """Diagnostic baseline: copy each subcarrier's nearest pilot observation."""
    col = np.asarray(pilot_col)
    nearest = _nearest_pilot(n_subcarriers, col.shape[-1])
    return ChannelEstimate(col[..., nearest])


def conventional_noise_var(cir: np.ndarray, threshold: int) -> NoiseEstimate:
    """Mean energy of the CIR samples at and beyond the delay-spread threshold."""
    arr = np.asarray(cir)
    n_pilots = arr.shape[-1]
    if not 0 <= threshold <= n_pilots - 1:
        raise ValueError(
            f"threshold must lie in [0, {n_pilots - 1}] to leave noise samples, got {threshold}"
        )
    tail = arr[..., threshold:]
    sigma2_hat = np.mean(np.abs(tail) ** 2, axis=-1)
    return NoiseEstimate(sigma2_hat, n_pilots - threshold)


def conventional_estimate(
    pilot_col: np.ndarray, params: ConventionalParams, n_subcarriers: int
) -> ChannelEstimate:
    """Per-symbol DFT estimate with threshold-based CIR denoising.

    Pipeline: inverse transform of one pilot LS column, noise read-off
    beyond ``params.threshold``, hard zeroing of that region, zeroing of
    below-threshold leading samples (strictly below ``c * sigma2_hat``),
    zero padding to ``n_subcarriers``, forward transform.
    """
    cir = idft(np.asarray(pilot_col, dtype=np.complex128))
    noise = conventional_noise_var(cir, params.threshold)
    sigma2 = np.asarray(noise.sigma2_hat)
    head = cir[..., : params.threshold]
    keep = np.abs(head) ** 2 >= params.c * sigma2[..., None]
    cleaned = np.zeros_like(cir)
    cleaned[..., : params.threshold] = np.where(keep, head, 0.0)
    return ChannelEstimate(_padded_dft(cleaned, n_subcarriers), noise, cleaned)


def _padded_dft(cleaned: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Forward transform of a length-``Np`` impulse response zero padded to the grid."""
    n_pilots = cleaned.shape[-1]
    if n_subcarriers < n_pilots:
        raise ValueError("n_subcarriers must be at least the pilot count")
    padded = np.zeros(cleaned.shape[:-1] + (n_subcarriers,), dtype=np.complex128)
    padded[..., :n_pilots] = cleaned
    return dft(padded)


def stack_pilot_cir(pilots: np.ndarray) -> StackedCir:
    """Inverse transform of the pilot columns stacked into one vector.

    Stacking order is symbol after symbol, so a block-constant channel
    makes the stacked spectrum periodic with period ``n_pilots``.
    """
    grid = np.asarray(pilots, dtype=np.complex128)
    if grid.ndim < 2:
        raise ValueError("pilots must have shape (..., n_pilots, n_symbols)")
    n_pilots, n_symbols = grid.shape[-2], grid.shape[-1]
    if n_symbols < 2:
        raise ValueError("multi-symbol estimation needs at least 2 OFDM symbols per block")
    stacked = np.swapaxes(grid, -1, -2).reshape(grid.shape[:-2] + (n_pilots * n_symbols,))
    return StackedCir(idft(stacked), n_pilots, n_symbols)


def multi_symbol_noise_var(cir: StackedCir) -> NoiseEstimate:
    """Mean energy of the noise-only interleave positions."""
    block = cir.noise_block
    sigma2_hat = np.mean(np.abs(block) ** 2, axis=-1)
    return NoiseEstimate(sigma2_hat, cir.n_pilots * (cir.n_symbols - 1))


def multi_symbol_estimate(pilots: np.ndarray, n_subcarriers: int) -> ChannelEstimate:
    """Block estimate from all pilot symbols with self-calibrated denoising.

    Channel-position CIR samples are kept unless their energy falls
    strictly below the noise estimate (samples exactly at the estimate
    survive); the kept samples are compacted, zero padded, and forward
    transformed. One estimate serves every symbol of the block.
    """
    cir = stack_pilot_cir(pilots)
    noise = multi_symbol_noise_var(cir)
    sigma2 = np.asarray(noise.sigma2_hat)
    column = cir.channel_column
    keep = np.abs(column) ** 2 >= sigma2[..., None]
    cleaned = np.where(keep, column, 0.0)
    return ChannelEstimate(_padded_dft(cleaned, n_subcarriers), noise, cleaned)


def equalize(rx_data: np.ndarray, h_data: np.ndarray) -> np.ndarray:
    """Zero-forcing equalization for hard decisions, in the sign domain.

    ``rx_data`` holds data cells symbol-major, ``(..., M, K)``, and
    ``h_data`` the estimate at the same cells, ``(..., M', K)`` with
    ``M' = 1`` (one response for the block) or ``M' = M``. Returns
    ``rx * conj(h)``, which is ``rx / h`` scaled by ``|h|**2 > 0``: the real
    and imaginary parts keep their signs, so QPSK decisions are those of
    dividing, a deep fade keeps its phase, and no division can overflow.
    Cells where ``h`` is exactly 0 return ``rx`` itself, so their decisions
    follow the received signs.
    """
    rx = np.asarray(rx_data)
    h = np.asarray(h_data)
    lines_up = h.ndim >= 2 and h.shape[:-2] == rx.shape[:-2] and h.shape[-1] == rx.shape[-1]
    if not (lines_up and h.shape[-2] in (1, rx.shape[-2])):
        raise ValueError(
            f"estimate {h.shape} is not symbol-major (..., M', K) for data cells {rx.shape}"
        )
    weights = np.conj(np.broadcast_to(h, rx.shape))
    if not weights.all():
        weights[weights == 0] = 1.0
    return np.multiply(rx, weights, out=weights)


def estimator_mse(estimate: np.ndarray, truth: np.ndarray) -> float | np.ndarray:
    """Mean squared error of an estimated frequency response against the true one.

    The estimate has the truth's shape ``(..., N)`` or is symbol-major
    ``(..., M', N)``; per-symbol errors are averaged over the symbols.
    """
    est = np.asarray(estimate)
    truth = np.asarray(truth)
    if est.ndim == truth.ndim:
        est = est[..., None, :]
    if est.shape[:-2] + est.shape[-1:] != truth.shape:
        raise ValueError(f"estimate {est.shape} does not match the true response {truth.shape}")
    per_symbol = np.mean(np.abs(est - truth[..., None, :]) ** 2, axis=-1)
    return np.mean(per_symbol, axis=-1)

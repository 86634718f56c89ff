"""DFT-based channel estimation from comb-type pilot observations.

Every estimator takes the same input, the pilot least-squares grid
``(..., Np, M)`` of a block of ``M`` OFDM symbols, and returns one
:class:`Estimate`: the symbol-major frequency response ``(..., M', N)``,
the noise estimate ``(..., M')`` and the denoised impulse response
``(..., M', Np)`` (None where the estimator has none). ``M' = 1`` when one
response serves the whole block and ``M' = M`` for one per OFDM symbol.
Leading axes are batch axes.

* ``conventional_estimate`` works one OFDM symbol at a time: it transforms
  each pilot column to a length-``Np`` impulse response, reads the noise
  level off the samples beyond a caller-supplied delay-spread threshold,
  zeroes that region, zeroes any remaining sample whose energy falls below
  ``c`` times the noise estimate, and transforms back at the full grid
  length. Its quality therefore hinges on how well the threshold matches
  the actual delay spread.
* ``multi_symbol_estimate`` stacks the pilot columns of all ``M`` symbols
  into one vector before the inverse transform. For a channel that holds
  still over the block the stacked spectrum is periodic, so the impulse
  response interleaves: channel energy lands only on indices divisible by
  ``M`` while the other ``Np (M - 1)`` samples are pure noise. That yields
  a noise-variance estimate from far more samples than the conventional
  tail, needs no prior delay-spread knowledge, and one estimate serves the
  whole block.
* ``ls_nearest_estimate`` copies each subcarrier's nearest pilot
  observation, a diagnostic baseline without denoising.

The genie bound needs no function: it is ``Estimate(h[..., None, :])`` for
the true response ``h``. ``equalize`` and ``estimator_mse`` take the
symbol-major ``freq_response`` (``equalize`` only its data cells).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import dft, idft

__all__ = [
    "Estimate",
    "ls_nearest_estimate",
    "conventional_noise_var",
    "conventional_estimate",
    "stack_pilot_cir",
    "multi_symbol_noise_var",
    "multi_symbol_estimate",
    "equalize",
    "estimator_mse",
]


class Estimate(NamedTuple):
    """Symbol-major frequency response ``(..., M', N)``, the noise estimate
    ``(..., M')`` that shaped it and the denoised impulse response
    ``(..., M', Np)`` it was transformed from, or None where there is none."""

    freq_response: np.ndarray
    sigma2_hat: np.ndarray | None = None
    cleaned_cir: np.ndarray | None = None


@lru_cache(maxsize=None)
def _nearest_pilot(n_subcarriers: int, n_pilots: int) -> np.ndarray:
    spacing = n_subcarriers // n_pilots
    k = np.arange(n_subcarriers)
    # Cyclically nearest pilot; exact midpoints round up to the next pilot.
    idx = ((k + spacing // 2) // spacing) % n_pilots
    idx.setflags(write=False)
    return idx


def ls_nearest_estimate(pilots: np.ndarray, n_subcarriers: int) -> Estimate:
    """Diagnostic baseline: copy each subcarrier's nearest pilot observation."""
    cols = np.swapaxes(pilots, -1, -2)
    return Estimate(cols[..., _nearest_pilot(n_subcarriers, cols.shape[-1])])


def conventional_noise_var(cir: np.ndarray, threshold: int) -> np.ndarray:
    """Mean energy of the CIR samples at and beyond the delay-spread threshold.

    ``cir`` is ``(..., Np)``; the estimate rests on ``Np - threshold`` samples.
    """
    arr = np.asarray(cir)
    n_pilots = arr.shape[-1]
    if not 0 <= threshold <= n_pilots - 1:
        raise ValueError(
            f"threshold must lie in [0, {n_pilots - 1}] to leave noise samples, got {threshold}"
        )
    return np.mean(np.abs(arr[..., threshold:]) ** 2, axis=-1)


def conventional_estimate(
    pilots: np.ndarray, n_subcarriers: int, threshold: int, c: float
) -> Estimate:
    """Per-symbol DFT estimate with threshold-based CIR denoising.

    Pipeline, for each symbol's pilot column: inverse transform, noise
    read-off beyond ``threshold``, hard zeroing of that region, zeroing of
    below-threshold leading samples (strictly below ``c * sigma2_hat``),
    zero padding to ``n_subcarriers``, forward transform. ``M' = M``.
    """
    cir = idft(np.swapaxes(pilots, -1, -2))
    sigma2 = conventional_noise_var(cir, threshold)
    head = cir[..., :threshold]
    keep = np.abs(head) ** 2 >= c * sigma2[..., None]
    cleaned = np.zeros_like(cir)
    cleaned[..., :threshold] = np.where(keep, head, 0.0)
    return Estimate(_padded_dft(cleaned, n_subcarriers), sigma2, cleaned)


def _padded_dft(cleaned: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Forward transform of a length-``Np`` impulse response zero padded to the grid."""
    n_pilots = cleaned.shape[-1]
    if n_subcarriers < n_pilots:
        raise ValueError("n_subcarriers must be at least the pilot count")
    padded = np.zeros(cleaned.shape[:-1] + (n_subcarriers,), dtype=np.complex128)
    padded[..., :n_pilots] = cleaned
    return dft(padded)


def stack_pilot_cir(pilots: np.ndarray) -> np.ndarray:
    """Inverse transform of the pilot columns stacked into one vector.

    Stacking order is symbol after symbol, so a block-constant channel
    makes the stacked spectrum periodic with period ``Np``. Returns the
    ``(..., Np, M)`` matrix view of the ``Np * M`` samples: sample
    ``n * M + v`` is entry ``(n, v)``, column 0 holds the (decimated)
    channel impulse response, and columns 1 .. M-1 hold only noise when
    the channel is block constant.
    """
    grid = np.asarray(pilots, dtype=np.complex128)
    if grid.ndim < 2:
        raise ValueError("pilots must have shape (..., n_pilots, n_symbols)")
    if grid.shape[-1] < 2:
        raise ValueError("multi-symbol estimation needs at least 2 OFDM symbols per block")
    stacked = np.swapaxes(grid, -1, -2).reshape(grid.shape[:-2] + (-1,))
    return idft(stacked).reshape(grid.shape)


def multi_symbol_noise_var(cir: np.ndarray) -> np.ndarray:
    """Mean energy of the noise-only columns 1 .. M-1 of a stacked CIR matrix.

    ``cir`` is ``(..., Np, M)``; the estimate rests on ``Np * (M - 1)`` samples.
    """
    tail = np.swapaxes(np.asarray(cir)[..., 1:], -1, -2)
    return np.mean(np.abs(tail.reshape(tail.shape[:-2] + (-1,))) ** 2, axis=-1)


def multi_symbol_estimate(pilots: np.ndarray, n_subcarriers: int) -> Estimate:
    """Block estimate from all pilot symbols with self-calibrated denoising.

    Channel-position CIR samples are kept unless their energy falls
    strictly below the noise estimate (samples exactly at the estimate
    survive); the kept samples are compacted, zero padded, and forward
    transformed. One estimate serves every symbol of the block: ``M' = 1``.
    """
    cir = stack_pilot_cir(pilots)
    sigma2 = multi_symbol_noise_var(cir)[..., None]
    column = cir[..., None, :, 0]
    cleaned = np.where(np.abs(column) ** 2 >= sigma2[..., None], column, 0.0)
    return Estimate(_padded_dft(cleaned, n_subcarriers), sigma2, cleaned)


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

    The estimate is symbol-major, ``(..., M', N)`` against the truth's
    ``(..., N)``; per-symbol errors are averaged over the symbols.
    """
    est = np.asarray(estimate)
    truth = np.asarray(truth)
    if est.ndim < 2 or est.shape[:-2] + est.shape[-1:] != truth.shape:
        raise ValueError(f"estimate {est.shape} does not match the true response {truth.shape}")
    per_symbol = np.mean(np.abs(est - truth[..., None, :]) ** 2, axis=-1)
    return np.mean(per_symbol, axis=-1)

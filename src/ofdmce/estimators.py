"""DFT-based channel estimation from comb-type pilot observations.

Every estimator takes the same input, the pilot least-squares grid
``(..., M, Np)`` of a block of ``M`` OFDM symbols, one row per symbol, and
returns one :class:`Estimate`: the estimate at every cell, the noise
estimate ``(..., M')`` and the denoised impulse response ``(..., M', Np)``
(None where the estimator has none). ``M' = 1`` when one response serves
the whole block and ``M' = M`` for one per OFDM symbol. Leading axes are
batch axes.

* ``conventional_estimate`` works one OFDM symbol at a time: it transforms
  each symbol's pilot row to a length-``Np`` impulse response, reads the
  noise level off the samples beyond a caller-supplied delay-spread
  threshold, zeroes that region, zeroes any remaining sample whose energy
  falls below ``c`` times the noise estimate, and transforms back at the
  full grid length. Its quality therefore hinges on how well the threshold
  matches the actual delay spread.
* ``multi_symbol_estimate`` stacks the pilot rows of all ``M`` symbols
  into one vector, the flattened grid, before the inverse transform. For a
  channel that holds still over the block the stacked spectrum is
  periodic, so the impulse response interleaves: channel energy lands only
  on indices divisible by ``M`` while the other ``Np (M - 1)`` samples are
  pure noise. That yields a noise-variance estimate from far more samples
  than the conventional tail, needs no prior delay-spread knowledge, and
  one estimate serves the whole block.
* ``ls_nearest_estimate`` copies each subcarrier's nearest pilot
  observation, a diagnostic baseline without denoising.

Cells are in residue order: with pilot spacing ``S = N / Np``, subcarrier
``p S + r`` is entry ``[r, p]`` of one C-ordered ``(..., M', S, Np)`` grid,
row 0 the pilots and rows ``1 .. S - 1`` the data, which ``equalize`` reads
flattened with no gather. Transforming back at the full grid length is the
zero-padded length-``N`` DFT as ``S`` pilot-length transforms (a pruned
FFT). The genie bound is the true response in residue order.
``estimator_mse`` scores a whole grid; ``cir_mse`` gives the same number
for a cleaned impulse response from the true tap vector alone, by Parseval.
"""

from __future__ import annotations

import functools
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
    "cir_mse",
]


class Estimate(NamedTuple):
    """Every cell ``(..., M', S, Np)`` in residue order, the noise estimate
    ``(..., M')`` and the denoised impulse response ``(..., M', Np)``
    transformed into the cells, each None where there is none."""

    cells: np.ndarray
    sigma2_hat: np.ndarray | None = None
    cleaned_cir: np.ndarray | None = None

    @property
    def freq_response(self) -> np.ndarray:
        """Every cell in subcarrier order, ``(..., M', N)``."""
        return np.swapaxes(self.cells, -1, -2).reshape(self.cells.shape[:-2] + (-1,))


def ls_nearest_estimate(pilots: np.ndarray, n_subcarriers: int) -> Estimate:
    """Diagnostic baseline: copy each subcarrier's nearest pilot observation."""
    rows = np.asarray(pilots)
    spacing = _pilot_spacing(n_subcarriers, rows.shape[-1])
    cells = np.empty(rows.shape[:-1] + (spacing, rows.shape[-1]), dtype=np.complex128)
    # Residues r < S/2, pilot p's own residue 0 among them, copy pilot p; the
    # others, exact midpoints too, copy pilot p + 1 (cyclically).
    near = (spacing + 1) // 2
    cells[..., :near, :] = rows[..., None, :]
    cells[..., near:, :] = np.roll(rows, -1, axis=-1)[..., None, :]
    return Estimate(cells)


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

    Pipeline, for each symbol's pilot row: inverse transform, noise
    read-off beyond ``threshold``, hard zeroing of that region, zeroing of
    below-threshold leading samples (strictly below ``c * sigma2_hat``),
    zero padding to ``n_subcarriers``, forward transform. ``M' = M``.
    """
    cir = idft(pilots)
    sigma2 = conventional_noise_var(cir, threshold)
    head = cir[..., :threshold]
    keep = np.abs(head) ** 2 >= c * sigma2[..., None]
    cleaned = np.zeros_like(cir)
    cleaned[..., :threshold] = np.where(keep, head, 0.0)
    return Estimate(_grid_cells(cleaned, n_subcarriers), sigma2, cleaned)


def _pilot_spacing(n_subcarriers: int, n_pilots: int) -> int:
    if n_subcarriers < n_pilots or n_subcarriers % n_pilots:
        raise ValueError("n_subcarriers must be a multiple of the pilot count")
    return n_subcarriers // n_pilots


# Cached: the sweep calls _grid_cells on one grid once per estimator, SNR
# point and trial block, and the exponentials are a third of a call's time.
@functools.lru_cache(maxsize=8)
def _twiddles(n_subcarriers: int, n_pilots: int) -> np.ndarray:
    """``exp(-2j pi r l / N)`` at residue ``r`` and tap ``l``, ``(S, Np)``, read-only."""
    r = np.arange(_pilot_spacing(n_subcarriers, n_pilots))[:, None]
    twiddles = np.exp(-2j * np.pi * r * np.arange(n_pilots) / n_subcarriers)
    twiddles.flags.writeable = False
    return twiddles


def _grid_cells(cleaned: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Every cell of the zero-padded length-``N`` transform of ``cleaned``.

    Cell ``p S + r`` is the length-``Np`` transform of ``cleaned[l] *
    exp(-2j pi r l / N)`` at ``p``, so the ``S`` residues are one batched
    transform, in place on a fresh C-ordered block; row 0's twiddle is 1.
    """
    twiddles = _twiddles(n_subcarriers, cleaned.shape[-1])
    twiddled = np.empty(cleaned.shape[:-1] + twiddles.shape, dtype=np.complex128)
    np.multiply(cleaned[..., None, :], twiddles, out=twiddled)
    return dft(twiddled, out=twiddled)


def stack_pilot_cir(pilots: np.ndarray) -> np.ndarray:
    """Inverse transform of the pilot rows ``(..., M, Np)`` stacked into one vector.

    Stacking order is symbol after symbol, so a block-constant channel
    makes the stacked spectrum periodic with period ``Np``. Returns the
    ``(..., Np, M)`` matrix view of the ``Np * M`` samples: sample
    ``n * M + v`` is entry ``(n, v)``, column 0 holds the (decimated)
    channel impulse response, and columns 1 .. M-1 hold only noise when
    the channel is block constant.
    """
    grid = np.asarray(pilots, dtype=np.complex128)
    if grid.ndim < 2:
        raise ValueError("pilots must have shape (..., n_symbols, n_pilots)")
    if grid.shape[-2] < 2:
        raise ValueError("multi-symbol estimation needs at least 2 OFDM symbols per block")
    stacked = grid.reshape(grid.shape[:-2] + (-1,))
    return idft(stacked).reshape(stacked.shape[:-1] + (-1, grid.shape[-2]))


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
    return Estimate(_grid_cells(cleaned, n_subcarriers), sigma2, cleaned)


def equalize(rx_data: np.ndarray, h_data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-forcing equalization for hard decisions, in the sign domain.

    ``rx_data`` holds data cells symbol-major, ``(..., M, K)``, and
    ``h_data`` the estimate at the same cells, ``(..., M', K)`` with
    ``M' = 1`` (one response for the block) or ``M' = M``. Returns
    ``rx * conj(h)``, which is ``rx / h`` scaled by ``|h|**2 > 0``: the real
    and imaginary parts keep their signs, so QPSK decisions are those of
    dividing, a deep fade keeps its phase, and no division can overflow.
    Cells where ``h`` is exactly 0 return ``rx`` itself, so their decisions
    follow the received signs. The product is written into ``out`` if given,
    a C-ordered complex128 array of ``rx``'s shape that does not overlap it.
    """
    rx = np.asarray(rx_data)
    h = np.asarray(h_data)
    lines_up = h.ndim >= 2 and h.shape[:-2] == rx.shape[:-2] and h.shape[-1] == rx.shape[-1]
    if not (lines_up and h.shape[-2] in (1, rx.shape[-2])):
        raise ValueError(
            f"estimate {h.shape} is not symbol-major (..., M', K) for data cells {rx.shape}"
        )
    # A C-ordered product, whatever the strides of h.
    if out is None:
        out = np.empty(rx.shape, dtype=np.complex128)
    weights = np.conjugate(h, out=out)
    if not h.all():
        weights[weights == 0] = 1.0
    return np.multiply(rx, weights, out=weights)


def estimator_mse(estimate: np.ndarray, truth: np.ndarray) -> float | np.ndarray:
    """Mean squared error of an estimated frequency response against the true one.

    The estimate is symbol-major, ``(..., M', N)`` against the truth's
    ``(..., N)``; per-symbol errors are averaged over the symbols. The
    difference is squared in place, as ``re**2 + im**2`` on its float view.
    """
    est = np.asarray(estimate)
    truth = np.asarray(truth)
    if est.ndim < 2 or est.shape[:-2] + est.shape[-1:] != truth.shape:
        raise ValueError(f"estimate {est.shape} does not match the true response {truth.shape}")
    diff = np.subtract(est, truth[..., None, :], out=np.empty(est.shape, dtype=np.complex128))
    squares = np.square(diff.view(np.float64), out=diff.view(np.float64))
    # The mean over 2N squares is half the mean over N cells.
    return 2.0 * np.mean(np.mean(squares, axis=-1), axis=-1)


def cir_mse(cleaned_cir: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """:func:`estimator_mse` of the zero-padded ``(..., M', Np)`` impulse response.

    By Parseval (the forward transform is unnormalized) that is its energy
    error against the true taps ``(..., L)``, ``L >= Np``, every tap of the
    channel (``channel.from_taps``): the error at delays below ``Np`` plus
    the energy of the taps beyond.
    """
    n_pilots = cleaned_cir.shape[-1]
    head = np.sum(np.abs(cleaned_cir - taps[..., None, :n_pilots]) ** 2, axis=-1)
    return np.mean(head, axis=-1) + np.sum(np.abs(taps[..., n_pilots:]) ** 2, axis=-1)

"""DFT-based channel estimation from comb-type pilot observations.

Every estimator takes the same input, the pilot least-squares grid
``(..., M, Np)`` of a block of ``M`` OFDM symbols, one row per symbol, and
returns one :class:`Estimate`: the rows its cells are formed from (the
denoised impulse response ``(..., M', Np)``, or the pilot rows themselves)
and the noise estimate ``(..., M')`` (None where the estimator has none).
No estimator forms cells; :func:`conj_cells` does, for any range of
residues. ``M' = 1`` when one response serves the whole block and
``M' = M`` for one per OFDM symbol. Leading axes are batch axes, such as
one per SNR point.

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
row 0 the pilots and rows ``1 .. S - 1`` the data. Transforming back at the
full grid length is the zero-padded length-``N`` DFT as ``S`` pilot-length
transforms (a pruned FFT). :func:`conj_cells` returns the cells
conjugated, since a decision is ``rx * conj(h)``: a sweep asks it for the
data rows only, flattened with no gather, and after :func:`guard_zeros`
``equalize`` is one multiply. The genie bound is the true response in
residue order.
``cir_mse`` scores a cleaned impulse response from the true tap vector
alone, by Parseval.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .spectral import idft, idft_unscaled

__all__ = [
    "Estimate",
    "conj_cells",
    "ls_nearest_estimate",
    "conventional_noise_var",
    "conventional_estimate",
    "stack_pilot_cir",
    "multi_symbol_noise_var",
    "multi_symbol_estimate",
    "guard_zeros",
    "equalize",
    "cir_mse",
    "nearest_error_terms",
]


class Estimate(NamedTuple):
    """A block's estimate, kept as the rows its cells are formed from, and its
    noise estimate ``(..., M')`` or None.

    ``form`` says how the cells ``(..., M', S, Np)`` come from ``rows``:
    "cir" zero pads the denoised impulse response ``rows`` ``(..., M', Np)``
    to ``n_subcarriers`` and transforms it; "nearest" copies each pilot
    observation of ``rows`` ``(..., M', Np)`` to its nearest subcarriers;
    "cells" has the cells themselves as ``rows``. :func:`conj_cells` forms
    them, conjugated, at any residues.
    """

    form: str
    rows: np.ndarray
    n_subcarriers: int
    sigma2_hat: np.ndarray | None = None

    @property
    def cleaned_cir(self) -> np.ndarray | None:
        """The denoised impulse response ``(..., M', Np)``, or None."""
        return self.rows if self.form == "cir" else None

    @property
    def cells(self) -> np.ndarray:
        """Every cell ``(..., M', S, Np)`` in residue order."""
        if self.form == "cells":
            return self.rows
        cells = conj_cells(self)
        return np.conjugate(cells, out=cells)

    @property
    def freq_response(self) -> np.ndarray:
        """Every cell in subcarrier order, ``(..., M', N)``."""
        cells = self.cells
        return np.swapaxes(cells, -1, -2).reshape(cells.shape[:-2] + (-1,))


def ls_nearest_estimate(pilots: np.ndarray, n_subcarriers: int) -> Estimate:
    """Diagnostic baseline: copy each subcarrier's nearest pilot observation."""
    rows = np.asarray(pilots)
    _pilot_spacing(n_subcarriers, rows.shape[-1])
    return Estimate("nearest", rows, n_subcarriers)


def _energy(x: np.ndarray) -> np.ndarray:
    """``np.abs(x) ** 2``, squared in place on a fresh array of magnitudes:
    no large temporary goes through numpy's operator path, whose elision
    check walks the C stack."""
    magnitude = np.abs(x)
    return np.square(magnitude, out=magnitude)


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
    return np.mean(_energy(arr[..., threshold:]), axis=-1)


def conventional_estimate(
    pilots: np.ndarray, n_subcarriers: int, threshold: int, c: float
) -> Estimate:
    """Per-symbol DFT estimate with threshold-based CIR denoising.

    Pipeline, for each symbol's pilot row: inverse transform, noise
    read-off beyond ``threshold``, hard zeroing of that region, zeroing of
    below-threshold leading samples (strictly below ``c * sigma2_hat``).
    Its cells are the cleaned response zero padded to ``n_subcarriers`` and
    transformed. ``M' = M``.
    """
    _pilot_spacing(n_subcarriers, np.shape(pilots)[-1])
    cir = idft(pilots)
    sigma2 = conventional_noise_var(cir, threshold)
    cleaned = np.where(_energy(cir) >= c * sigma2[..., None], cir, 0.0)
    cleaned[..., threshold:] = 0.0
    return Estimate("cir", cleaned, n_subcarriers, sigma2)


def _pilot_spacing(n_subcarriers: int, n_pilots: int) -> int:
    if n_subcarriers < n_pilots or n_subcarriers % n_pilots:
        raise ValueError("n_subcarriers must be a multiple of the pilot count")
    return n_subcarriers // n_pilots


# Cached: the sweep forms cells on one grid once per estimator, SNR point
# and trial block, and the exponentials are a third of a call's time.
@functools.lru_cache(maxsize=8)
def _conj_twiddles(n_subcarriers: int, n_pilots: int) -> np.ndarray:
    """``exp(2j pi r l / N)`` at residue ``r`` and tap ``l``, ``(S, Np)``, read-only:
    the conjugate of the forward twiddles ``exp(-2j pi r l / N)``."""
    r = np.arange(_pilot_spacing(n_subcarriers, n_pilots))[:, None]
    twiddles = np.conjugate(np.exp(-2j * np.pi * r * np.arange(n_pilots) / n_subcarriers))
    twiddles.flags.writeable = False
    return twiddles


def conj_cells(estimate: Estimate, first: int = 0) -> np.ndarray:
    """The conjugated cells of ``estimate`` at residues ``first .. S - 1``,
    ``(..., M', S - first, Np)``, a fresh C-ordered array.

    For a cleaned response ``c`` of length ``Np``, cell ``p S + r`` of its
    zero-padded length-``N`` transform is the length-``Np`` transform of
    ``c[l] exp(-2j pi r l / N)`` at ``p``, so the residues are one batched
    transform (a pruned FFT). Conjugated, that is the unscaled inverse
    transform of ``conj(c[l]) exp(2j pi r l / N)``, in place; ``conj`` of
    the result gives back the cells exactly.
    """
    rows = estimate.rows
    if estimate.form == "cells":
        cells = rows[..., first:, :]
        return np.conjugate(cells, out=np.empty(cells.shape, dtype=np.complex128))
    n_pilots = rows.shape[-1]
    spacing = _pilot_spacing(estimate.n_subcarriers, n_pilots)
    out = np.empty(rows.shape[:-1] + (spacing - first, n_pilots), dtype=np.complex128)
    conj_rows = np.conjugate(rows)
    if estimate.form == "nearest":
        # Residues r < S/2, pilot p's own residue 0 among them, copy pilot p;
        # the others, exact midpoints too, copy pilot p + 1 (cyclically).
        near = max((spacing + 1) // 2 - first, 0)
        out[..., :near, :] = conj_rows[..., None, :]
        out[..., near:, :] = np.roll(conj_rows, -1, axis=-1)[..., None, :]
        return out
    np.multiply(conj_rows[..., None, :], _conj_twiddles(estimate.n_subcarriers, n_pilots)[first:], out=out)
    return idft_unscaled(out, out=out)


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
    return np.mean(_energy(tail.reshape(tail.shape[:-2] + (-1,))), axis=-1)


def multi_symbol_estimate(pilots: np.ndarray, n_subcarriers: int) -> Estimate:
    """Block estimate from all pilot symbols with self-calibrated denoising.

    Channel-position CIR samples are kept unless their energy falls
    strictly below the noise estimate (samples exactly at the estimate
    survive); the kept samples are compacted, zero padded, and forward
    transformed. One estimate serves every symbol of the block: ``M' = 1``.
    """
    _pilot_spacing(n_subcarriers, np.shape(pilots)[-1])
    cir = stack_pilot_cir(pilots)
    sigma2 = multi_symbol_noise_var(cir)[..., None]
    column = cir[..., None, :, 0]
    cleaned = np.where(_energy(column) >= sigma2[..., None], column, 0.0)
    return Estimate("cir", cleaned, n_subcarriers, sigma2)


def guard_zeros(weights: np.ndarray) -> np.ndarray:
    """Zero-forcing weights from a conjugated estimate, in place: exact zeros
    become 1, so those cells decide on the received signs."""
    if not weights.all():
        weights[weights == 0] = 1.0
    return weights


def equalize(rx_data: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-forcing equalization for hard decisions, in the sign domain.

    ``rx_data`` holds data cells symbol-major, ``(..., M, K)``, and
    ``weights`` the conjugated estimate at the same cells through
    :func:`guard_zeros`, ``(..., M', K)`` with ``M' = 1`` (one response for
    the block) or ``M' = M``. Returns ``rx * conj(h)``, which is ``rx / h``
    scaled by ``|h|**2 > 0``: the real and imaginary parts keep their signs,
    so QPSK decisions are those of dividing, a deep fade keeps its phase,
    and no division can overflow. Cells where ``h`` is exactly 0 have weight
    1 and return ``rx`` itself. The product is written into ``out`` if
    given, a C-ordered complex128 array of ``rx``'s shape that is ``rx``,
    the weights, or overlaps neither.
    """
    rx = np.asarray(rx_data)
    w = np.asarray(weights)
    lines_up = w.ndim >= 2 and w.shape[:-2] == rx.shape[:-2] and w.shape[-1] == rx.shape[-1]
    if not (lines_up and w.shape[-2] in (1, rx.shape[-2])):
        raise ValueError(
            f"estimate {w.shape} is not symbol-major (..., M', K) for data cells {rx.shape}"
        )
    # A C-ordered product, whatever the strides of the weights.
    if out is None:
        out = np.empty(rx.shape, dtype=np.complex128)
    return np.multiply(rx, w, out=out)


def cir_mse(cleaned_cir: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Mean squared error of the zero-padded ``(..., M', Np)`` impulse
    response's ``N`` cells against the true ones, averaged over the rows.

    By Parseval (the forward transform is unnormalized) that is its energy
    error against the true taps ``(..., L)``, ``L >= Np``, every tap of the
    channel (``channel.from_taps``): the error at delays below ``Np`` plus
    the energy of the taps beyond.
    """
    n_pilots = cleaned_cir.shape[-1]
    head = np.sum(_energy(cleaned_cir - taps[..., None, :n_pilots]), axis=-1)
    return np.mean(head, axis=-1) + np.sum(_energy(taps[..., n_pilots:]), axis=-1)


def nearest_error_terms(truth: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sums ``(a, b, c)`` such that ``a + 2 s b + s**2 c`` is the squared error
    of :func:`ls_nearest_estimate` over all ``M N`` cells of a block whose
    pilot rows are ``truth[..., 0, :] + s * noise``.

    ``truth`` holds the true cells in residue order, ``(..., S, Np)``, and
    ``noise`` the pilot rows' noise, ``(..., M, Np)``. The estimate at cell
    ``(r, p)`` copies the pilot row at the nearest pilot ``q``, so its error
    there is ``D = H_q - H[r, p]`` plus ``s W_q``: ``a`` is ``M`` times the
    sum of ``|D|**2``, ``b`` the sum over symbols and pilots of ``Re(W_q
    conj(E_q))``, where ``E_q`` sums ``D`` over the ``S`` cells that copy
    ``q``, and ``c`` is ``S`` times the energy of ``W``. All three cost one
    pass over the truth and the noise, not one over the grid per ``s``.
    """
    spacing = truth.shape[-2]
    near = (spacing + 1) // 2
    pilots = truth[..., 0, :]
    low, high = truth[..., :near, :], truth[..., near:, :]
    a = np.sum(_energy(low - pilots[..., None, :]), axis=(-2, -1))
    a += np.sum(_energy(high - np.roll(pilots, -1, axis=-1)[..., None, :]), axis=(-2, -1))
    e = spacing * pilots - low.sum(axis=-2) - np.roll(high.sum(axis=-2), 1, axis=-1)
    b = np.sum((noise * np.conjugate(e)[..., None, :]).real, axis=(-2, -1))
    c = spacing * np.sum(_energy(noise), axis=(-2, -1))
    return noise.shape[-2] * a, b, c

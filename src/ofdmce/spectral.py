"""DFT/IDFT with a pinned normalization convention.

The forward transform is unnormalized,

    X[k] = sum_l x[l] * exp(-j 2 pi k l / L),

and the inverse carries the full 1/L factor. Under this convention a
length-``Lp`` impulse response that is zero padded and forward transformed
at a longer length ``L`` reproduces the underlying frequency response with
unit gain, which is what the DFT-based channel estimators rely on.

Both transforms run over the last axis, so batched input (any number of
leading axes) is transformed in one call, at any length. They are thin
wrappers around ``numpy.fft``, whose default ("backward") normalization is
exactly this convention; the wrappers pin it and the complex128 output.
``idft_unscaled`` is the inverse without its 1/L factor, which conjugates
the forward transform: ``idft_unscaled(conj(x)) == conj(dft(x))``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dft", "idft", "idft_unscaled"]


def dft(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis; leading axes are batch axes."""
    return np.fft.fft(np.asarray(x, dtype=np.complex128))


def idft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT along the last axis, scaled by 1/L.

    Exact inverse of :func:`dft`: ``idft(dft(x)) == x`` up to roundoff.
    """
    return np.fft.ifft(np.asarray(x, dtype=np.complex128))


def idft_unscaled(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse DFT along the last axis without the 1/L factor,
    ``sum_k x[k] * exp(j 2 pi k l / L)``: ``conj(dft(conj(x)))``.

    ``out`` (complex128, the input's shape, possibly the input) receives it."""
    return np.fft.ifft(np.asarray(x, dtype=np.complex128), norm="forward", out=out)

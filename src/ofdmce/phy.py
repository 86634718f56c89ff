"""The resource grid of a block: its dimensions and its axis conventions.

Conventions used throughout the package:

* Resource grids are complex arrays of shape ``(..., M, N)``, and pilot
  grids ``(..., M, Np)``: OFDM symbol index first, subcarrier or pilot
  index last, optional leading batch axes.
* Pilot cells occupy every ``pilot_spacing``-th subcarrier (including
  subcarrier 0) on every symbol; all remaining cells carry data.
* Inside the sweep every cell is in residue order, that of the channel
  estimates: a symbol's cells are one ``(S, Np)`` grid, entry ``[r, p]``
  subcarrier ``p S + r`` (:func:`residue_major`), row 0 the pilots, rows
  ``1 .. S - 1`` the data cells. These carry no drawn bits: each holds the
  QPSK point for bits (0, 0), and row 0 holds least-squares values with no
  pilot sequence.

The package receives in the frequency domain only (:mod:`ofdmce.harness`).
The time-domain chain it stands in for (QPSK mapping, pilot sequences, OFDM
modulation with its cyclic prefix) is kept in ``tests/reference.py`` as the
reference model of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridConfig", "residue_major"]


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
    def n_data(self) -> int:
        """Data subcarriers per OFDM symbol."""
        return self.n_subcarriers - self.n_pilots

    @property
    def data_bits_per_block(self) -> int:
        """QPSK data bits carried by one block."""
        return 2 * self.n_symbols * self.n_data


def residue_major(cells: np.ndarray, n_pilots: int) -> np.ndarray:
    """View cells in subcarrier order, ``(..., N)``, as ``(..., S, Np)`` whose
    entry ``[r, p]`` is subcarrier ``p S + r``: row 0 the pilots, then data."""
    arr = np.asarray(cells)
    return np.swapaxes(arr.reshape(arr.shape[:-1] + (n_pilots, -1)), -1, -2)

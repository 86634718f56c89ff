"""The benchmark's workloads: the ofdmce config each one sweeps, and its rounds.

A run repeats whole rounds of one workload. A round is one ``ofdmce sweep``
of ``round_subframes`` subframes per SNR point, so every round attempts the
same (estimator, SNR) rows. Each round gets its own master seed, drawn from
the run's ``--seed``; the same seed gives the same sequence of inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_subcarriers: int
    n_pilots: int
    n_symbols: int
    cp_len: int
    sample_rate_hz: float
    snr_db: tuple[float, ...]
    estimators: tuple[str, ...]
    th_perfect: int
    th_inaccurate: int
    round_subframes: int

    @property
    def bits_per_subframe(self) -> int:
        """QPSK data bits in one subframe: 2 bits per data cell."""
        return 2 * self.n_symbols * (self.n_subcarriers - self.n_pilots)

    def config_text(self) -> str:
        """The ofdmce config file of this workload, every grid key spelled out."""
        return "\n".join(
            [
                f"n_subcarriers = {self.n_subcarriers}",
                f"n_pilots = {self.n_pilots}",
                f"n_symbols = {self.n_symbols}",
                f"cp_len = {self.cp_len}",
                "profile = etu",
                f"sample_rate_hz = {self.sample_rate_hz!r}",
                f"snr_db = {','.join(repr(s) for s in self.snr_db)}",
                f"estimators = {','.join(self.estimators)}",
                "c = 2.0",
                f"th_perfect = {self.th_perfect}",
                f"th_inaccurate = {self.th_inaccurate}",
                "fading = true",
                "",
            ]
        )

    def round_seeds(self, seed: int):
        """Endless sequence of per-round master seeds, fixed by ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.randrange(2**31)


# The estimator list of ofdmce's default config and of the acceptance gate.
_FOUR = ("ideal", "conv-perfect", "conv-inaccurate", "proposed")

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance gate's sweep shape. Per-SNR estimator work is most
        # of the time; the per-trial draws are about a sixth.
        Workload(
            name="headline",
            why="ETU 512/64/2 at 25/27.5/30 dB with four estimators: the acceptance sweep, "
            "where per-SNR estimator work dominates",
            n_subcarriers=512,
            n_pilots=64,
            n_symbols=2,
            cp_len=40,
            sample_rate_hz=7.68e6,
            snr_db=(25.0, 27.5, 30.0),
            estimators=_FOUR,
            th_perfect=39,
            th_inaccurate=19,
            round_subframes=512,
        ),
        # One SNR point and the genie estimator only: the per-trial path
        # (seeding, draws, modulate, channel) dominates, and per-SNR savings
        # such as demodulating once per chunk have nothing to save here.
        Workload(
            name="one-point",
            why="ETU 512/64/2, one 30 dB point, ideal only: the per-trial draw, modulate "
            "and channel path dominates, so per-SNR savings should show no change",
            n_subcarriers=512,
            n_pilots=64,
            n_symbols=2,
            cp_len=40,
            sample_rate_hz=7.68e6,
            snr_db=(30.0,),
            estimators=("ideal",),
            th_perfect=39,
            th_inaccurate=19,
            round_subframes=1024,
        ),
        # 2048-point transforms and 16 MiB chunk arrays, four times the
        # headline's 4 MiB and well beyond the 2 MiB of L2. Thresholds sit one sample
        # past and about half of the 154-sample delay spread at 30.72 MHz.
        # One round is one full 256-subframe chunk.
        Workload(
            name="wideband",
            why="ETU at 30.72 MHz on 2048/256/2, 0:5:30 dB, all five estimators: "
            "long transforms and chunk arrays beyond L2, and ls-only is exercised",
            n_subcarriers=2048,
            n_pilots=256,
            n_symbols=2,
            cp_len=160,
            sample_rate_hz=30.72e6,
            snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
            estimators=_FOUR + ("ls-only",),
            th_perfect=155,
            th_inaccurate=77,
            round_subframes=256,
        ),
    )
}

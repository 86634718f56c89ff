"""Tapped-delay-line Rayleigh channels, sample-grid quantization, and AWGN.

Profile tap delays are specified in nanoseconds, rounded to the nearest
sample at the configured sample rate; taps that collide on one sample index
merge by summing their linear powers, and the merged power set is
renormalized to unit total so channel realizations have unit average
energy. Fading is block constant: one tap-gain draw covers every OFDM
symbol of a block, and successive blocks draw independently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .spectral import dft

__all__ = [
    "ETU_DELAYS_NS",
    "ETU_POWERS_DB",
    "BUILTIN_PROFILES",
    "PowerDelayProfile",
    "ChannelRealization",
    "NoiseSpec",
    "build_profile",
    "profile_from_taps",
    "load_profile",
    "tap_gains",
    "apply_channel",
    "complex_normal",
]

# Extended Typical Urban tapped delay line, 3GPP TS 36.101 Annex B.2.
ETU_DELAYS_NS = (0.0, 50.0, 120.0, 200.0, 230.0, 500.0, 1600.0, 2300.0, 5000.0)
ETU_POWERS_DB = (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0)

BUILTIN_PROFILES = ("etu", "single-tap")


@dataclass(frozen=True)
class PowerDelayProfile:
    """Sample-spaced tap delays with normalized linear powers."""

    name: str
    tap_delays: tuple[int, ...]
    tap_powers: tuple[float, ...]
    sample_rate_hz: float

    def __post_init__(self) -> None:
        if len(self.tap_delays) != len(self.tap_powers) or not self.tap_delays:
            raise ValueError("profile needs matching, nonempty delay and power lists")
        if self.tap_delays[0] != 0:
            raise ValueError("first tap must sit at delay 0")
        if any(b <= a for a, b in zip(self.tap_delays, self.tap_delays[1:])):
            raise ValueError("tap delays must be strictly increasing")
        if any(p <= 0 for p in self.tap_powers):
            raise ValueError("tap powers must be positive")
        if abs(sum(self.tap_powers) - 1.0) > 1e-12:
            raise ValueError(f"tap powers must sum to 1, got {sum(self.tap_powers)!r}")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be finite and positive, got {self.sample_rate_hz}")

    @property
    def delay_spread(self) -> int:
        """Largest tap delay in samples."""
        return self.tap_delays[-1]


def profile_from_taps(
    name: str,
    delays_ns: np.ndarray,
    powers_db: np.ndarray,
    sample_rate_hz: float,
) -> PowerDelayProfile:
    """Quantize nanosecond taps to the sample grid, merging collisions."""
    delays_ns = np.asarray(delays_ns, dtype=float)
    powers_db = np.asarray(powers_db, dtype=float)
    if delays_ns.shape != powers_db.shape or delays_ns.ndim != 1 or delays_ns.size == 0:
        raise ValueError("delays and powers must be equal-length nonempty vectors")
    for field_name, values in (("delays_ns", delays_ns), ("powers_db", powers_db)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{field_name} must be finite, got {values.tolist()}")
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(f"sample_rate_hz must be finite and positive, got {sample_rate_hz}")
    samples = np.rint(delays_ns * sample_rate_hz / 1e9).astype(int)
    linear = 10.0 ** (powers_db / 10.0)
    merged: dict[int, float] = {}
    for idx, power in zip(samples.tolist(), linear.tolist()):
        merged[idx] = merged.get(idx, 0.0) + power
    delays = tuple(sorted(merged))
    total = sum(merged[d] for d in delays)
    powers = tuple(merged[d] / total for d in delays)
    return PowerDelayProfile(name, delays, powers, sample_rate_hz)


def build_profile(name: str, sample_rate_hz: float) -> PowerDelayProfile:
    """Construct a builtin profile ("etu" or "single-tap") at a sample rate."""
    key = name.lower()
    if key == "etu":
        return profile_from_taps("etu", ETU_DELAYS_NS, ETU_POWERS_DB, sample_rate_hz)
    if key == "single-tap":
        return PowerDelayProfile("single-tap", (0,), (1.0,), sample_rate_hz)
    raise ValueError(f"unknown profile {name!r}; builtins are {', '.join(BUILTIN_PROFILES)}")


def load_profile(path: str | Path, sample_rate_hz: float) -> PowerDelayProfile:
    """Read a custom profile from a plain-text file.

    Format: optional ``name = <label>`` line plus one ``tap = <delay_ns>
    <power_db>`` line per tap; ``#`` starts a comment. The quantized first
    tap must land on delay 0.
    """
    path = Path(path)
    text = path.read_text()
    name = path.stem
    delays, powers = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key == "name":
            name = value
        elif key == "tap":
            parts = re.split(r"[,\s]+", value)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: tap needs '<delay_ns> <power_db>'")
            try:
                delays.append(float(parts[0]))
                powers.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad tap numbers {value!r}") from exc
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if not delays:
        raise ValueError(f"{path}: profile defines no taps")
    return profile_from_taps(name, np.array(delays), np.array(powers), sample_rate_hz)


@dataclass(eq=False)
class ChannelRealization:
    """One block-fading draw: tap gains plus the implied frequency response."""

    tap_delays: np.ndarray
    gains: np.ndarray
    freq_response: np.ndarray = field(repr=False)

    @classmethod
    def from_taps(
        cls, tap_delays: np.ndarray, gains: np.ndarray, n_subcarriers: int
    ) -> "ChannelRealization":
        """Build from explicit sample-spaced taps; gains may be batched (..., T).

        The frequency response is the DFT of the taps zero padded to
        ``n_subcarriers``; taps sharing a delay add up.
        """
        delays = np.asarray(tap_delays, dtype=np.int64)
        if np.any((delays < 0) | (delays >= n_subcarriers)):
            raise ValueError(f"tap delays must lie in [0, {n_subcarriers}), got {delays.tolist()}")
        gains = np.asarray(gains, dtype=np.complex128)
        taps = np.zeros(gains.shape[:-1] + (n_subcarriers,), dtype=np.complex128)
        np.add.at(taps, (..., delays), gains)
        return cls(delays, gains, dft(taps))

    @property
    def delay_spread(self) -> int:
        """Largest tap delay in samples, in whatever order the taps come."""
        return int(self.tap_delays.max())

    def split_taps(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """The impulse response at delays below ``length``, ``(..., length)``,
        and the energy ``(...)`` of the rest; taps sharing a delay add up."""
        width = max(length, self.delay_spread + 1)
        taps = np.zeros(self.gains.shape[:-1] + (width,), dtype=np.complex128)
        np.add.at(taps, (..., self.tap_delays), self.gains)
        return taps[..., :length], np.sum(np.abs(taps[..., length:]) ** 2, axis=-1)


def complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws with the given variance."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def tap_gains(profile: PowerDelayProfile, rng: np.random.Generator | None) -> np.ndarray:
    """Draw the tap gains of one block.

    With a generator each tap is an independent complex Gaussian whose
    variance is the tap power (Rayleigh magnitudes). With ``rng=None`` the
    gains are the deterministic square roots of the tap powers, which for
    the single-tap profile degenerates to an identity (pure AWGN) link.
    """
    amplitudes = np.sqrt(np.array(profile.tap_powers))
    if rng is None:
        return amplitudes.astype(np.complex128)
    return amplitudes * complex_normal(rng, len(amplitudes), 1.0)


def apply_channel(samples: np.ndarray, realization: ChannelRealization, cp_len: int) -> np.ndarray:
    """Convolve a sample stream with the realization's sparse taps.

    The stream starts from zero state and the output is truncated to the
    input length. Requires the delay spread to fit inside the cyclic
    prefix, which is what makes the demodulated grid exactly ``H * X``.
    """
    if realization.delay_spread > cp_len:
        raise ValueError(
            f"delay spread {realization.delay_spread} exceeds cp_len {cp_len}"
        )
    arr = np.asarray(samples, dtype=np.complex128)
    n_samples = arr.shape[-1]
    batch = np.broadcast_shapes(arr.shape[:-1], realization.gains.shape[:-1])
    out = np.zeros(batch + (n_samples,), dtype=np.complex128)
    for t, delay in enumerate(realization.tap_delays.tolist()):
        gain = realization.gains[..., t : t + 1]
        if delay:
            out[..., delay:] += gain * arr[..., : n_samples - delay]
        else:
            out += gain * arr
    return out


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample complex noise variance tied to its SNR in dB."""

    snr_db: float
    sigma2: float

    def __post_init__(self) -> None:
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2} (snr_db = {self.snr_db})")

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseSpec":
        """Unit-power signal convention: sigma2 = 10^(-snr_db/10)."""
        try:
            sigma2 = 10.0 ** (-float(snr_db) / 10.0)
        except OverflowError:
            sigma2 = math.inf
        return cls(float(snr_db), sigma2)


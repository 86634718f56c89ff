"""Tapped-delay-line Rayleigh channels, sample-grid quantization, and AWGN.

Profile tap delays are specified in nanoseconds, rounded to the nearest
sample at the configured sample rate; taps that collide on one sample index
merge by summing their linear powers, and the merged power set is
renormalized to unit total so channel realizations have unit average
energy. Fading is block constant: one tap-gain draw covers every OFDM
symbol of a block, and successive blocks draw independently.

The noise model is here too: ``complex_normal`` is the one Gaussian draw,
a Box–Muller transform of ``random()`` pairs, and ``noise_variance``
refuses any SNR below ``SNR_FLOOR_DB``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ETU_DELAYS_NS",
    "ETU_POWERS_DB",
    "BUILTIN_PROFILES",
    "SNR_FLOOR_DB",
    "PowerDelayProfile",
    "noise_variance",
    "build_profile",
    "profile_from_taps",
    "read_key_values",
    "load_profile",
    "tap_gains",
    "from_taps",
    "apply_channel",
    "complex_normal",
]

# The lowest SNR: at sigma2 = 1e30 every sweep product and sum stays over 1e250 below overflow.
SNR_FLOOR_DB = -300.0

# Extended Typical Urban tapped delay line, 3GPP TS 36.101 Annex B.2.
ETU_DELAYS_NS = (0.0, 50.0, 120.0, 200.0, 230.0, 500.0, 1600.0, 2300.0, 5000.0)
ETU_POWERS_DB = (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0)

# The builtin profiles, one row each: tap delays in ns and powers in dB.
_BUILTIN_TAPS = {"etu": (ETU_DELAYS_NS, ETU_POWERS_DB), "single-tap": ((0.0,), (0.0,))}
BUILTIN_PROFILES = tuple(_BUILTIN_TAPS)


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
    with np.errstate(over="ignore"):
        samples = np.rint(delays_ns * sample_rate_hz / 1e9)
        linear = 10.0 ** (powers_db / 10.0)
    if not np.all(np.abs(samples) < 2.0**63):
        raise ValueError(
            f"delays_ns {delays_ns.tolist()} at sample_rate_hz {sample_rate_hz!r} "
            "fall outside the int64 sample range"
        )
    merged: dict[int, float] = {}
    for idx, power in zip(samples.astype(np.int64).tolist(), linear.tolist()):
        merged[idx] = merged.get(idx, 0.0) + power
    delays = tuple(sorted(merged))
    total = sum(merged[d] for d in delays)
    if not math.isfinite(total):
        raise ValueError(f"powers_db {powers_db.tolist()} overflow as linear powers")
    tiny = np.finfo(float).tiny
    if total < tiny or min(merged.values()) / total < tiny:
        raise ValueError(f"powers_db {powers_db.tolist()} underflow as normalized linear powers")
    powers = tuple(merged[d] / total for d in delays)
    return PowerDelayProfile(name, delays, powers, sample_rate_hz)


def build_profile(name: str, sample_rate_hz: float) -> PowerDelayProfile:
    """Construct a builtin profile, a row of the builtin table, at a sample rate."""
    key = name.lower()
    if key not in _BUILTIN_TAPS:
        raise ValueError(f"unknown profile {name!r}; builtins are {', '.join(BUILTIN_PROFILES)}")
    return profile_from_taps(key, *_BUILTIN_TAPS[key], sample_rate_hz)


def read_key_values(path: str | Path) -> list[tuple[str, str, str]]:
    """The ``key = value`` lines of a text file, as ``(where, key, value)``.

    ``#`` starts a comment and blank lines are skipped; ``where`` is the
    ``path:line`` prefix of messages about the line. A line without a key,
    an ``=`` or a value raises ValueError. Callers apply their own key rules.
    """
    path = Path(path)
    entries = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        where = f"{path}:{lineno}"
        if not (sep and key and value):
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        entries.append((where, key, value))
    return entries


def load_profile(path: str | Path, sample_rate_hz: float) -> PowerDelayProfile:
    """Read a custom profile from a plain-text file.

    Format: optional ``name = <label>`` line plus one ``tap = <delay_ns>
    <power_db>`` line per tap, in :func:`read_key_values`' format. The
    quantized first tap must land on delay 0.
    """
    path = Path(path)
    name = path.stem
    delays, powers = [], []
    for where, key, value in read_key_values(path):
        if key == "name":
            name = value
        elif key == "tap":
            parts = re.split(r"[,\s]+", value)
            if len(parts) != 2:
                raise ValueError(f"{where}: tap needs '<delay_ns> <power_db>'")
            try:
                delays.append(float(parts[0]))
                powers.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{where}: bad tap numbers {value!r}") from exc
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    if not delays:
        raise ValueError(f"{path}: profile defines no taps")
    return profile_from_taps(name, np.array(delays), np.array(powers), sample_rate_hz)


def from_taps(tap_delays: np.ndarray, gains: np.ndarray, length: int) -> np.ndarray:
    """The impulse response ``(..., length)`` of sample-spaced taps whose
    gains may be batched ``(..., T)``; taps sharing a delay add up."""
    delays = np.asarray(tap_delays, dtype=np.int64)
    if np.any((delays < 0) | (delays >= length)):
        raise ValueError(f"tap delays must lie in [0, {length}), got {delays.tolist()}")
    gains = np.asarray(gains, dtype=np.complex128)
    taps = np.zeros(gains.shape[:-1] + (length,), dtype=np.complex128)
    np.add.at(taps, (..., delays), gains)
    return taps


def complex_normal(rng: np.random.Generator, shape, variance: float | np.ndarray) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws of ``shape``, ``variance``
    broadcast over the last axes, by the Box–Muller transform of uniform
    pairs: ``u = random(shape + (2,))``, modulus ``sqrt(-variance *
    log1p(-u[..., 0]))`` in float64 and phase ``2π u[..., 1]`` rounded to
    float32, whose float32 ``cos`` and ``sin`` give the real and imaginary
    parts. ``|W|² / variance`` is Exp(1) and the phase uniform, so W is
    CN(0, variance); each draw takes exactly two uniforms, with no rejection."""
    draws = np.empty(shape, dtype=np.complex128)
    pairs = draws.view(np.float64).reshape(draws.shape + (2,))
    rng.random(out=pairs)
    modulus = np.log1p(-pairs[..., 0])
    modulus *= -variance
    np.sqrt(modulus, out=modulus)
    phase = np.multiply(pairs[..., 1], 2.0 * math.pi, out=np.empty(draws.shape, dtype=np.float32))
    np.multiply(modulus, np.cos(phase), out=pairs[..., 0])
    np.multiply(modulus, np.sin(phase), out=pairs[..., 1])
    return draws


def tap_gains(profile: PowerDelayProfile, rng: np.random.Generator | None, rows: int) -> np.ndarray:
    """Draw the tap gains of ``rows`` blocks, ``(rows, T)``.

    With a generator each tap is an independent complex Gaussian whose
    variance is the tap power (Rayleigh magnitudes), drawn row by row by
    :func:`complex_normal`. With ``rng=None`` every row is the deterministic
    square roots of the tap powers and nothing is drawn; for the single-tap
    profile that is an identity (pure AWGN) link.
    """
    powers = np.array(profile.tap_powers)
    if rng is None:
        return np.broadcast_to(np.sqrt(powers).astype(np.complex128), (rows, len(powers)))
    return complex_normal(rng, (rows, len(powers)), powers)


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


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance at an SNR in dB, for unit signal
    power: sigma2 = 10^(-snr_db/10). Raises ValueError for a NaN SNR or one
    below ``SNR_FLOOR_DB``."""
    snr_db = float(snr_db)
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if snr_db < SNR_FLOOR_DB:
        raise ValueError(f"SNR point {snr_db!r} dB lies below {SNR_FLOOR_DB} dB: sigma2 above 1e30 could overflow")
    return 10.0 ** (-snr_db / 10.0)

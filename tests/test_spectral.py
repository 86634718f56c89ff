"""Transform kernel checks against a direct O(L^2) summation oracle."""

import numpy as np
import pytest

from ofdmce.spectral import dft, idft, idft_unscaled


def direct_dft(x: np.ndarray) -> np.ndarray:
    """Literal evaluation of X[k] = sum_l x[l] e^{-j2pi kl/L}.

    The phase index k*l is reduced mod L in exact integer arithmetic before
    the angle is formed, so the oracle does not lose precision to
    large-argument trig while staying a direct O(L^2) summation.
    """
    length = len(x)
    phases = np.exp(-2j * np.pi * np.arange(length) / length)
    out = np.zeros(length, dtype=complex)
    for k in range(length):
        acc = 0.0 + 0.0j
        for l in range(length):
            acc += x[l] * phases[(k * l) % length]
        out[k] = acc
    return out


def direct_idft(x: np.ndarray) -> np.ndarray:
    """Literal evaluation of x[i] = (1/L) sum_k X[k] e^{+j2pi ki/L}."""
    length = len(x)
    phases = np.exp(2j * np.pi * np.arange(length) / length)
    out = np.zeros(length, dtype=complex)
    for i in range(length):
        acc = 0.0 + 0.0j
        for k in range(length):
            acc += x[k] * phases[(k * i) % length]
        out[i] = acc / length
    return out


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# Known values
# ---------------------------------------------------------------------------


class TestKnownValues:
    def test_impulse_gives_flat_spectrum(self):
        """A unit impulse transforms to an all-ones spectrum."""
        out = dft(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out, np.ones(4), atol=1e-15)

    def test_single_tone_concentrates_on_one_bin(self):
        """x[l] = j^l is the k=1 tone, so all energy lands in bin 1."""
        out = dft(np.array([1, 1j, -1, -1j]))
        assert np.allclose(out, [0, 4, 0, 0], atol=1e-14), f"got {out}"

    def test_constant_vector_is_dc_only(self):
        out = dft(np.full(8, 2.0 + 0.0j))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 16.0
        assert np.allclose(out, expected, atol=1e-13)

    def test_length_one_is_identity(self):
        assert dft(np.array([3.0 - 1.0j]))[0] == 3.0 - 1.0j
        assert idft(np.array([3.0 - 1.0j]))[0] == 3.0 - 1.0j


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------


# Powers of two and lengths with odd factors; every length is supported.
ORACLE_LENGTHS = [4, 8, 64, 128, 512, 3, 6, 12, 100]


class TestDirectSummationOracle:
    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_forward_matches_direct_sum(self, length):
        """Kernel output agrees with the literal summation per element."""
        rng = np.random.default_rng(1000 + length)
        x = random_complex(rng, length)
        err = np.abs(dft(x) - direct_dft(x))
        assert err.max() <= 1e-12, f"L={length}: max deviation {err.max():.3e}"

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_inverse_matches_direct_sum(self, length):
        rng = np.random.default_rng(2000 + length)
        x = random_complex(rng, length)
        err = np.abs(idft(x) - direct_idft(x))
        assert err.max() <= 1e-12, f"L={length}: max deviation {err.max():.3e}"


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


class TestProperties:
    @pytest.mark.parametrize("length", [4, 8, 64, 128, 512])
    def test_round_trip(self, length):
        """idft(dft(x)) and dft(idft(x)) reproduce x."""
        rng = np.random.default_rng(3000 + length)
        x = random_complex(rng, length)
        assert np.abs(idft(dft(x)) - x).max() <= 1e-12
        assert np.abs(dft(idft(x)) - x).max() <= 1e-12

    @pytest.mark.parametrize("length", [1, 8, 12, 48, 96, 2048])
    def test_unscaled_inverse_conjugates_the_forward(self, length):
        """idft_unscaled(conj(x)) is bitwise conj(dft(x)), in place too, and
        L times idft(x) up to rounding."""
        rng = np.random.default_rng(4500 + length)
        x = random_complex(rng, 3, length)
        assert np.array_equal(idft_unscaled(np.conjugate(x)), np.conjugate(dft(x)))
        buffer = np.conjugate(x)
        assert idft_unscaled(buffer, out=buffer) is buffer
        assert np.array_equal(buffer, np.conjugate(dft(x)))
        assert np.abs(idft_unscaled(x) - length * idft(x)).max() <= 1e-12 * length

    @pytest.mark.parametrize("length", [8, 128, 512])
    def test_parseval(self, length):
        """sum|x|^2 equals (1/L) sum|X|^2 under the unnormalized forward."""
        rng = np.random.default_rng(4000 + length)
        x = random_complex(rng, length)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(dft(x)) ** 2) / length
        assert abs(time_energy - freq_energy) <= 1e-10 * time_energy

    def test_linearity(self):
        rng = np.random.default_rng(77)
        x, y = random_complex(rng, 64), random_complex(rng, 64)
        a, b = 2.0 - 1.5j, -0.25 + 3.0j
        combined = dft(a * x + b * y)
        assert np.abs(combined - (a * dft(x) + b * dft(y))).max() <= 1e-11

    def test_batched_rows_match_individual_calls(self):
        """Leading axes are independent batch dimensions."""
        rng = np.random.default_rng(88)
        block = random_complex(rng, 5, 3, 64)
        batched = dft(block)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(batched[i, j], dft(block[i, j]))


# ---------------------------------------------------------------------------
# Periodic-spectrum structure (what the multi-symbol estimator exploits)
# ---------------------------------------------------------------------------


class TestPeriodicSpectrum:
    def test_two_periods_closed_form(self):
        """idft of [a, b, a, b] is [(a+b)/2, 0, (a-b)/2, 0]."""
        a, b = 1.7 - 0.4j, -0.6 + 2.1j
        out = idft(np.array([a, b, a, b]))
        expected = np.array([(a + b) / 2, 0, (a - b) / 2, 0])
        assert np.allclose(out, expected, atol=1e-14), f"got {out}"

    @pytest.mark.parametrize("period,repeats", [(2, 2), (4, 2), (32, 4)])
    def test_repeated_spectrum_interleaves_zeros(self, period, repeats):
        """If X repeats with period P, idft(X) is zero off multiples of M
        and hits the P-point idft of one period on them."""
        rng = np.random.default_rng(period * 100 + repeats)
        one_period = random_complex(rng, period)
        tiled = np.tile(one_period, repeats)
        out = idft(tiled)
        on_grid = out[::repeats]
        off_grid = np.delete(out, np.arange(0, period * repeats, repeats))
        assert np.abs(off_grid).max() <= 1e-13
        assert np.abs(on_grid - idft(one_period)).max() <= 1e-13


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="Invalid number of FFT data points"):
            idft(np.zeros(0))

    def test_input_not_mutated(self):
        x = np.arange(8, dtype=complex)
        original = x.copy()
        dft(x)
        idft(x)
        assert np.array_equal(x, original)

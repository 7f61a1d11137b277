"""Pulse-train Fourier analysis: the Section 2.1 duty-cycle facts."""

import numpy as np
import pytest

from repro.errors import UnitsError
from repro.signals.pulse import (
    duty_cycle_sensitivity,
    pulse_harmonic_amplitude,
    pulse_harmonic_amplitudes,
    pulse_harmonic_power,
)


class TestHarmonicAmplitude:
    def test_dc_equals_duty_cycle(self):
        assert pulse_harmonic_amplitude(0, 0.3) == pytest.approx(0.3)

    def test_even_harmonics_vanish_at_half_duty(self):
        """Paper: 'amplitudes of the even harmonics trend toward zero' at 50%."""
        for n in (2, 4, 6, 8):
            assert pulse_harmonic_amplitude(n, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_odd_harmonics_maximal_at_half_duty(self):
        """Odd harmonics attain their global maximum value at 50% duty.

        (For n > 1 the same maximum 1/(pi n) recurs at other duties — e.g.
        d = 1/6 for n = 3 — so we check the value, not argmax uniqueness.)
        """
        duties = np.linspace(0.01, 0.99, 491)
        for n in (1, 3, 5):
            sweep_max = max(pulse_harmonic_amplitude(n, d) for d in duties)
            at_half = pulse_harmonic_amplitude(n, 0.5)
            assert at_half == pytest.approx(sweep_max, rel=1e-4)

    def test_odd_harmonic_value_at_half_duty(self):
        # |c_n| = 1/(pi n) for odd n at d = 0.5
        for n in (1, 3, 5):
            assert pulse_harmonic_amplitude(n, 0.5) == pytest.approx(1.0 / (np.pi * n))

    def test_small_duty_harmonics_similar_strength(self):
        """Paper: for <10% duty the first few harmonics decay ~linearly and
        remain comparable (the refresh comb's equal-strength harmonics)."""
        duty = 0.025
        values = [pulse_harmonic_amplitude(n, duty) for n in range(1, 9)]
        assert max(values) / min(values) < 1.2

    def test_small_duty_near_linear_decay(self):
        """Paper: at small duty the first few harmonics 'decay approximately
        linearly' — a straight-line fit captures them to within a few %."""
        duty = 0.05
        orders = np.arange(1, 6)
        values = np.array([pulse_harmonic_amplitude(int(n), duty) for n in orders])
        assert np.all(np.diff(values) < 0)
        slope, intercept = np.polyfit(orders, values, 1)
        residuals = values - (slope * orders + intercept)
        assert np.abs(residuals).max() < 0.02 * values.mean()

    def test_negative_harmonic_mirrors_positive(self):
        assert pulse_harmonic_amplitude(-3, 0.2) == pulse_harmonic_amplitude(3, 0.2)

    def test_symmetry_in_duty(self):
        """|c_n(d)| = |c_n(1-d)|: complementary pulse trains share magnitudes."""
        for n in range(1, 7):
            assert pulse_harmonic_amplitude(n, 0.2) == pytest.approx(
                pulse_harmonic_amplitude(n, 0.8)
            )

    def test_invalid_duty_rejected(self):
        with pytest.raises(UnitsError):
            pulse_harmonic_amplitude(1, 1.5)
        with pytest.raises(UnitsError):
            pulse_harmonic_amplitude(1, -0.1)

    def test_memoized_values_match_closed_form(self):
        # Repeated calls (served from the memo) equal |c_n| = d |sinc(n d)|
        # bit for bit, whether the duty is a float or a numpy scalar.
        for duty in (0.3, np.float64(0.3), 0.0256):
            for n in (1, 2, 3, -3, 7):
                expected = duty * abs(np.sinc(abs(n) * duty))
                for _ in range(2):
                    assert pulse_harmonic_amplitude(n, duty) == expected

    def test_invalid_duty_rejected_after_valid_calls(self):
        pulse_harmonic_amplitude(2, 0.4)
        with pytest.raises(UnitsError):
            pulse_harmonic_amplitude(2, 1.4)


class TestHarmonicVector:
    def test_matches_scalar(self):
        values = pulse_harmonic_amplitudes(6, 0.3)
        for n in range(1, 7):
            assert values[n - 1] == pytest.approx(pulse_harmonic_amplitude(n, 0.3))

    def test_length(self):
        assert len(pulse_harmonic_amplitudes(11, 0.1)) == 11

    def test_zero_harmonics_rejected(self):
        with pytest.raises(UnitsError):
            pulse_harmonic_amplitudes(0, 0.5)


class TestHarmonicPower:
    def test_parseval(self):
        """Total harmonic + DC power equals the mean-square of the pulse train.

        For a unit pulse train of duty d: mean square = d. The Fourier side:
        d^2 (DC) + sum_n 2|c_n|^2 -> d as the harmonic count grows.
        """
        duty = 0.3
        total = pulse_harmonic_power(0, duty)
        for n in range(1, 20000):
            total += pulse_harmonic_power(n, duty)
        assert total == pytest.approx(duty, rel=1e-3)

    def test_power_is_twice_amplitude_squared(self):
        amplitude = pulse_harmonic_amplitude(3, 0.2)
        assert pulse_harmonic_power(3, 0.2) == pytest.approx(2 * amplitude * amplitude)


class TestDutyCycleSensitivity:
    def test_first_harmonic_small_duty_positive(self):
        """More duty -> stronger fundamental: the PWM-to-AM mechanism."""
        assert duty_cycle_sensitivity(1, 0.1) > 0

    def test_matches_numeric_gradient(self):
        duty, eps = 0.11, 1e-5
        numeric = (
            pulse_harmonic_amplitude(2, duty + eps) - pulse_harmonic_amplitude(2, duty - eps)
        ) / (2 * eps)
        assert duty_cycle_sensitivity(2, duty) == pytest.approx(numeric, rel=1e-3)

    def test_odd_harmonic_flat_at_half_duty(self):
        """Odd harmonics are at their maximum at 50% -> zero sensitivity."""
        assert duty_cycle_sensitivity(1, 0.5) == pytest.approx(0.0, abs=1e-4)

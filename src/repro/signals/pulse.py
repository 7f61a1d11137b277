"""Fourier series of rectangular pulse trains.

Section 2.1 of the paper: "The spectrum of a pulse train with an arbitrary
duty cycle is equivalent via Fourier analysis to a set of sinusoids with
various amplitudes at fc and its multiples (harmonics)."

For a pulse train of unit amplitude, period ``T`` and duty cycle ``d`` the
complex Fourier coefficient of harmonic ``n`` has magnitude

    |c_n| = d * |sinc(n * d)|        (sinc(x) = sin(pi x) / (pi x))

which captures every property the paper leans on:

* at ``d = 0.5`` the even harmonics vanish and the odd ones are maximal;
* for small duty cycles (< 10 %) the first few harmonics (even and odd)
  decay approximately linearly and are of similar strength;
* every harmonic's amplitude is a function of the duty cycle, so pulse-width
  modulation amplitude-modulates *all* harmonics simultaneously (this is the
  physical mechanism behind the switching-regulator carriers FASE finds).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import UnitsError


def _validate_duty(duty_cycle):
    if not 0.0 <= duty_cycle <= 1.0:
        raise UnitsError(f"duty cycle must be within [0, 1], got {duty_cycle}")


def pulse_harmonic_amplitude(harmonic, duty_cycle):
    """Magnitude of the Fourier coefficient of one harmonic of a pulse train.

    ``harmonic`` 0 returns the DC component (equal to the duty cycle).
    Negative harmonics mirror positive ones (real signal).
    """
    _validate_duty(duty_cycle)
    n = abs(int(harmonic))
    if n == 0:
        return duty_cycle
    return _sinc_amplitude(n, float(duty_cycle))


@lru_cache(maxsize=4096)
def _sinc_amplitude(n, duty_cycle):
    """Memoized ``|c_n|`` for ``n >= 1``: emitters ask for the same few
    ``(order, duty)`` pairs on every render."""
    return duty_cycle * abs(np.sinc(n * duty_cycle))


def pulse_harmonic_amplitudes(n_harmonics, duty_cycle):
    """Vector of |c_n| for n = 1..n_harmonics."""
    _validate_duty(duty_cycle)
    if n_harmonics < 1:
        raise UnitsError("n_harmonics must be >= 1")
    orders = np.arange(1, n_harmonics + 1)
    return duty_cycle * np.abs(np.sinc(orders * duty_cycle))


def pulse_harmonic_power(harmonic, duty_cycle):
    """One-sided power of a harmonic (combining the +n and -n coefficients).

    For a unit-amplitude train the tone at harmonic ``n`` is
    ``2|c_n| cos(2 pi n f t + phi)`` whose mean-square power is ``2 |c_n|^2``.
    """
    amplitude = pulse_harmonic_amplitude(harmonic, duty_cycle)
    if int(harmonic) == 0:
        return amplitude * amplitude
    return 2.0 * amplitude * amplitude


def duty_cycle_sensitivity(harmonic, duty_cycle, delta=1e-6):
    """d|c_n|/dd — how strongly harmonic ``n`` responds to PWM.

    A switching regulator compensates for load current by moving its duty
    cycle; this derivative is the small-signal AM gain of each harmonic.
    Computed by a symmetric finite difference (the closed form has a
    removable kink at sinc zero crossings).
    """
    _validate_duty(duty_cycle)
    lo = max(duty_cycle - delta, 0.0)
    hi = min(duty_cycle + delta, 1.0)
    if hi == lo:
        raise UnitsError("duty cycle interval collapsed; use a smaller delta")
    return (
        pulse_harmonic_amplitude(harmonic, hi) - pulse_harmonic_amplitude(harmonic, lo)
    ) / (hi - lo)

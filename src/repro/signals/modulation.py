"""AM/FM side-band synthesis for alternation-modulated carriers.

This module turns "the micro-benchmark alternates activity X and activity Y
at frequency falt" into concrete spectral lines around a carrier, following
Section 2.1-2.2 of the paper:

* The alternation is (nearly) a square wave, so side-bands appear at
  ``fc ± k*falt`` with pulse-train Fourier magnitudes |c_k| = d*sinc(k*d).
* Execution-time jitter attenuates and broadens higher alternation
  harmonics ("the time each repetition takes is not always the same").
* The side-band *line shape* inherits the carrier's own instability
  (Figure 3), which the emitter applies when rendering; here we only carry
  the *extra* broadening contributed by the alternation jitter.

FM (constant-on-time regulators, Section 4.4) is modeled by dwell lines: the
oscillator spends a ``duty`` fraction of time at one switching frequency and
the rest at another. An incoherent (jittery) oscillator retains no phase
coherence across alternation periods, so no falt-spaced side-band comb
survives — the mechanism by which FASE correctly ignores FM carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import UnitsError
from .pulse import pulse_harmonic_amplitude


@dataclass(frozen=True)
class SpectralLine:
    """One spectral line relative to a carrier.

    ``offset``      frequency offset from the carrier in Hz (0 = the carrier
                    itself; ±k*falt for alternation side-bands).
    ``power``       line power in the emitter's linear power unit.
    ``extra_width`` additional Gaussian broadening (Hz, one sigma) to apply
                    on top of the carrier's own line shape.
    ``order``       which alternation harmonic produced the line (0 for the
                    carrier, ±k for side-bands); kept for diagnostics.
    """

    offset: float
    power: float
    extra_width: float = 0.0
    order: int = 0


def _jitter_attenuation(order, jitter_fraction):
    """Coherence loss of alternation harmonic ``order`` under timing jitter.

    With RMS period jitter ``jitter_fraction * Talt`` the phase of harmonic
    k wanders by ``2 pi k * jitter_fraction`` per alternation, giving the
    usual Gaussian coherence factor exp(-0.5 * (2 pi k j)^2).
    """
    phase_sigma = 2.0 * np.pi * abs(order) * jitter_fraction
    return float(np.exp(-0.5 * phase_sigma * phase_sigma))


def alternation_coefficients(n_harmonics, duty_cycle=0.5, jitter_fraction=0.0):
    """|c_k| for k = 1..n_harmonics of the jittered alternation waveform."""
    return _alternation_coefficients(n_harmonics, duty_cycle, jitter_fraction).copy()


@lru_cache(maxsize=256)
def _alternation_coefficients(n_harmonics, duty_cycle, jitter_fraction):
    """Memoized, read-only :func:`alternation_coefficients`.

    Every emitter harmonic of every capture asks for the same few
    ``(n_harmonics, duty_cycle, jitter_fraction)`` triples.
    """
    if jitter_fraction < 0:
        raise UnitsError("jitter fraction must be non-negative")
    orders = np.arange(1, n_harmonics + 1)
    base = np.array([pulse_harmonic_amplitude(int(k), duty_cycle) for k in orders])
    atten = np.array([_jitter_attenuation(int(k), jitter_fraction) for k in orders])
    coefficients = base * atten
    coefficients.flags.writeable = False
    return coefficients


def am_sideband_lines(
    amplitude_x,
    amplitude_y,
    falt,
    duty_cycle=0.5,
    n_harmonics=5,
    jitter_fraction=0.0,
    power_scale=1.0,
):
    """Spectral lines of a carrier whose amplitude alternates between X and Y.

    ``amplitude_x``/``amplitude_y`` are the carrier's envelope amplitudes
    (arbitrary linear units) during the X and Y halves of the alternation.
    Returns a list of :class:`SpectralLine` containing the carrier line at
    offset 0 and side-band lines at ±k*falt for k = 1..n_harmonics.

    Derivation: with pulse train p(t) of duty d, the envelope is
    ``A(t) = Ay + (Ax - Ay) p(t)`` whose mean is ``Abar = Ay + (Ax - Ay) d``
    and whose harmonic k has magnitude ``|c_k| (Ax - Ay)``. Mixing with the
    carrier puts power ``power_scale * Abar^2`` at fc and
    ``power_scale * |c_k|^2 (Ax - Ay)^2`` at each of fc ± k*falt.
    """
    if falt <= 0:
        raise UnitsError("alternation frequency must be positive")
    if amplitude_x < 0 or amplitude_y < 0:
        raise UnitsError("envelope amplitudes must be non-negative")
    if n_harmonics < 0:
        raise UnitsError("n_harmonics must be >= 0")
    mean_amp = amplitude_y + (amplitude_x - amplitude_y) * duty_cycle
    swing = amplitude_x - amplitude_y
    lines = [SpectralLine(offset=0.0, power=power_scale * mean_amp * mean_amp, order=0)]
    if swing == 0.0 or n_harmonics == 0:
        return lines
    coefficients = _alternation_coefficients(n_harmonics, duty_cycle, jitter_fraction)
    for k, c_k in enumerate(coefficients, start=1):
        power = power_scale * (c_k * swing) ** 2
        if power <= 0:
            continue
        width = abs(k) * falt * jitter_fraction
        lines.append(SpectralLine(offset=k * falt, power=power, extra_width=width, order=k))
        lines.append(SpectralLine(offset=-k * falt, power=power, extra_width=width, order=-k))
    return lines


def fm_dwell_lines(frequency_x, frequency_y, duty_cycle=0.5, power=1.0, smear_fraction=0.1):
    """Dwell-time lines of an incoherent frequency-alternating oscillator.

    The oscillator runs at ``frequency_x`` for a ``duty_cycle`` fraction of
    each alternation and at ``frequency_y`` otherwise. Because the paper's
    constant-on-time regulator uses a jittery oscillator, the long-term
    spectrum is simply two humps weighted by dwell time — with no
    falt-tracking side-band comb for FASE to latch onto.

    Returns absolute-frequency :class:`SpectralLine` objects (``offset`` is
    the absolute frequency here; the FM emitter renders them directly).
    ``smear_fraction`` widens each hump by a fraction of the frequency
    separation, modeling the regulator's transient slewing between rates.
    """
    if frequency_x <= 0 or frequency_y <= 0:
        raise UnitsError("dwell frequencies must be positive")
    if not 0.0 <= duty_cycle <= 1.0:
        raise UnitsError("duty cycle must be within [0, 1]")
    separation = abs(frequency_x - frequency_y)
    width = max(separation * smear_fraction, 1e-9)
    return [
        SpectralLine(offset=frequency_x, power=power * duty_cycle, extra_width=width, order=1),
        SpectralLine(
            offset=frequency_y, power=power * (1.0 - duty_cycle), extra_width=width, order=-1
        ),
    ]


def modulation_depth_from_levels(amplitude_x, amplitude_y):
    """AM modulation depth m = |Ax - Ay| / (Ax + Ay), in [0, 1]."""
    if amplitude_x < 0 or amplitude_y < 0:
        raise UnitsError("envelope amplitudes must be non-negative")
    total = amplitude_x + amplitude_y
    if total == 0:
        return 0.0
    return abs(amplitude_x - amplitude_y) / total

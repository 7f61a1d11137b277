"""Spectrogram-based FM confirmation (Section 4.4).

"This carrier was emanated by the voltage regulator circuitry for the
processor cores, and was frequency-modulated (we confirmed this with a
spectrogram of the modulation)." This module is that confirmation step:
track the instantaneous frequency of a captured waveform over time and
test whether it alternates between two values (FM/FSK) rather than holding
one frequency with varying amplitude (AM).
"""

from __future__ import annotations

import numpy as np

from ..errors import DetectionError


def spectrogram_frequency_track(iq, sample_rate, nperseg=256, noverlap=None):
    """Instantaneous-frequency track: the spectrogram's per-slice peak.

    Returns ``(times, frequencies)`` with frequencies as baseband offsets.
    """
    iq = np.asarray(iq)
    if iq.ndim != 1 or iq.size < 4 * nperseg:
        raise DetectionError("need at least 4*nperseg IQ samples")
    if sample_rate <= 0:
        raise DetectionError("sample rate must be positive")
    from scipy.signal import spectrogram

    freqs, times, spec = spectrogram(
        iq,
        fs=sample_rate,
        nperseg=nperseg,
        noverlap=noverlap if noverlap is not None else nperseg // 2,
        return_onesided=False,
        detrend=False,
        mode="psd",
    )
    order = np.argsort(freqs)
    freqs = freqs[order]
    spec = spec[order]
    track = freqs[np.argmax(spec, axis=0)]
    return times, track


def is_frequency_modulated(iq, sample_rate, min_separation_hz, nperseg=256):
    """Whether the waveform's instantaneous frequency is bimodal.

    Splits the frequency track at its median and tests that the two halves
    are separated by at least ``min_separation_hz`` and that the track
    actually alternates (both modes occupy a meaningful share of time).
    An AM carrier holds one frequency, so it fails both tests.
    """
    if min_separation_hz <= 0:
        raise DetectionError("min separation must be positive")
    _, track = spectrogram_frequency_track(iq, sample_rate, nperseg=nperseg)
    median = float(np.median(track))
    high = track[track > median]
    low = track[track <= median]
    if len(high) < 0.1 * len(track) or len(low) < 0.1 * len(track):
        return False
    separation = float(np.mean(high) - np.mean(low))
    return separation >= min_separation_hz

"""Peak detection for heuristic outputs and spectra.

The paper defers peak detection to the literature ("[29] and [4] cover such
algorithms") and reports that the heuristic's output "had strong spikes" so
inspection was easy. We implement the cited family properly:

* Palshikar's S1/S2 spike functions (local max-/mean-difference scores), and
* a prominence-based detector built on them with noise-adaptive thresholds,

so the full pipeline is automated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError


@dataclass(frozen=True)
class Peak:
    """A detected peak: bin index, value at the peak, and its score."""

    index: int
    value: float
    score: float


def exact_median(values):
    """``np.median(values)``, byte for byte, from one single-kth selection.

    ``np.median`` partitions at several kth at once (both middle ranks
    plus the last element, for its NaN check), which falls off numpy's
    SIMD select path. One ``np.partition`` at ``n // 2`` finds the upper
    middle value; for even ``n`` the lower one is the maximum of the
    lower half. The middle values are then averaged with ``np.mean``
    over a slice of the partition, exactly as ``np.median`` does, so
    even signed zeros come out the same. Empty or NaN-holding input is
    left to ``np.median`` itself.
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        return np.median(values)
    half = n // 2
    part = np.partition(values.ravel(), half)
    # Elements at and past ``half`` hold the sorted tail, where any NaN
    # sorts, so their max is NaN exactly when the input holds one.
    if np.isnan(part[half:].max()):
        return np.median(values)
    if n % 2:
        return np.mean(part[half : half + 1])
    part[half - 1] = part[:half].max()
    return np.mean(part[half - 1 : half + 1])


def robust_scale(values):
    """``(median, sigma)`` of a series: its MAD scaled to a normal sigma.

    A zero MAD (more than half the values tied) falls back to the
    standard deviation, and a constant series to a sigma of 1.
    """
    median = float(exact_median(values))
    mad = float(exact_median(np.abs(values - median)))
    sigma = 1.4826 * mad
    if sigma <= 0:
        sigma = float(np.std(values)) or 1.0
    return median, sigma


def _validate_series(values, window):
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DetectionError("peak detection expects a 1-D series")
    if window < 1:
        raise DetectionError("window must be >= 1")
    if values.size < 2 * window + 1:
        raise DetectionError("series shorter than the detection window")
    return values


def _windowed_neighbors(values, window):
    """(left, right) arrays of shape (n, window) of neighbors per position.

    Edges are padded with the edge value so scores stay defined there.
    """
    padded = np.pad(values, window, mode="edge")
    n = values.size
    left = np.empty((n, window), dtype=float)
    right = np.empty((n, window), dtype=float)
    for k in range(1, window + 1):
        left[:, k - 1] = padded[window - k : window - k + n]
        right[:, k - 1] = padded[window + k : window + k + n]
    return left, right


def palshikar_s1(values, window=3):
    """Palshikar's S1 spike function.

    S1(i) = (max over left window of (x_i - neighbor) +
             max over right window of (x_i - neighbor)) / 2.
    Large positive values mark points that stand above both sides.
    """
    values = _validate_series(values, window)
    left, right = _windowed_neighbors(values, window)
    x = values[:, None]
    return ((x - left).max(axis=1) + (x - right).max(axis=1)) / 2.0


def palshikar_s2(values, window=3):
    """Palshikar's S2 spike function: mean differences instead of max."""
    values = _validate_series(values, window)
    left, right = _windowed_neighbors(values, window)
    x = values[:, None]
    return ((x - left).mean(axis=1) + (x - right).mean(axis=1)) / 2.0


def detect_peaks(values, window=3, n_sigma=6.0, min_value=None, min_separation=None):
    """Find outstanding peaks in a series.

    Scores every point with Palshikar S1, flags points whose score exceeds
    the global score mean by ``n_sigma`` robust standard deviations (median
    absolute deviation scaled to sigma) and which are local maxima, then
    enforces ``min_separation`` bins between reported peaks by keeping the
    strongest in each cluster.

    ``min_value`` additionally requires the *series value* at the peak to
    exceed a floor — used by carrier detection to require score > 1 regions
    (the heuristic is ~1 off-carrier by construction).
    """
    values = _validate_series(values, window)
    scores = palshikar_s1(values, window)
    positive = scores[scores > 0]
    if positive.size == 0:
        return []
    median, sigma = robust_scale(scores)
    threshold = median + n_sigma * sigma
    candidates = []
    for i in range(1, values.size - 1):
        if scores[i] <= threshold:
            continue
        if values[i] < values[i - 1] or values[i] < values[i + 1]:
            continue
        if min_value is not None and values[i] < min_value:
            continue
        candidates.append(Peak(index=i, value=float(values[i]), score=float(scores[i])))
    if not candidates:
        return []
    if min_separation is None:
        min_separation = window
    candidates.sort(key=lambda p: p.value, reverse=True)
    kept = []
    for peak in candidates:
        if all(abs(peak.index - other.index) >= min_separation for other in kept):
            kept.append(peak)
    kept.sort(key=lambda p: p.index)
    return kept

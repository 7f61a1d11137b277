"""Carrier detection on top of the heuristic scores.

The paper stops at "visually inspecting the heuristic function's output to
identify peaks", deferring algorithms to its refs [29]/[4]; we automate the
step with the Palshikar peak detector from :mod:`repro.spectrum.peaks`:

1. compute F_h(f) for every configured harmonic (±1..±5),
2. fuse them into a combined log-evidence curve,
3. find above-threshold score clusters,
4. verify each contributing harmonic by the paper's movement rule, and
5. record the carrier's frequency (from the movement fit), magnitude, and
   estimated modulation depth.

Detection of a single harmonic of falt in a single side-band is sufficient
(Section 2.3), so a carrier is kept when at least one harmonic's score
clears the threshold *and* passes movement verification.

Movement verification implements Section 2.3's uniqueness argument: "the
observed spacing between the side-band peaks is unique for each harmonic
(2h∆ for the positive 2nd harmonic, -3h∆ for the negative third harmonic,
etc.)". A side-band scored under harmonic ``h`` must have its spectral
peak at ``f + h*falt_i`` in *every* measurement — its position regressed
against falt_i must have slope ``h``. Strong side-bands of *other*
carriers produce partial score alignments under the wrong harmonic index
("ghosts"), but their measured slope is their own k ≠ h, so the fit
rejects them. The fit's intercept is the carrier frequency, which is how
FASE "computes the frequency of the carrier" without needing to see the
carrier peak itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError
from ..telemetry import current_telemetry
from ..units import format_frequency, milliwatts_to_dbm
from .heuristic import HeuristicScorer


def _window_backgrounds(segments):
    """25th-percentile power of each movement-search window.

    A low quantile, because a window may hold broad structure (e.g. a
    spread-spectrum pedestal) that would inflate a median. Equal-length
    windows (all but those at the grid edges) share one ``np.percentile``
    call, which gives the same values as one call per window.
    """
    if len({len(segment) for segment in segments}) == 1:
        return np.percentile(np.stack(segments), 25.0, axis=1)
    return [np.percentile(segment, 25.0) for segment in segments]


@dataclass(frozen=True)
class CarrierDetection:
    """One detected activity-modulated carrier.

    ``combined_score`` is the scorer's fused log10 evidence at the
    carrier ("decades of evidence",
    :meth:`~repro.core.heuristic.HeuristicScorer.combined_score`) — the
    unit :meth:`describe` reports. Detection thresholds operate on the
    separate combined *z-score*, which is not stored here.
    """

    frequency: float
    combined_score: float
    harmonic_scores: dict
    magnitude_dbm: float
    modulation_depth: float
    activity_label: str = ""

    @property
    def detected_harmonics(self):
        """Alternation harmonics whose F_h fired at this carrier."""
        return sorted(self.harmonic_scores)

    def describe(self):
        harmonics = ", ".join(f"{h:+d}" for h in self.detected_harmonics)
        return (
            f"carrier at {format_frequency(self.frequency)}: "
            f"{self.magnitude_dbm:.1f} dBm, evidence {self.combined_score:.1f} decades "
            f"(harmonics {harmonics}), depth {self.modulation_depth:.2f}"
        )


class CarrierDetector:
    """Finds activity-modulated carriers in a campaign result."""

    def __init__(
        self,
        scorer=None,
        min_combined_z=5.5,
        min_harmonic_z=4.5,
        min_harmonics=1,
        min_separation_hz=10e3,
        peak_window_bins=5,
        smoothing_bins=3,
        slope_tolerance=0.35,
        movement_window_hz=None,
    ):
        if min_combined_z <= 0:
            raise DetectionError("min combined z must be positive")
        if min_harmonic_z <= 0:
            raise DetectionError("min harmonic z must be positive")
        if min_harmonics < 1:
            raise DetectionError("min_harmonics must be >= 1")
        if min_separation_hz <= 0:
            raise DetectionError("min separation must be positive")
        if smoothing_bins < 1:
            raise DetectionError("smoothing_bins must be >= 1")
        self.scorer = scorer or HeuristicScorer()
        self.min_combined_z = float(min_combined_z)
        self.min_harmonic_z = float(min_harmonic_z)
        self.min_harmonics = int(min_harmonics)
        self.min_separation_hz = float(min_separation_hz)
        self.peak_window_bins = int(peak_window_bins)
        self.smoothing_bins = int(smoothing_bins)
        if slope_tolerance <= 0 or slope_tolerance >= 0.5:
            raise DetectionError("slope tolerance must be in (0, 0.5)")
        self.slope_tolerance = float(slope_tolerance)
        self.movement_window_hz = movement_window_hz

    # ------------------------------------------------------------------

    def detect(self, result):
        """All carriers modulated by the campaign's activity pair.

        One :class:`ShiftedPowerCache` is built per run and shared between
        the Eq. 1/2 scoring pass and the movement-verification /
        characterization reads, so no spectrum is stacked or interpolated
        twice (reference-mode scorers skip the cache by design).

        A degraded result (screen-flagged captures) is detected on its
        leave-one-out view: flagged captures contribute neither scores
        nor movement-fit points nor characterization reads. With no
        flags the view *is* the result, so clean behavior is unchanged.
        """
        view = getattr(result, "scoring_view", None)
        if view is not None:
            result = view()
        result.validate()
        telemetry = current_telemetry()
        with telemetry.span(
            "detect", stage="detect", label=result.activity_label
        ) as detect_span:
            cache_for = getattr(self.scorer, "cache_for", None)
            cache = cache_for(result) if cache_for is not None else None
            if cache is not None:
                scores = self.scorer.all_scores(result, cache=cache)
            else:
                scores = self.scorer.all_scores(result)
            with telemetry.span("zscore", stage="zscore", label=result.activity_label):
                zscores = self.scorer.harmonic_zscores(result, scores=scores)
            combined = self.scorer.combined_zscore(result, zscores=zscores)
            smoothed = self._smooth(combined)
            # Thresholding/clustering run on the z-score, but the reported
            # combined_score is the scorer's log10 evidence — the unit
            # describe() claims ("decades").
            evidence = self.scorer.combined_score(result, scores=scores)
            grid = result.grid
            min_separation_bins = max(int(round(self.min_separation_hz / grid.resolution)), 2)
            detections = []
            for start, stop in self._cluster_runs(smoothed, min_separation_bins):
                for index in self._cluster_candidates(
                    smoothed, start, stop, min_separation_bins
                ):
                    detection = self._build_detection(
                        result, scores, zscores, evidence, index, cache=cache
                    )
                    if detection is None:
                        continue
                    if any(
                        abs(detection.frequency - other.frequency) < self.min_separation_hz
                        for other in detections
                    ):
                        continue  # same carrier reached from a second candidate
                    detections.append(detection)
            detections.sort(key=lambda d: d.frequency)
            detect_span.set(n_detections=len(detections))
            if cache is not None:
                telemetry.count("scoring_cache_hits", cache.hits)
                telemetry.count("scoring_cache_misses", cache.misses)
        return detections

    # ------------------------------------------------------------------

    def _smooth(self, array):
        """Boxcar smoothing: averages down bin noise, keeps multi-bin peaks."""
        if self.smoothing_bins <= 1:
            return array
        kernel = np.ones(self.smoothing_bins) / self.smoothing_bins
        return np.convolve(array, kernel, mode="same")

    def _cluster_runs(self, smoothed, min_separation_bins):
        """(start, stop) index runs where the score clears the threshold.

        A carrier produces a *hump* in the combined z-score as wide as its
        spectral line (many bins for Gaussian regulator lines), not a sharp
        spike, so local-prominence peak pickers under-fire; instead we take
        connected above-threshold regions, merging regions closer than the
        separation.
        """
        above = smoothed >= self.min_combined_z
        if not np.any(above):
            return []
        indices = np.flatnonzero(above)
        runs = []
        run_start = indices[0]
        previous = indices[0]
        for idx in indices[1:]:
            if idx - previous >= min_separation_bins:
                runs.append((int(run_start), int(previous)))
                run_start = idx
            previous = idx
        runs.append((int(run_start), int(previous)))
        return runs

    def _cluster_candidates(self, smoothed, start, stop, min_separation_bins):
        """Candidate carrier indices within one cluster, strongest first.

        A cluster can contain more than one score maximum — a genuine
        carrier bridged (via smoothing and the above-threshold gap rule) to
        a stronger score artifact that movement verification will reject,
        or several genuine carriers. Every above-threshold local maximum,
        spaced by the separation, is offered; verification decides.
        """
        segment = smoothed[start : stop + 1]
        order = np.argsort(segment)[::-1]
        candidates = []
        for offset in order:
            if segment[offset] < self.min_combined_z:
                break
            index = start + int(offset)
            if all(abs(index - c) >= min_separation_bins for c in candidates):
                candidates.append(index)
        return candidates

    def _build_detection(self, result, scores, zscores, evidence, index, cache=None):
        grid = result.grid
        candidate_frequency = grid.frequency_at(index)
        harmonic_scores = {}
        intercepts = []
        for h, z in zscores.items():
            peak_z = float(self._window(z, index).max())
            if peak_z < self.min_harmonic_z:
                continue
            verdict = self._verify_movement(result, candidate_frequency, h, cache=cache)
            if verdict is None:
                continue
            harmonic_scores[h] = float(self._window(scores[h], index).max())
            intercepts.append(verdict)
        if len(harmonic_scores) < self.min_harmonics:
            return None
        # A carrier whose ONLY evidence is a single higher-order alternation
        # harmonic is implausible: |c_1| > |c_k| (k >= 2) for any duty
        # cycle, so if a higher harmonic is visible the 1st must be too
        # unless obscured — and an obscured ±1 pair plus a clean lone ±k
        # across all five spectra is far likelier to be a chance alignment
        # of other carriers' side-bands. Require either a ±1 harmonic or at
        # least two corroborating harmonics.
        if len(harmonic_scores) == 1 and abs(next(iter(harmonic_scores))) >= 2:
            return None
        frequency = float(np.median(intercepts))
        if not grid.contains(frequency):
            frequency = candidate_frequency
        refined_index = grid.index_of(frequency)
        magnitude_dbm, modulation_depth = self._characterize(result, refined_index, cache=cache)
        return CarrierDetection(
            frequency=frequency,
            combined_score=float(evidence[index]),
            harmonic_scores=harmonic_scores,
            magnitude_dbm=magnitude_dbm,
            modulation_depth=modulation_depth,
            activity_label=result.activity_label,
        )

    def _verify_movement(
        self, result, frequency, harmonic, prominence_ratio=4.0, min_prominent=None, cache=None
    ):
        """Check that the scored side-band really moves with slope ``h``.

        Locates the side-band's spectral peak near ``frequency + h*falt_i``
        in each measurement (counting only *prominent* peaks — at least
        ``prominence_ratio`` above the window's median power — so obscured
        side-bands are skipped rather than fabricated from noise) and fits
        position = carrier + slope * falt_i. Three guards reject ghosts:

        * at least ``min_prominent`` prominent side-band peaks,
        * fitted slope within an absolute tolerance of ``h`` (the search
          window tracks the hypothesis, so noise peaks mimic the slope on
          average — but not tightly), and
        * small fit residuals: true side-bands sit on the line to within a
          few bins, noise peaks scatter across the whole window.

        Returns the fitted carrier frequency (the intercept) on success,
        ``None`` on failure.
        """
        grid = result.grid
        if min_prominent is None:
            # Four of five side-bands must be prominent in the paper's
            # setup; with fewer alternation frequencies require all but one
            # (verification weakens — which the N-ablation bench shows).
            min_prominent = max(2, min(4, len(result.measurements) - 1))
        window_hz = self.movement_window_hz
        if window_hz is None:
            # The search window must cover the side-band's position
            # uncertainty (its line width, a small multiple of the
            # resolution) and at least one falt step — but NOT much more:
            # a window that tracks the hypothesis over a wide span lets a
            # single strong static spur capture every measurement's argmax.
            f_delta = max(
                abs(result.falts[i + 1] - result.falts[i])
                for i in range(len(result.falts) - 1)
            )
            window_hz = max(20.0 * grid.resolution, f_delta)
        window_bins = max(int(round(window_hz / grid.resolution)), 2)
        # The shared cache's stacked power matrix serves the window reads;
        # without one (reference-mode scorer) fall back to the traces.
        power_rows = cache.power if cache is not None else None
        windows = []
        for row, measurement in enumerate(result.measurements):
            target = frequency + harmonic * measurement.falt
            if not grid.contains(target):
                continue
            center = grid.index_of(target)
            lo = max(center - window_bins, 0)
            hi = min(center + window_bins + 1, grid.n_bins)
            if power_rows is not None:
                segment = power_rows[row, lo:hi]
            else:
                segment = measurement.trace.power_mw[lo:hi]
            windows.append((lo, segment, measurement.falt))
        backgrounds = _window_backgrounds([segment for _, segment, _ in windows])
        positions = []
        falts = []
        for (lo, segment, falt), background in zip(windows, backgrounds):
            peak_offset = int(np.argmax(segment))
            background = float(background)
            if background > 0 and segment[peak_offset] < prominence_ratio * background:
                continue  # obscured or absent side-band: skip, don't invent
            positions.append(grid.frequency_at(lo + peak_offset))
            falts.append(falt)
        if len(positions) < min_prominent:
            return None
        falts = np.asarray(falts)
        positions = np.asarray(positions)
        residual_tolerance = max(3.0 * grid.resolution, 0.12 * window_hz)
        # Allow dropping outlier points down to min_prominent: a single
        # side-band whose window is captured by an unrelated static tone
        # must not veto the carrier ("we can reliably detect the presence
        # of modulation ... even if several of the side-band signals are
        # obscured", Section 2.3).
        while True:
            carrier = float(np.mean(positions - harmonic * falts))
            residuals = positions - (carrier + harmonic * falts)
            rms = float(np.sqrt(np.mean(residuals**2)))
            if rms <= residual_tolerance:
                break
            if len(positions) <= min_prominent:
                return None
            worst = int(np.argmax(np.abs(residuals)))
            positions = np.delete(positions, worst)
            falts = np.delete(falts, worst)
        if len(falts) >= 2 and np.ptp(falts) > 0:
            slope, _ = np.polyfit(falts, positions, 1)
            if abs(slope - harmonic) > self.slope_tolerance:
                return None
        if abs(carrier - frequency) > window_hz:
            return None  # inconsistent with the score cluster that proposed it
        return carrier

    def _window(self, array, index):
        lo = max(index - self.peak_window_bins, 0)
        hi = min(index + self.peak_window_bins + 1, len(array))
        return array[lo:hi]

    def _characterize(self, result, index, cache=None):
        """Carrier magnitude and modulation depth from the first spectrum.

        The carrier power is the strongest bin near the detected frequency;
        the first side-band power is read at ±falt1 from it. For a 50 %-duty
        square alternation, side-band k=1 power is (swing/pi)^2 against a
        carrier of mean-amplitude-squared, so depth = (pi/2) sqrt(Psb/Pc)
        (clamped to [0, 1]).
        """
        measurement = result.measurements[0]
        grid = measurement.trace.grid
        power = cache.power[0] if cache is not None else measurement.trace.power_mw
        carrier_window = self._window(power, index)
        carrier_power = float(carrier_window.max())
        magnitude_dbm = float(milliwatts_to_dbm(carrier_power))
        sideband_powers = []
        for sign in (+1, -1):
            offset_freq = grid.frequency_at(index) + sign * measurement.falt
            if not grid.contains(offset_freq):
                continue
            sb_window = self._window(power, grid.index_of(offset_freq))
            sideband_powers.append(float(sb_window.max()))
        if not sideband_powers or carrier_power <= 0:
            return magnitude_dbm, 0.0
        sideband_power = float(np.median(sideband_powers))
        depth = (np.pi / 2.0) * np.sqrt(sideband_power / carrier_power)
        return magnitude_dbm, float(np.clip(depth, 0.0, 1.0))

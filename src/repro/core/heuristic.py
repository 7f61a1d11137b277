"""The FASE heuristic (Equations 1 and 2).

For a harmonic ``h`` of the alternation frequency, the score at candidate
carrier frequency ``f`` is

    F_h(f)    = prod_i F_{i,h}(f)                               (Eq. 1)
    F_{i,h}(f) = SP_i(f + h*falt_i) / ( (1/(N-1)) sum_{j!=i} SP_j(f + h*falt_i) )   (Eq. 2)

Sub-score ``i`` reads spectrum ``i`` at its own shifted side-band position
``f + h*falt_i`` and normalizes by the *other* spectra **at that same
absolute frequency** — the paper's prose is explicit: "At the exact same
frequency in at least some of the other spectra, however, the signal will
not be as strong because these spectra have peaks at falt_j and so their
side-band signal is at a different frequency." A side-band that moves with
falt therefore scores ≫ 1 in every sub-score (each spectrum is strong
exactly where the others are not), while anything stationary — radio
stations, unmodulated combs, noise hills — cancels to ≈ 1. (Shifting the
denominator spectra by their *own* falt_j instead would park every
spectrum on its own side-band peak and flatten the score to 1 everywhere,
including at real carriers.)

Spectra are combined in *linear power* — the ratio of Eq. 2 is a power
ratio, and the figures' dBm axes are display-only.

Two implementations compute the same numbers: the default vectorized
pipeline interpolates every sub-score through a shared
:class:`~repro.core.scoring.ShiftedPowerCache` and folds it straight into
one accumulator per harmonic (log-space accumulation preserved);
``HeuristicScorer(vectorized=False)`` keeps the naive per-trace
``np.interp`` path as the reference implementation for tests and
benchmarks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import DetectionError
from ..spectrum.peaks import robust_scale, robust_scale_into
from ..telemetry import current_telemetry
from .campaign import CampaignResult
from .scoring import ShiftedPowerCache, shift_valid_mask

#: Floor (mW) applied to shifted powers before ratios. Far below the
#: thermal noise per bin of any realistic capture (-148 dBm ≈ 1.6e-15 mW)
#: so it only guards truly empty synthetic traces.
DEFAULT_POWER_FLOOR = 1e-22


class ScoreFold(NamedTuple):
    """What one pass over a campaign's ``F_h`` keeps (:meth:`HeuristicScorer.fold`).

    ``scales`` maps each harmonic to the ``(median, sigma)`` of its
    ``log10 F_h``, from which :meth:`HeuristicScorer.zscore_window`
    recomputes any z window; ``combined_z`` and ``evidence`` are
    :meth:`~HeuristicScorer.combined_zscore` and
    :meth:`~HeuristicScorer.combined_score` over the whole grid.
    """

    scales: dict
    combined_z: np.ndarray
    evidence: np.ndarray


def _add_positive_square(combined, z, work):
    """``combined += max(z, 0) ** 2`` through the scratch vector ``work``."""
    np.maximum(z, 0.0, out=work)
    work **= 2
    combined += work


class HeuristicScorer:
    """Computes Eq. 1/2 score arrays over a campaign's grid."""

    def __init__(self, power_floor=DEFAULT_POWER_FLOOR, clip_subscore=1e9, vectorized=True):
        if power_floor <= 0:
            raise DetectionError("power floor must be positive")
        if clip_subscore <= 1:
            raise DetectionError("subscore clip must exceed 1")
        self.power_floor = float(power_floor)
        self.clip_subscore = float(clip_subscore)
        self.vectorized = bool(vectorized)

    # ------------------------------------------------------------------

    def cache_for(self, traces_or_result):
        """A :class:`ShiftedPowerCache` over a trace list or campaign result.

        Returns ``None`` in reference mode, where every evaluation goes
        through per-trace ``np.interp`` by design.
        """
        if not self.vectorized:
            return None
        traces = getattr(traces_or_result, "traces", traces_or_result)
        return ShiftedPowerCache(traces)

    def subscores(self, traces, falts, harmonic, cache=None):
        """The N sub-scores F_{i,h}(f) as an (N, n_bins) matrix.

        For each ``i`` every spectrum is evaluated at the *same* shifted
        frequency ``f + h*falt_i``; the sub-score is spectrum i over the
        mean of the others there. Bins whose shifted frequency falls
        outside the measured span have no data and are forced to 1.
        """
        self._validate(traces, falts, harmonic)
        if not self.vectorized:
            return self._subscores_reference(traces, falts, harmonic)
        if cache is None:
            cache = ShiftedPowerCache(traces)
        subs = np.empty((cache.n_traces, cache.n_bins), dtype=float)
        denom = np.empty(cache.n_bins, dtype=float)
        for i, falt in enumerate(falts):
            self._subscore(cache, i, harmonic * falt, subs[i], denom)
        return subs

    def _subscore(self, cache, index, shift, sub, denom):
        """Sub-score F_{i,h} of trace ``index`` at ``shift``, written into ``sub``.

        ``denom`` is a grid-length scratch buffer: the floored total at
        ``shift`` minus row ``index``, averaged over the other N-1 traces.
        """
        floor = self.power_floor
        shift = float(shift)
        cache.interpolate_into(index, shift, floor, sub, denom)
        np.maximum(sub, floor, out=sub)
        np.subtract(denom, sub, out=denom)
        denom *= 1.0 / (cache.n_traces - 1)
        np.maximum(denom, floor, out=denom)
        np.divide(sub, denom, out=sub)
        np.clip(sub, 1.0 / self.clip_subscore, self.clip_subscore, out=sub)
        # Bins whose shifted position has no measured data sit outside
        # one contiguous in-span run; force both flanks to 1.
        valid_lo, valid_hi = cache.valid_range(shift)
        sub[:valid_lo] = 1.0
        sub[valid_hi:] = 1.0
        return sub

    def _streamed_score(self, cache, falts, harmonic, sub, denom):
        """F_h (Eq. 1) with each sub-score folded into one accumulator.

        Multiplies (or, on the log path, adds the logs of) the rows in
        falt order — the same sequential reduction ``np.prod(stack,
        axis=0)`` and ``np.sum(np.log(stack), axis=0)`` perform over a
        non-contiguous axis, so the bytes match :meth:`_accumulate`.
        ``sub`` and ``denom`` are grid-length scratch buffers, shared by
        every harmonic of one pass; only the accumulator is new.
        """
        log_path = self._log_path(len(falts))
        acc = np.empty(cache.n_bins, dtype=float)
        for i, falt in enumerate(falts):
            row = self._subscore(cache, i, harmonic * falt, sub if i else acc, denom)
            if log_path:
                np.log(row, out=row)
            if i:
                (np.add if log_path else np.multiply)(acc, row, out=acc)
        return np.exp(acc, out=acc) if log_path else acc

    def _subscores_reference(self, traces, falts, harmonic):
        """The naive path: one ``np.interp`` per trace per shift."""
        grid = traces[0].grid
        n = len(traces)
        subs = np.empty((n, grid.n_bins), dtype=float)
        for i, falt in enumerate(falts):
            shift = harmonic * falt
            shifted = np.empty((n, grid.n_bins), dtype=float)
            for j, trace in enumerate(traces):
                shifted[j] = trace.shifted_power(shift)
            shifted = np.maximum(shifted, self.power_floor)
            mean_others = (shifted.sum(axis=0) - shifted[i]) / (n - 1)
            sub = shifted[i] / np.maximum(mean_others, self.power_floor)
            sub = np.clip(sub, 1.0 / self.clip_subscore, self.clip_subscore)
            sub[~shift_valid_mask(grid, shift)] = 1.0
            subs[i] = sub
        return subs

    def harmonic_score(self, traces, falts, harmonic, cache=None):
        """F_h(f) over the whole grid (Eq. 1)."""
        subs = self.subscores(traces, falts, harmonic, cache=cache)
        return self._accumulate(subs)

    def all_scores(self, result, cache=None):
        """{harmonic: F_h array} for every configured harmonic.

        The vectorized path streams each harmonic into one accumulator
        and memoizes the finished ``F_h`` on the cache (read-only arrays),
        so a second call with the same ``cache`` and parameters is served
        from the memo; pass ``cache`` to share it with other consumers
        (the detector reads its stacked power matrix).

        A degraded result (screen-flagged captures) is scored through its
        leave-one-out view: the flagged falt indices are excluded and the
        Eq. 2 denominator renormalizes over the remaining spectra. A
        caller-supplied ``cache`` must already cover that view (the
        detector builds its cache from the view for exactly this reason).
        """
        view = getattr(result, "scoring_view", None)
        if view is not None:
            result = view()
        result.validate()
        harmonics = tuple(result.config.harmonics)
        telemetry = current_telemetry()
        with telemetry.span(
            "score", stage="score", label=result.activity_label, n_harmonics=len(harmonics)
        ):
            if not self.vectorized:
                return {
                    h: self.harmonic_score(result.traces, result.falts, h)
                    for h in harmonics
                }
            owns_cache = cache is None
            if owns_cache:
                cache = ShiftedPowerCache.from_result(result)
            falts = result.falts
            key = (tuple(map(float, falts)), self.power_floor, self.clip_subscore)
            sub, denom = np.empty(cache.n_bins), np.empty(cache.n_bins)
            scores = {
                h: cache.score(
                    (h, *key), lambda h=h: self._streamed_score(cache, falts, h, sub, denom)
                )
                for h in harmonics
            }
            if owns_cache:
                # Whoever builds the cache flushes its counters; a shared
                # cache is flushed by its owner (the detector) instead.
                telemetry.count("scoring_cache_hits", cache.hits)
                telemetry.count("scoring_cache_misses", cache.misses)
            return scores

    def scores_excluding(self, result, exclude_index, cache=None):
        """Leave-one-out scores: falt index ``exclude_index`` held out.

        The excluded spectrum contributes neither a sub-score row nor a
        term in any Eq. 2 denominator; the remaining N-1 spectra
        renormalize exactly as if the campaign had never measured it.
        A ``cache`` built over the *full* result is reused via
        :meth:`ShiftedPowerCache.subset`, so ablation sweeps (hold out
        each index in turn) pay for one trace stack, not N.
        """
        measurements = result.measurements
        if not 0 <= exclude_index < len(measurements):
            raise DetectionError(
                f"exclude_index {exclude_index} outside 0..{len(measurements) - 1}"
            )
        kept = [i for i in range(len(measurements)) if i != exclude_index]
        subset = CampaignResult(
            config=result.config,
            machine_name=result.machine_name,
            activity_label=result.activity_label,
            measurements=[measurements[i] for i in kept],
        )
        sub_cache = None
        if self.vectorized:
            sub_cache = (
                cache.subset(kept) if cache is not None else ShiftedPowerCache.from_result(subset)
            )
        return self.all_scores(subset, cache=sub_cache)

    def _log_path(self, n):
        """Whether an N-factor Eq. 1 product must accumulate in log space.

        Each factor is clipped to ``[1/clip, clip]``, so the product of N
        sub-scores is bounded by ``clip**N``; when that provably fits in
        float64 the product is taken directly (a single cheap pass).
        Otherwise accumulation happens in log space, which is safe for
        any N at the cost of a transcendental per element.
        """
        return n * np.log10(self.clip_subscore) >= 250.0

    def _accumulate(self, subs):
        """Eq. 1 over an ``(N, n_bins)`` sub-score stack."""
        if self._log_path(subs.shape[0]):
            return np.exp(np.sum(np.log(subs), axis=0))
        return np.prod(subs, axis=0)

    def fold(self, scores):
        """Each harmonic's robust scale, the combined z-score and the evidence, in one pass.

        For each ``F_h`` in harmonic order: one ``log10`` into a reused
        scratch vector, its :func:`~repro.spectrum.peaks.robust_scale`,
        then ``max(z, 0)**2`` added into the combined-z accumulator and
        ``max(log10 F_h, 0)`` into the evidence accumulator, both through
        a second reused scratch vector. The operations and their order
        are those of :meth:`zscore`, :meth:`combined_zscore` and
        :meth:`combined_score` written out separately, so the bytes are
        the same; but the pass holds four grid vectors whatever the
        number of harmonics, where keeping every z array and a second
        ``log10`` of every ``F_h`` held two per harmonic.
        """
        n_bins = len(next(iter(scores.values())))
        log, work = np.empty(n_bins), np.empty(n_bins)
        combined, evidence = np.zeros(n_bins), np.zeros(n_bins)
        scales = {}
        for harmonic, score in scores.items():
            np.log10(score, out=log)
            median, sigma = robust_scale_into(log, work)
            scales[harmonic] = (median, sigma)
            np.maximum(log, 0.0, out=work)
            evidence += work
            np.subtract(log, median, out=work)
            work /= sigma
            _add_positive_square(combined, work, work)
        np.sqrt(combined, out=combined)
        return ScoreFold(scales, combined, evidence)

    @staticmethod
    def zscore_window(score, scale):
        """Robust z-score of a slice of one ``F_h``, given its ``(median, sigma)``.

        The same elementwise operations as :meth:`zscore` on the same
        values, so it equals the matching window of the full z array.
        """
        median, sigma = scale
        return (np.log10(score) - median) / sigma

    def combined_score(self, result, scores=None, cache=None):
        """Evidence fused across harmonics: sum of positive log10 scores.

        The paper inspects each F_h separately; this simple fusion sums
        ``max(log10 F_h, 0)`` so independent harmonics reinforce each other
        while off-carrier scores (~1, log ~0) contribute nothing. Returned
        in log10 units ("decades of evidence"). For automated detection
        prefer :meth:`combined_zscore`, which normalizes each harmonic by
        its own noise statistics first. Computed by :meth:`fold`.
        """
        if scores is None:
            scores = self.all_scores(result, cache=cache)
        return self.fold(scores).evidence

    @staticmethod
    def zscore(score_array):
        """Robust z-score of one harmonic's log-score array.

        Off-carrier, log10 F_h fluctuates around 0 with a spread set by the
        capture averaging and side-band overlap; carriers stand many robust
        standard deviations (median absolute deviation scaled to sigma)
        above it. Normalizing per harmonic makes detection thresholds
        independent of the campaign's noise floor and averaging count.
        The median is :func:`~repro.spectrum.peaks.exact_median`: the
        same bytes as ``np.median`` from one selection pass.
        """
        log_score = np.log10(score_array)
        median, sigma = robust_scale(log_score)
        return (log_score - median) / sigma

    def harmonic_zscores(self, result, scores=None, cache=None):
        """{harmonic: robust z-score array} for every configured harmonic."""
        if scores is None:
            scores = self.all_scores(result, cache=cache)
        return {h: self.zscore(score) for h, score in scores.items()}

    def combined_zscore(self, result, scores=None, zscores=None, cache=None):
        """Root-sum-square fusion of the positive per-harmonic z-scores.

        Z(f) = sqrt(sum_h max(z_h(f), 0)^2). Section 2.3 stresses that
        "detection of a single harmonic of falt in a single side-band is
        sufficient to detect a carrier" — several side-bands are routinely
        obscured by unrelated signals — so the fusion must not average
        strong evidence away across harmonics that (legitimately) carry
        none: a 50 %-duty alternation has no even harmonics at all, and a
        carrier with one clean side-band may only excite h = -1. RSS keeps
        a single z = 9 harmonic decisive while off-carrier bins (z ~ N(0,1)
        per harmonic) stay near sqrt(H/2) ~ 2.2.

        From ``scores`` (or a fresh :meth:`all_scores`) it is computed by
        :meth:`fold`; precomputed ``zscores`` are folded directly.
        """
        if zscores is None:
            if scores is None:
                scores = self.all_scores(result, cache=cache)
            return self.fold(scores).combined_z
        n_bins = result.grid.n_bins
        combined, work = np.zeros(n_bins), np.empty(n_bins)
        for z in zscores.values():
            _add_positive_square(combined, z, work)
        return np.sqrt(combined, out=combined)

    # ------------------------------------------------------------------

    @staticmethod
    def _validate(traces, falts, harmonic):
        if len(traces) != len(falts):
            raise DetectionError("one falt per trace is required")
        if len(traces) < 2:
            raise DetectionError("the heuristic needs at least two spectra")
        if harmonic == 0:
            raise DetectionError("harmonic 0 is the carrier itself; score side-bands")
        grid = traces[0].grid
        for trace in traces:
            if trace.grid != grid:
                raise DetectionError("traces must share one grid")


class IncrementalEvidence:
    """Running Eq. 1 evidence over a growing capture prefix.

    The adaptive survey planner feeds captures in one at a time (the
    serial shared-stream order of
    :meth:`~repro.core.campaign.MeasurementCampaign.iter_captures`) and
    asks after each whether the campaign is still worth finishing. Each
    Eq. 2 sub-score is clipped to ``[1/clip, clip]``, so after ``k`` of
    ``N`` captures the final ``log10 F_h`` at any bin can exceed the
    current prefix maximum by at most ``(N - k) * log10(clip)`` — and in
    practice by far less, which is what ``bound_decades`` lets a caller
    encode as a per-falt cap. When even that optimistic bound stays
    below the detection threshold, no completion of the campaign can
    cross it and the remaining captures are provably wasted.
    """

    def __init__(self, config, machine_name, activity_label, scorer=None):
        self.scorer = scorer or HeuristicScorer()
        self.result = CampaignResult(
            config=config, machine_name=machine_name, activity_label=activity_label
        )
        self._evidence = None

    @property
    def n_captures(self):
        return len(self.result.measurements)

    @property
    def max_evidence_decades(self):
        """Strongest ``log10 F_h`` over all harmonics and bins so far.

        ``None`` until two captures exist (Eq. 2 needs a denominator).
        """
        return self._evidence

    def add(self, measurement):
        """Fold one capture in; returns the updated prefix evidence."""
        self.result.measurements.append(measurement)
        if self.n_captures >= 2:
            scores = self.scorer.all_scores(self.result)
            self._evidence = max(
                float(np.max(np.log10(score))) for score in scores.values()
            )
        return self._evidence

    def bound_decades(self, n_total, per_falt_cap_decades):
        """Upper bound on the final evidence after all ``n_total`` captures.

        Assumes each of the remaining factors contributes at most
        ``per_falt_cap_decades`` decades at the current best bin.
        Infinite until the prefix evidence is defined.
        """
        if self._evidence is None:
            return float("inf")
        remaining = max(n_total - self.n_captures, 0)
        return self._evidence + remaining * float(per_falt_cap_decades)

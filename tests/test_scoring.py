"""The vectorized scoring engine: cache semantics, reference agreement."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.campaign import CampaignMeasurement, CampaignResult, MeasurementCampaign
from repro.core.config import FaseConfig
from repro.core.config import campaign_low_band
from repro.core.detect import CarrierDetector, _lower_quartile, _window_backgrounds
from repro.core.heuristic import HeuristicScorer
from repro.core.pipeline import run_fase
from repro.core.scoring import ShiftedPowerCache, shift_valid_mask, shift_valid_range
from repro.errors import DetectionError
from repro.spectrum.grid import FrequencyGrid
from repro.spectrum.trace import SpectrumTrace
from repro.system import build_environment, corei7_desktop
from repro.uarch.activity import AlternationActivity
from repro.uarch.isa import MicroOp

GRID = FrequencyGrid(0.0, 1e6, 100.0)
FALTS = [43.3e3, 43.8e3, 44.3e3, 44.8e3, 45.3e3]


def random_traces(n=5, seed=0, grid=GRID):
    rng = np.random.default_rng(seed)
    return [
        SpectrumTrace(grid, rng.gamma(4.0, 0.25, grid.n_bins) * 1e-14)
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def seeded_result():
    machine = corei7_desktop(
        environment=build_environment(1e6, kind="quiet"), rng=np.random.default_rng(0)
    )
    config = FaseConfig(span_low=0.0, span_high=1e6, fres=100.0, name="scoring test")
    campaign = MeasurementCampaign(machine, config, rng=np.random.default_rng(1))
    return campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")


class TestShiftedPowerCache:
    @given(shift=st.floats(min_value=-9.5e5, max_value=9.5e5))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_interp(self, shift):
        """Property: the batched uniform-grid gather agrees with the naive
        per-trace np.interp for any shift, inside and outside the span."""
        traces = random_traces()
        cache = ShiftedPowerCache(traces)
        row, total = np.empty(GRID.n_bins), np.empty(GRID.n_bins)
        for j, trace in enumerate(traces):
            cache.interpolate_into(j, shift, 0.0, row, total)
            np.testing.assert_allclose(
                row, trace.shifted_power(shift), rtol=1e-9, atol=1e-30
            )

    def test_exact_bin_multiple_shift_is_exact(self):
        traces = random_traces()
        cache = ShiftedPowerCache(traces)
        shift = 7 * GRID.resolution
        row, total = np.empty(GRID.n_bins), np.empty(GRID.n_bins)
        cache.interpolate_into(0, shift, 0.0, row, total)
        np.testing.assert_array_equal(row[:-7], traces[0].power_mw[7:])

    @given(shift=st.floats(min_value=-1.5e6, max_value=1.5e6))
    @settings(max_examples=60, deadline=None)
    def test_valid_range_is_the_mask_support(self, shift):
        """Property: the [lo, hi) range and the boolean mask describe the
        same contiguous run of in-span bins."""
        lo, hi = shift_valid_range(GRID, shift)
        mask = shift_valid_mask(GRID, shift)
        assert mask[lo:hi].all()
        assert not mask[:lo].any() and not mask[hi:].any()

    def test_valid_range_memoized(self):
        cache = ShiftedPowerCache(random_traces())
        assert cache.valid_range(43.3e3) == shift_valid_range(GRID, 43.3e3)
        assert cache.valid_range(43.3e3) is cache.valid_range(43.3e3)

    def test_needs_two_traces(self):
        with pytest.raises(DetectionError):
            ShiftedPowerCache(random_traces(n=1))

    def test_mixed_grids_rejected(self):
        other = FrequencyGrid(0.0, 1e6, 200.0)
        bad = random_traces(n=1, grid=other)
        with pytest.raises(DetectionError):
            ShiftedPowerCache(random_traces(n=2) + bad)


class TestVectorizedAgainstReference:
    @given(seed=st.integers(min_value=0, max_value=2**16), harmonic=st.sampled_from([1, -1, 2, -3, 5]))
    @settings(max_examples=25, deadline=None)
    def test_subscores_agree(self, seed, harmonic):
        """Property: vectorized and naive sub-scores agree bin for bin on
        random spectra, for positive and negative harmonics."""
        traces = random_traces(seed=seed)
        reference = HeuristicScorer(vectorized=False)
        fast = HeuristicScorer()
        np.testing.assert_allclose(
            fast.subscores(traces, FALTS, harmonic),
            reference.subscores(traces, FALTS, harmonic),
            rtol=1e-9,
        )

    def test_all_scores_agree_on_seeded_campaign(self, seeded_result):
        reference = HeuristicScorer(vectorized=False).all_scores(seeded_result)
        fast = HeuristicScorer().all_scores(seeded_result)
        assert set(reference) == set(fast)
        for harmonic in reference:
            np.testing.assert_allclose(fast[harmonic], reference[harmonic], rtol=1e-9)

    def test_detections_agree_on_seeded_campaign(self, seeded_result):
        reference = CarrierDetector(scorer=HeuristicScorer(vectorized=False))
        fast = CarrierDetector()
        ref_detections = reference.detect(seeded_result)
        fast_detections = fast.detect(seeded_result)
        assert [d.frequency for d in ref_detections] == [
            d.frequency for d in fast_detections
        ]
        for ref_d, fast_d in zip(ref_detections, fast_detections):
            assert set(ref_d.harmonic_scores) == set(fast_d.harmonic_scores)
            for h, score in ref_d.harmonic_scores.items():
                assert fast_d.harmonic_scores[h] == pytest.approx(score, rel=1e-9)

    def test_shared_cache_reused_across_scoring_calls(self, seeded_result):
        scorer = HeuristicScorer()
        cache = scorer.cache_for(seeded_result)
        scorer.all_scores(seeded_result, cache=cache)
        misses = cache.misses
        assert misses > 0
        scorer.all_scores(seeded_result, cache=cache)
        assert cache.misses == misses  # second pass runs entirely from cache
        assert cache.hits >= misses

    def test_reference_scorer_builds_no_cache(self):
        assert HeuristicScorer(vectorized=False).cache_for(random_traces()) is None


def _campaign_from_traces(traces, falts):
    grid = traces[0].grid
    config = FaseConfig(span_low=grid.start, span_high=grid.stop, fres=grid.resolution)
    measurements = [
        CampaignMeasurement(
            falt=falt,
            activity=AlternationActivity(falt=falt, levels_x={}, levels_y={}),
            trace=trace,
        )
        for falt, trace in zip(falts, traces)
    ]
    return CampaignResult(
        config=config, machine_name="random", activity_label="X/Y", measurements=measurements
    )


class TestStreamedKernelIsBitExact:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=40),
        clip_decades=st.floats(min_value=3.0, max_value=60.0),
        falt1=st.floats(min_value=1e3, max_value=2e4),
        spacing=st.floats(min_value=260.0, max_value=900.0),
    )
    @example(seed=1, n=5, clip_decades=60.0, falt1=5e3, spacing=500.0)  # log path
    @example(seed=2, n=40, clip_decades=3.0, falt1=5e3, spacing=300.0)  # product path
    @settings(max_examples=40, deadline=None)
    def test_all_scores_equals_reduction_over_subscore_stack(
        self, seed, n, clip_decades, falt1, spacing
    ):
        """Property: each streamed F_h is byte-equal to ``np.prod`` (or, on
        the log path, ``exp(sum(log))``) over the ``subscores()`` stack, for
        N = 2..40 and clips from 1e3 to 1e60, so both accumulation paths
        run."""
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(0.0, 2e5, 100.0)
        traces = []
        for _ in range(n):
            power = rng.gamma(4.0, 0.25, grid.n_bins) * 1e-14
            power[rng.random(grid.n_bins) < 0.01] *= 1e8  # spikes that bind the clip
            power[rng.random(grid.n_bins) < 0.01] = 0.0  # empty bins that bind the floor
            traces.append(SpectrumTrace(grid, power))
        falts = [falt1 + i * spacing + rng.uniform(0.0, 50.0) for i in range(n)]
        result = _campaign_from_traces(traces, falts)
        clip = 10.0**clip_decades
        scorer = HeuristicScorer(clip_subscore=clip)
        scores = scorer.all_scores(result)
        log_path = n * np.log10(clip) >= 250.0
        for harmonic, score in scores.items():
            subs = scorer.subscores(traces, falts, harmonic)
            if log_path:
                expected = np.exp(np.sum(np.log(subs), axis=0))
            else:
                expected = np.prod(subs, axis=0)
            assert np.array_equal(score, expected), (harmonic, n, clip)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_windows=st.integers(min_value=1, max_value=40),
        length=st.integers(min_value=1, max_value=200),
        ragged=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_batched_window_percentiles_equal_per_window(
        self, seed, n_windows, length, ragged
    ):
        """Property: the detector's one-call background percentiles equal
        ``np.percentile`` of each window on its own, with equal-length
        windows (one stacked call) and ragged grid-edge windows alike."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, length + 1, n_windows) if ragged else [length] * n_windows
        segments = [
            np.round(rng.gamma(2.0, 1.0, int(size)), int(rng.integers(0, 4))) * 1e-14
            for size in lengths
        ]
        batched = _window_backgrounds(segments)
        assert len(batched) == len(segments)
        for background, segment in zip(batched, segments):
            assert np.array_equal(background, np.percentile(segment, 25.0))


class TestStreamingMemory:
    def test_all_scores_peak_below_24_grid_vectors(self):
        """Scoring an 80k-bin, 5-falt campaign streams every sub-score:
        its tracemalloc peak stays below 24 grid-length float64 vectors
        (the stacked traces, ten F_h and a few buffers), where memoizing
        every shifted row and total plus an (H, N, n_bins) stack took
        about 100 MB."""
        grid = FrequencyGrid(0.0, 4e6, 50.0)
        result = _campaign_from_traces(random_traces(grid=grid), FALTS)
        scorer = HeuristicScorer()
        tracemalloc.start()
        try:
            scores = scorer.all_scores(result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scores) == len(result.config.harmonics)
        assert peak < 24 * grid.n_bins * 8, f"peak {peak / 1e6:.1f} MB"

    def test_detect_peak_below_20_grid_vectors(self):
        """Detecting on the same campaign holds the ten F_h, the fold's four
        vectors and the smoothed z: under 20 grid vectors, where a stacked
        copy of the traces, every z array and a second log10 of every F_h
        peaked at about 31."""
        grid = FrequencyGrid(0.0, 4e6, 50.0)
        result = _campaign_from_traces(random_traces(grid=grid), FALTS)
        detector = CarrierDetector()
        tracemalloc.start()
        try:
            detector.detect(result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * grid.n_bins * 8, f"peak {peak / 1e6:.1f} MB"

    def test_run_fase_peak_below_26_grid_vectors(self):
        """A whole Fig. 11 pair through ``run_fase`` (capture, scoring,
        detection, grouping) stays under 26 grid vectors; detection's
        arrays used to put it at about 38."""
        machine = corei7_desktop(rng=np.random.default_rng(0))
        config = campaign_low_band()
        tracemalloc.start()
        try:
            report = run_fase(
                machine,
                pairs=((MicroOp.LDM, MicroOp.LDL1),),
                config=config,
                rng=np.random.default_rng(1),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.detections_for("LDM/LDL1")
        assert peak < 26 * config.n_points() * 8, f"peak {peak / 1e6:.1f} MB"


def _gamma_rows(rng, n, n_bins):
    rows = []
    for _ in range(n):
        power = rng.gamma(4.0, 0.25, n_bins) * 1e-14
        power[rng.random(n_bins) < 0.05] = 0.0  # empty bins that bind the floor
        power[rng.random(n_bins) < 0.01] *= 1e8
        rows.append(power)
    return rows


def _pre_fold_formulas(scores):
    """Combined z and evidence as written before the fused pass."""
    zscores = {}
    for harmonic, score in scores.items():
        log_score = np.log10(score)
        median = float(np.median(log_score))
        mad = float(np.median(np.abs(log_score - median)))
        sigma = 1.4826 * mad
        if sigma <= 0:
            sigma = float(np.std(log_score)) or 1.0
        zscores[harmonic] = (log_score - median) / sigma
    n_bins = len(next(iter(scores.values())))
    combined = np.zeros(n_bins, dtype=float)
    for z in zscores.values():
        combined += np.maximum(z, 0.0) ** 2
    evidence = np.zeros(n_bins, dtype=float)
    for score in scores.values():
        evidence += np.maximum(np.log10(score), 0.0)
    return zscores, np.sqrt(combined), evidence


def _random_scores(rng, n_harmonics, n_bins, tied_share):
    scores = {}
    for k in range(n_harmonics):
        score = 10.0 ** rng.normal(0.0, 0.3, n_bins)
        # Off-carrier bins that score exactly 1 (log 0): past half of
        # them the MAD is 0 and the np.std fallback takes over.
        score[rng.random(n_bins) < tied_share] = 1.0
        score[rng.random(n_bins) < 0.001] = 1e9  # carriers at the clip
        scores[(k // 2 + 1) * (-1) ** k] = score
    return scores


class TestRowExactness:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=40),
        floor=st.sampled_from([1e-22, 1e-15, 3e-15]),
        subset_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_by_row_totals_equal_stacked_sum(self, seed, n, floor, subset_seed):
        """Property: the cache's floored total, added up row by row from
        the traces' own rows, equals ``np.maximum(np.vstack(rows),
        floor).sum(axis=0)`` byte for byte, for N = 2..40 and for a
        ``subset()`` view, which picks rows without copying them."""
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(0.0, 3e5, 100.0)
        rows = _gamma_rows(rng, n, grid.n_bins)
        cache = ShiftedPowerCache([SpectrumTrace(grid, row) for row in rows])
        picked = np.random.default_rng(subset_seed).permutation(n)
        picked = sorted(picked[: max(2, int(picked[0]) + 1)].tolist())
        view = cache.subset(picked)
        assert all(view.power[k] is rows[i] for k, i in enumerate(picked))
        for owner, members in ((cache, rows), (view, [rows[i] for i in picked])):
            row, total = np.empty(grid.n_bins), np.empty(grid.n_bins)
            # A zero shift reads the total back unchanged.
            owner.interpolate_into(0, 0.0, floor, row, total)
            expected = np.maximum(np.vstack(members), floor).sum(axis=0)
            assert total.tobytes() == expected.tobytes()
            assert row.tobytes() == members[0].tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_harmonics=st.integers(min_value=1, max_value=10),
        n_bins=st.integers(min_value=1, max_value=5000),
        tied_share=st.sampled_from([0.0, 0.3, 0.6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_equals_pre_fold_formulas(self, seed, n_harmonics, n_bins, tied_share):
        """Property: the fused pass's combined z and evidence, and the
        precomputed-z route of ``combined_zscore``, equal the separate
        z / RSS / evidence formulas byte for byte."""
        rng = np.random.default_rng(seed)
        scores = _random_scores(rng, n_harmonics, n_bins, tied_share)
        zscores, combined, evidence = _pre_fold_formulas(scores)
        scorer = HeuristicScorer()
        fold = scorer.fold(scores)
        assert list(fold.scales) == list(scores)
        assert fold.combined_z.tobytes() == combined.tobytes()
        assert fold.evidence.tobytes() == evidence.tobytes()
        result = SimpleNamespace(grid=SimpleNamespace(n_bins=n_bins))
        from_z = scorer.combined_zscore(result, zscores=zscores)
        assert from_z.tobytes() == combined.tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bins=st.integers(min_value=1, max_value=5000),
        tied_share=st.sampled_from([0.0, 0.3, 0.6]),
        half_width=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_zscore_windows_equal_full_array_windows(
        self, seed, n_bins, tied_share, half_width
    ):
        """Property: every on-demand z window, from the fold's ``(median,
        sigma)``, equals the same window of the full-array z-score."""
        rng = np.random.default_rng(seed)
        scores = _random_scores(rng, 2, n_bins, tied_share)
        fold = HeuristicScorer().fold(scores)
        for harmonic, score in scores.items():
            full = HeuristicScorer.zscore(score)
            for index in {0, n_bins - 1, int(rng.integers(n_bins))}:
                lo = max(index - half_width, 0)
                hi = min(index + half_width + 1, n_bins)
                window = HeuristicScorer.zscore_window(score[lo:hi], fold.scales[harmonic])
                assert window.tobytes() == full[lo:hi].tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_windows=st.integers(min_value=1, max_value=20),
        length=st.integers(min_value=1, max_value=120),
        special_share=st.sampled_from([0.0, 0.2, 0.6]),
        nan=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_lower_quartile_bytes_equal_np_percentile(
        self, seed, n_windows, length, special_share, nan
    ):
        """Property: the partition-based quartile returns
        ``np.percentile(..., 25.0)``'s float64 bytes, per row and for a
        stack, with signed zeros, infinities and NaN in the windows."""
        rng = np.random.default_rng(seed)
        windows = np.round(rng.gamma(2.0, 1.0, (n_windows, length)), 1)
        specials = rng.random(windows.shape) < special_share
        windows[specials] = rng.choice([0.0, -0.0, np.inf], specials.sum())
        if nan:
            windows[rng.integers(n_windows), rng.integers(length)] = np.nan
        with np.errstate(invalid="ignore"):
            stacked = _lower_quartile(windows)
            assert stacked.tobytes() == np.percentile(windows, 25.0, axis=1).tobytes()
            for row, value in zip(windows, stacked):
                single = _lower_quartile(row)
                assert single.tobytes() == np.percentile(row, 25.0).tobytes()
                assert single.tobytes() == value.tobytes()

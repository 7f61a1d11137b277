"""The vectorized scoring engine: cache semantics, reference agreement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.campaign import CampaignMeasurement, CampaignResult, MeasurementCampaign
from repro.core.config import FaseConfig
from repro.core.detect import CarrierDetector, _window_backgrounds
from repro.core.heuristic import HeuristicScorer
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

"""Property-based tests on grids, traces, and the heuristic's invariances."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.heuristic import HeuristicScorer
from repro.spectrum.grid import FrequencyGrid
from repro.spectrum.peaks import exact_median
from repro.spectrum.trace import SpectrumTrace, average_traces
from repro.units import dbm_to_milliwatts, milliwatts_to_dbm


class TestGridProperties:
    @given(
        start=st.floats(min_value=0.0, max_value=1e6),
        span=st.floats(min_value=1e3, max_value=10e6),
        resolution=st.sampled_from([50.0, 100.0, 500.0, 2000.0]),
    )
    @settings(max_examples=60)
    def test_index_roundtrip(self, start, span, resolution):
        from hypothesis import assume

        assume(span >= 4 * resolution)
        grid = FrequencyGrid(start, start + span, resolution)
        for index in (0, grid.n_bins // 2, grid.n_bins - 1):
            frequency = grid.frequency_at(index)
            assert grid.index_of(frequency) == index

    @given(
        span=st.floats(min_value=10e3, max_value=10e6),
        resolution=st.sampled_from([50.0, 100.0, 500.0]),
    )
    @settings(max_examples=40)
    def test_bin_count_matches_span(self, span, resolution):
        grid = FrequencyGrid(0.0, span, resolution)
        assert grid.n_bins == int(round(span / resolution))


def _same_median(values):
    """``exact_median`` returns ``np.median``'s float64, byte for byte."""
    before = values.tobytes()
    with np.errstate(invalid="ignore"):  # inf + -inf, in both
        expected = np.median(values)
        got = exact_median(values)
    assert type(got) is type(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert values.tobytes() == before  # the input is not reordered


#: Values a median can land on or between: signed zeros and infinities.
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf])


class TestExactMedian:
    @given(
        n=st.integers(min_value=1, max_value=30_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        decimals=st.sampled_from([None, 0, 1, 3]),
        special_share=st.sampled_from([0.0, 0.01, 0.5]),
        nan=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_np_median_bytes(self, n, seed, decimals, special_share, nan):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n)
        if decimals is not None:
            values = np.round(values, decimals)  # ties, and zeros of both signs
        specials = rng.random(n) < special_share
        values[specials] = rng.choice(SPECIALS, size=int(specials.sum()))
        if nan:
            values[rng.integers(n)] = np.nan
        _same_median(values)

    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=40),
            elements=st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_np_median_on_arbitrary_floats(self, values):
        _same_median(values)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0, -0.0],
            [-0.0],
            [np.inf, -np.inf],
            [-np.inf, 1.0, np.inf],
            [np.inf, np.inf],
            [np.nan],
            [1.0, np.nan],
            [2.0, 1.0, np.nan, 3.0],
        ],
    )
    def test_edge_cases(self, values):
        _same_median(np.array(values))

    @pytest.mark.parametrize("n, seed", [(290, 5), (298, 2), (322, 10)])
    def test_lower_middle_found_off_its_sorted_position(self, n, seed):
        # A single-kth partition only places rank n/2; on these arrays
        # (numpy 2.x introselect) rank n/2 - 1 ends up elsewhere in the
        # lower half, so the helper must take the lower half's max.
        _same_median(np.random.default_rng(seed).standard_normal(n))

    def test_empty_defers_to_np_median(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _same_median(np.array([], dtype=float))

    @given(
        n=st.integers(min_value=2, max_value=30_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tied_share=st.sampled_from([0.0, 0.3, 0.6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_zscore_matches_inline_np_median_formula(self, n, seed, tied_share):
        rng = np.random.default_rng(seed)
        scores = 10.0 ** rng.normal(0.0, 0.2, size=n)
        # Off-carrier bins that score exactly 1 (log 0); past half of
        # them the MAD is 0 and the np.std fallback takes over.
        scores[rng.random(n) < tied_share] = 1.0
        log_score = np.log10(scores)
        median = float(np.median(log_score))
        mad = float(np.median(np.abs(log_score - median)))
        sigma = 1.4826 * mad
        if sigma <= 0:
            sigma = float(np.std(log_score)) or 1.0
        expected = (log_score - median) / sigma
        assert HeuristicScorer.zscore(scores).tobytes() == expected.tobytes()


class TestUnitsProperties:
    @given(dbm=st.floats(min_value=-200.0, max_value=50.0))
    def test_dbm_roundtrip(self, dbm):
        assert float(milliwatts_to_dbm(dbm_to_milliwatts(dbm))) == pytest.approx(dbm, abs=1e-9)

    @given(
        a=st.floats(min_value=1e-20, max_value=1e3),
        b=st.floats(min_value=1e-20, max_value=1e3),
    )
    def test_dbm_monotone(self, a, b):
        if a < b:
            assert milliwatts_to_dbm(a) < milliwatts_to_dbm(b)


class TestTraceProperties:
    grid = FrequencyGrid(0.0, 100e3, 100.0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_shift_by_zero_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        trace = SpectrumTrace(self.grid, rng.gamma(4.0, 1e-12, self.grid.n_bins))
        np.testing.assert_allclose(trace.shifted_power(0.0), trace.power_mw)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30)
    def test_average_preserves_total_power_mean(self, seed, n):
        rng = np.random.default_rng(seed)
        traces = [
            SpectrumTrace(self.grid, rng.gamma(4.0, 1e-12, self.grid.n_bins))
            for _ in range(n)
        ]
        averaged = average_traces(traces)
        expected = np.mean([t.total_power() for t in traces])
        assert averaged.total_power() == pytest.approx(expected, rel=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        factor=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=30)
    def test_scaling_linear(self, seed, factor):
        rng = np.random.default_rng(seed)
        trace = SpectrumTrace(self.grid, rng.gamma(4.0, 1e-12, self.grid.n_bins))
        assert trace.scaled(factor).total_power() == pytest.approx(
            factor * trace.total_power(), rel=1e-9
        )


class TestHeuristicInvariances:
    """Eq. 2 is a power *ratio*: global rescaling must not change scores."""

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, scale, seed):
        from repro.core.heuristic import HeuristicScorer

        grid = FrequencyGrid(0.0, 200e3, 100.0)
        rng = np.random.default_rng(seed)
        falts = [20e3, 21e3, 22e3, 23e3, 24e3]
        traces = []
        for falt in falts:
            power = rng.gamma(4.0, 1e-12, grid.n_bins)
            power[grid.index_of(100e3 + falt)] += 1e-10
            traces.append(SpectrumTrace(grid, power))
        scorer = HeuristicScorer(power_floor=1e-30)
        base = scorer.harmonic_score(traces, falts, 1)
        scaled_traces = [t.scaled(scale) for t in traces]
        scaled = scorer.harmonic_score(scaled_traces, falts, 1)
        np.testing.assert_allclose(scaled, base, rtol=1e-6)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_of_measurements_preserves_carrier_score(self, seed):
        """The carrier score must not depend on measurement order."""
        from repro.core.heuristic import HeuristicScorer

        grid = FrequencyGrid(0.0, 200e3, 100.0)
        rng = np.random.default_rng(seed)
        falts = [20e3, 21e3, 22e3, 23e3, 24e3]
        traces = []
        for falt in falts:
            power = rng.gamma(4.0, 1e-12, grid.n_bins)
            power[grid.index_of(100e3 + falt)] += 1e-10
            traces.append(SpectrumTrace(grid, power))
        scorer = HeuristicScorer(power_floor=1e-30)
        forward = scorer.harmonic_score(traces, falts, 1)
        backward = scorer.harmonic_score(traces[::-1], falts[::-1], 1)
        idx = grid.index_of(100e3)
        assert backward[idx] == pytest.approx(forward[idx], rel=1e-9)

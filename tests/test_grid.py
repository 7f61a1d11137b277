"""FrequencyGrid: bin bookkeeping every other component relies on."""

import pickle

import numpy as np
import pytest

from repro.errors import GridError
from repro.spectrum.grid import FrequencyGrid


class TestConstruction:
    def test_paper_low_band_has_80000_points(self):
        """Figure 10: '4MHz/50Hz = 80,000 data points'."""
        grid = FrequencyGrid(0.0, 4e6, 50.0)
        assert grid.n_bins == 80000

    def test_frequencies_uniform(self):
        grid = FrequencyGrid(1e3, 11e3, 100.0)
        assert len(grid.frequencies) == 100
        np.testing.assert_allclose(np.diff(grid.frequencies), 100.0)

    def test_frequencies_read_only(self):
        grid = FrequencyGrid(0.0, 1e4, 100.0)
        with pytest.raises(ValueError):
            grid.frequencies[0] = 5.0

    @pytest.mark.parametrize(
        "start,stop,res",
        [(0.0, 1e3, 0.0), (1e3, 1e3, 10.0), (-1.0, 1e3, 10.0), (0.0, 10.0, 10.0)],
    )
    def test_invalid_construction(self, start, stop, res):
        with pytest.raises(GridError):
            FrequencyGrid(start, stop, res)


class TestIndexing:
    def test_index_roundtrip(self):
        grid = FrequencyGrid(0.0, 4e6, 50.0)
        for f in (0.0, 315e3, 3.9999e6):
            assert grid.frequency_at(grid.index_of(f)) == pytest.approx(f, abs=25.0)

    def test_contains(self):
        grid = FrequencyGrid(100e3, 200e3, 100.0)
        assert grid.contains(150e3)
        assert not grid.contains(250e3)
        assert not grid.contains(50e3)

    def test_index_outside_raises(self):
        grid = FrequencyGrid(0.0, 1e6, 100.0)
        with pytest.raises(GridError):
            grid.index_of(2e6)

    def test_negative_index(self):
        grid = FrequencyGrid(0.0, 1e4, 100.0)
        assert grid.frequency_at(-1) == grid.frequency_at(grid.n_bins - 1)

    def test_index_out_of_range(self):
        grid = FrequencyGrid(0.0, 1e4, 100.0)
        with pytest.raises(GridError):
            grid.frequency_at(grid.n_bins)


class TestEdgeBins:
    """Regressions for the documented [start, stop) boundary semantics.

    ``round()``-based containment used to accept frequencies up to half a
    bin *below* ``start`` and reject the last half-bin before ``stop``.
    """

    GRID = FrequencyGrid(100e3, 200e3, 100.0)

    def test_just_below_start_rejected(self):
        assert not self.GRID.contains(100e3 - 49.0)
        with pytest.raises(GridError):
            self.GRID.index_of(100e3 - 49.0)

    def test_just_under_stop_accepted(self):
        frequency = 200e3 - 49.0
        assert self.GRID.contains(frequency)
        assert self.GRID.index_of(frequency) == self.GRID.n_bins - 1

    def test_start_inclusive(self):
        assert self.GRID.contains(self.GRID.start)
        assert self.GRID.index_of(self.GRID.start) == 0

    def test_stop_exclusive(self):
        assert not self.GRID.contains(self.GRID.stop)
        with pytest.raises(GridError):
            self.GRID.index_of(self.GRID.stop)

    def test_every_bin_center_roundtrips(self):
        grid = FrequencyGrid(0.0, 10e3, 300.0)
        for index in range(grid.n_bins):
            assert grid.index_of(grid.frequency_at(index)) == index

    def test_span_not_a_resolution_multiple(self):
        """Frequencies past the last bin center but inside [start, stop)
        clamp to the nearest real bin instead of indexing out of range."""
        grid = FrequencyGrid(0.0, 1e3, 30.0)  # 33 bins, last center 960 Hz
        assert grid.contains(995.0)
        assert grid.index_of(995.0) == grid.n_bins - 1


class TestSlicing:
    def test_slice_indices(self):
        grid = FrequencyGrid(0.0, 1e6, 100.0)
        lo, hi = grid.slice_indices(10e3, 20e3)
        assert grid.frequency_at(lo) >= 10e3 - 1e-6
        assert grid.frequency_at(hi - 1) <= 20e3 + 1e-6

    def test_subgrid_same_resolution(self):
        grid = FrequencyGrid(0.0, 1e6, 100.0)
        sub = grid.subgrid(100e3, 200e3)
        assert sub.resolution == grid.resolution
        assert sub.start >= 100e3 - 1e-6

    def test_empty_slice_raises(self):
        grid = FrequencyGrid(0.0, 1e6, 100.0)
        with pytest.raises(GridError):
            grid.slice_indices(2e6, 3e6)

    def test_reversed_slice_raises(self):
        grid = FrequencyGrid(0.0, 1e6, 100.0)
        with pytest.raises(GridError):
            grid.slice_indices(20e3, 10e3)


class TestEquality:
    def test_equal_grids(self):
        assert FrequencyGrid(0.0, 1e6, 100.0) == FrequencyGrid(0.0, 1e6, 100.0)

    def test_different_resolution(self):
        assert FrequencyGrid(0.0, 1e6, 100.0) != FrequencyGrid(0.0, 1e6, 50.0)

    def test_hashable(self):
        cache = {FrequencyGrid(0.0, 1e6, 100.0): "x"}
        assert cache[FrequencyGrid(0.0, 1e6, 100.0)] == "x"


class TestPickle:
    @pytest.mark.parametrize(
        "start, stop, res",
        [(0.0, 4e6, 50.0), (12.3, 1e6 + 7.0, 33.3), (1e5, 1.2e6, 0.1)],
    )
    def test_pickles_by_its_defining_floats(self, start, stop, res):
        # The bin array is derived; pickling it cost n_bins float64s (a
        # 0-4 MHz / 50 Hz grid pickled to 640 295 bytes) on every shard
        # result that carries a grid.
        grid = FrequencyGrid(start, stop, res)
        payload = pickle.dumps(grid)
        assert len(payload) < 300
        restored = pickle.loads(payload)
        assert restored == grid
        assert (restored.start, restored.stop, restored.resolution) == (
            grid.start,
            grid.stop,
            grid.resolution,
        )
        assert restored.n_bins == grid.n_bins
        assert restored.frequencies.tobytes() == grid.frequencies.tobytes()
        assert not restored.frequencies.flags.writeable

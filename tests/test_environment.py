"""RF environment: radio stations, spurs, metropolitan preset."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import SystemModelError
from repro.spectrum.grid import FrequencyGrid
from repro.system.environment import (
    AM_BAND_HIGH,
    AM_BAND_LOW,
    AMRadioStation,
    RFEnvironment,
    SpuriousToneField,
    ToneInterferer,
)
from repro.units import dbm_to_milliwatts

GRID = FrequencyGrid(0.0, 2e6, 50.0)


class TestToneInterferer:
    def test_single_bin(self):
        tone = ToneInterferer(600e3, -100.0)
        power = tone.mean_power(GRID)
        assert power[GRID.index_of(600e3)] == pytest.approx(dbm_to_milliwatts(-100.0))
        assert np.count_nonzero(power) == 1

    def test_validation(self):
        with pytest.raises(SystemModelError):
            ToneInterferer(0.0, -100.0)


class TestAMRadioStation:
    def test_carrier_plus_audio_sidebands(self):
        station = AMRadioStation(1000e3, -95.0, audio_bandwidth=5e3, sideband_fraction=0.3)
        power = station.mean_power(GRID)
        carrier_bin = GRID.index_of(1000e3)
        assert power[carrier_bin] > 0
        # audio energy within +-5 kHz
        near = power[GRID.index_of(997e3) : GRID.index_of(1003e3)].sum()
        assert near == pytest.approx(dbm_to_milliwatts(-95.0), rel=0.15)

    def test_total_power_calibrated(self):
        station = AMRadioStation(800e3, -90.0)
        assert station.mean_power(GRID).sum() == pytest.approx(dbm_to_milliwatts(-90.0), rel=0.01)

    def test_static_mean(self):
        """A station's mean spectrum never changes: the property FASE's
        normalization relies on to reject it."""
        station = AMRadioStation(800e3, -90.0)
        np.testing.assert_array_equal(station.mean_power(GRID), station.mean_power(GRID))

    def test_validation(self):
        with pytest.raises(SystemModelError):
            AMRadioStation(800e3, -90.0, sideband_fraction=1.0)
        with pytest.raises(SystemModelError):
            AMRadioStation(800e3, -90.0, audio_bandwidth=0.0)


class TestSpuriousToneField:
    def test_count_and_determinism(self):
        field = SpuriousToneField(0.0, 2e6, 50, rng=np.random.default_rng(4))
        power = field.mean_power(GRID)
        assert 40 <= np.count_nonzero(power) <= 50  # some tones may share bins
        again = SpuriousToneField(0.0, 2e6, 50, rng=np.random.default_rng(4)).mean_power(GRID)
        np.testing.assert_array_equal(power, again)

    def test_validation(self):
        with pytest.raises(SystemModelError):
            SpuriousToneField(2e6, 1e6, 10)
        with pytest.raises(SystemModelError):
            SpuriousToneField(0.0, 1e6, -1)

    def test_default_rng_reproducible(self):
        """Regression: ``rng=None`` used to pull fresh process entropy, so
        two fields built without an explicit stream could never reproduce
        each other (or a rerun of the same script). The default is now a
        fixed labeled stream."""
        a = SpuriousToneField(0.0, 2e6, 50)
        b = SpuriousToneField(0.0, 2e6, 50)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.powers_mw, b.powers_mw)

    def test_zero_tones_is_silent(self):
        field = SpuriousToneField(0.0, 2e6, 0)
        np.testing.assert_array_equal(field.mean_power(GRID), 0.0)


class TestRFEnvironment:
    def test_quiet_has_only_thermal_floor(self):
        env = RFEnvironment.quiet()
        power = env.mean_power(GRID)
        assert np.ptp(power) == pytest.approx(0.0, abs=1e-30)

    def test_metropolitan_populates_am_band(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        power = env.mean_power(GRID)
        lo, hi = GRID.index_of(AM_BAND_LOW), GRID.index_of(min(AM_BAND_HIGH, 2e6 - 50))
        floor = np.median(power)
        stations = np.sum(power[lo:hi] > 100 * floor)
        assert stations > 10

    def test_metropolitan_deterministic(self):
        a = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0)).mean_power(GRID)
        b = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0)).mean_power(GRID)
        np.testing.assert_array_equal(a, b)

    def test_sum_of_sources_and_noise(self):
        tone = ToneInterferer(500e3, -100.0)
        env = RFEnvironment(sources=[tone])
        power = env.mean_power(GRID)
        np.testing.assert_allclose(power, tone.mean_power(GRID))

    def test_small_span_no_am_band(self):
        env = RFEnvironment.metropolitan(100e3, rng=np.random.default_rng(0))
        grid = FrequencyGrid(0.0, 100e3, 50.0)
        assert env.mean_power(grid).sum() > 0  # noise + spurs only, no crash

    def test_invalid_span(self):
        with pytest.raises(SystemModelError):
            RFEnvironment.metropolitan(0.0)

    def test_empty_source_list_without_noise_is_silent(self):
        env = RFEnvironment(sources=(), noise=None)
        np.testing.assert_array_equal(env.mean_power(GRID), 0.0)

    def test_metropolitan_with_all_source_counts_zero(self):
        """Source counts of zero leave only the noise landscape — still a
        valid environment with power in every bin."""
        env = RFEnvironment.metropolitan(
            2e6,
            rng=np.random.default_rng(0),
            n_am_stations=0,
            n_spurious=0,
            n_longwave=0,
        )
        power = env.mean_power(GRID)
        assert np.all(power > 0)
        # above the pink-noise knee the floor is smooth: no narrowband
        # sources anywhere (the 1/f rise legitimately dominates near DC)
        tail = power[GRID.index_of(100e3) :]
        assert tail.max() < 100 * np.median(tail)

    def test_mean_power_is_cached_read_only_per_grid(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        first = env.mean_power(GRID)
        again = env.mean_power(FrequencyGrid(0.0, 2e6, 50.0))  # equal grid, new object
        assert again is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_cached_bytes_equal_an_uncached_render(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        fresh = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        env.mean_power(GRID)
        cached = env.mean_power(GRID)
        assert cached.tobytes() == fresh.mean_power(GRID).tobytes()

    def test_each_grid_gets_its_own_entry(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        coarse = FrequencyGrid(0.0, 2e6, 100.0)
        fine = env.mean_power(GRID)
        wide = env.mean_power(coarse)
        assert wide.shape == (coarse.n_bins,) and fine.shape == (GRID.n_bins,)
        assert env.mean_power(GRID) is fine
        assert env.mean_power(coarse) is wide
        uncached = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        assert wide.tobytes() == uncached.mean_power(coarse).tobytes()

    def test_cache_under_concurrent_scenes(self):
        """Parallel captures render scenes on threads that share one
        environment: every caller must get the uncached bytes, read-only."""
        grids = [FrequencyGrid(0.0, 2e5, fres) for fres in (50.0, 100.0, 200.0)]
        reference = RFEnvironment.metropolitan(2e5, rng=np.random.default_rng(0))
        expected = [reference.mean_power(grid).tobytes() for grid in grids]
        env = RFEnvironment.metropolitan(2e5, rng=np.random.default_rng(0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(lambda k: (k, env.mean_power(grids[k])), i % 3)
                    for i in range(48)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 48
        for k, power in results:
            assert not power.flags.writeable
            assert power.tobytes() == expected[k]
        for k, grid in enumerate(grids):
            assert env.mean_power(grid) is env.mean_power(grid)

    def test_metropolitan_span_below_every_band(self):
        """A span under the long-wave band (60 kHz) skips stations and
        long-wave transmitters entirely without crashing."""
        env = RFEnvironment.metropolitan(50e3, rng=np.random.default_rng(0))
        grid = FrequencyGrid(0.0, 50e3, 50.0)
        assert env.mean_power(grid).sum() > 0

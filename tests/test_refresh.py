"""Memory refresh emitter: the Section 4.2 inverted-modulation mechanism."""

import pytest

from repro.errors import SystemModelError
from repro.spectrum.grid import FrequencyGrid
from repro.system.domains import MEMORY_UTILIZATION
from repro.system.refresh import DDR3_REFRESH_FREQUENCY, MemoryRefreshEmitter
from repro.uarch.activity import AlternationActivity

GRID = FrequencyGrid(0.0, 2e6, 50.0)


def make_refresh(**kwargs):
    defaults = dict(fundamental_dbm=-122.0, coherence_loss=2.0, n_ranks=1)
    defaults.update(kwargs)
    return MemoryRefreshEmitter(**defaults)


class TestTiming:
    def test_ddr3_rate_is_128khz(self):
        """tREFI = 7.8 us -> 128 kHz, 'the maximum allowable average time
        between refresh commands for recent DRAM standards such as DDR3'."""
        assert DDR3_REFRESH_FREQUENCY == pytest.approx(1.0 / 7.8125e-6)

    def test_duty_cycle_below_three_percent(self):
        """'The duty cycle of the memory refresh activity is very low (<3%)'."""
        assert make_refresh().duty_cycle < 0.03

    def test_turion_variant(self):
        emitter = make_refresh(refresh_frequency=132e3)
        assert emitter.refresh_frequency == 132e3


class TestInvertedModulation:
    def test_carrier_weakens_with_activity(self):
        """'The carrier signal is strongest when there is no memory activity
        and weakest when we generate continuous memory activity.'"""
        emitter = make_refresh()
        idle = emitter.render(GRID, AlternationActivity.constant({MEMORY_UTILIZATION: 0.0}))
        busy = emitter.render(GRID, AlternationActivity.constant({MEMORY_UTILIZATION: 0.9}))
        carrier_bin = GRID.index_of(128e3)
        assert idle[carrier_bin] > 3 * busy[carrier_bin]

    def test_lost_power_is_dispersed(self):
        """Delayed refreshes spread energy across a wide band: total power
        near a harmonic is roughly conserved, the narrow line is not."""
        emitter = make_refresh()
        idle = emitter.render(GRID, AlternationActivity.constant({MEMORY_UTILIZATION: 0.0}))
        busy = emitter.render(GRID, AlternationActivity.constant({MEMORY_UTILIZATION: 0.9}))
        lo, hi = GRID.index_of(50e3), GRID.index_of(200e3)
        assert busy[lo:hi].sum() > 0.4 * idle[lo:hi].sum()
        # but the peak bin collapses
        assert busy[GRID.index_of(128e3)] < 0.2 * idle[GRID.index_of(128e3)]

    def test_coherence_monotone(self):
        emitter = make_refresh()
        values = [emitter.coherence(u) for u in (0.0, 0.3, 0.6, 0.9)]
        assert values == sorted(values, reverse=True)
        assert values[0] == 1.0

    def test_alternation_produces_sidebands(self):
        """Alternating utilization AM-modulates every refresh harmonic —
        how FASE finds the signal in Figure 11."""
        emitter = make_refresh()
        activity = AlternationActivity(
            falt=43.3e3,
            levels_x={MEMORY_UTILIZATION: 0.9},
            levels_y={MEMORY_UTILIZATION: 0.0},
        )
        power = emitter.render(GRID, activity)
        sideband = power[GRID.index_of(128e3 + 43.3e3)]
        floor = power[GRID.index_of(100e3)]
        assert sideband > 10 * max(floor, 1e-30)


class TestRankStaggering:
    def test_four_ranks_strong_comb_at_512k(self):
        """Figure 11 shows 512 kHz multiples; near-field reveals 128 kHz GCD."""
        emitter = make_refresh(n_ranks=4, rank_imbalance=0.15)
        idle = AlternationActivity.constant({MEMORY_UTILIZATION: 0.0})
        power = emitter.render(GRID, idle)
        strong = power[GRID.index_of(512e3)]
        weak = power[GRID.index_of(128e3)]
        assert strong > 20 * weak
        assert weak > 0  # the imbalance leak exists (visible near-field)

    def test_single_rank_full_comb(self):
        emitter = make_refresh(n_ranks=1)
        assert emitter.rank_stagger_factor(1) == 1.0
        assert emitter.rank_stagger_factor(7) == 1.0

    def test_stagger_factor_unity_at_multiples(self):
        emitter = make_refresh(n_ranks=4)
        assert emitter.rank_stagger_factor(4) == pytest.approx(1.0)
        assert emitter.rank_stagger_factor(8) == pytest.approx(1.0)

    def test_stagger_factor_follows_changed_attributes(self):
        # The factor is memoized by value, so an emitter whose ranks or
        # imbalance change reads the new value, never a stale entry.
        emitter = make_refresh(n_ranks=4, rank_imbalance=0.15)
        before = emitter.rank_stagger_factor(1)
        emitter.rank_imbalance = 0.3
        assert emitter.rank_stagger_factor(1) == make_refresh(
            n_ranks=4, rank_imbalance=0.3
        ).rank_stagger_factor(1)
        assert emitter.rank_stagger_factor(1) > before
        emitter.n_ranks = 1
        assert emitter.rank_stagger_factor(1) == 1.0

    def test_calibration_anchored_to_comb_line(self):
        """fundamental_dbm refers to the first strong comb line (512 kHz)."""
        emitter = make_refresh(n_ranks=4, fundamental_dbm=-122.0)
        idle = AlternationActivity.constant({MEMORY_UTILIZATION: 0.0})
        power = emitter.render(GRID, idle)
        from repro.units import milliwatts_to_dbm

        assert float(milliwatts_to_dbm(power[GRID.index_of(512e3)])) == pytest.approx(
            -122.0, abs=0.5
        )


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(SystemModelError):
            make_refresh(refresh_frequency=0.0)
        with pytest.raises(SystemModelError):
            make_refresh(coherence_loss=-1.0)
        with pytest.raises(SystemModelError):
            make_refresh(n_ranks=0)
        with pytest.raises(SystemModelError):
            make_refresh(rank_imbalance=1.5)
        with pytest.raises(SystemModelError):
            make_refresh().coherence(2.0)

    def test_duty_regime_guard(self):
        # 2 MHz refresh rate would give a 40% duty cycle: not refresh-like.
        with pytest.raises(SystemModelError):
            make_refresh(refresh_frequency=2e6)

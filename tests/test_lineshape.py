"""Line shapes: normalization, power conservation, broadening."""

import numpy as np
import pytest

from repro.errors import UnitsError
from repro.signals.lineshape import (
    DeltaLine,
    GaussianLine,
    LorentzianLine,
    SpreadSpectrumLine,
)

GRID = np.arange(0.0, 200e3, 50.0)


class TestDeltaLine:
    def test_all_power_in_nearest_bin(self):
        out = DeltaLine().render(GRID, 100e3, 2.5)
        assert out.sum() == pytest.approx(2.5)
        assert out.max() == pytest.approx(2.5)
        assert GRID[int(np.argmax(out))] == pytest.approx(100e3)

    def test_off_grid_center_snaps(self):
        out = DeltaLine().render(GRID, 100.020e3, 1.0)
        assert GRID[int(np.argmax(out))] == pytest.approx(100e3)

    def test_outside_grid_no_power(self):
        out = DeltaLine().render(GRID, 300e3, 1.0)
        assert out.sum() == 0.0

    def test_broadened_becomes_gaussian(self):
        assert isinstance(DeltaLine().broadened(100.0), GaussianLine)
        assert isinstance(DeltaLine().broadened(0.0), DeltaLine)


class TestGaussianLine:
    def test_power_conserved(self):
        out = GaussianLine(500.0).render(GRID, 100e3, 3.0)
        assert out.sum() == pytest.approx(3.0)

    def test_peak_at_center(self):
        out = GaussianLine(500.0).render(GRID, 100e3, 1.0)
        assert GRID[int(np.argmax(out))] == pytest.approx(100e3)

    def test_width_scales_with_sigma(self):
        narrow = GaussianLine(200.0).render(GRID, 100e3, 1.0)
        wide = GaussianLine(2000.0).render(GRID, 100e3, 1.0)
        assert narrow.max() > wide.max()  # same power, more spread

    def test_half_power_points(self):
        sigma = 1000.0
        out = GaussianLine(sigma).render(GRID, 100e3, 1.0)
        center = int(np.argmax(out))
        offset_bins = int(round(sigma * np.sqrt(2 * np.log(2)) / 50.0))
        assert out[center + offset_bins] == pytest.approx(out[center] / 2, rel=0.1)

    def test_broadening_adds_in_quadrature(self):
        broadened = GaussianLine(300.0).broadened(400.0)
        assert broadened.sigma == pytest.approx(500.0)

    def test_invalid_sigma(self):
        with pytest.raises(UnitsError):
            GaussianLine(0.0)


class TestLorentzianLine:
    def test_power_conserved(self):
        out = LorentzianLine(300.0).render(GRID, 100e3, 1.0)
        assert out.sum() == pytest.approx(1.0)

    def test_heavier_tails_than_gaussian(self):
        lorentzian = LorentzianLine(500.0).render(GRID, 100e3, 1.0)
        gaussian = GaussianLine(500.0).render(GRID, 100e3, 1.0)
        idx = int(np.searchsorted(GRID, 103e3))  # 6 widths out
        assert lorentzian[idx] > gaussian[idx]

    def test_invalid_gamma(self):
        with pytest.raises(UnitsError):
            LorentzianLine(-1.0)


class TestSpreadSpectrumLine:
    def test_power_conserved(self):
        out = SpreadSpectrumLine(20e3).render(GRID, 100e3, 4.0)
        assert out.sum() == pytest.approx(4.0)

    def test_sinusoidal_profile_has_edge_horns(self):
        """Arcsine dwell density: the band edges are hotter than the center
        (the twin humps of the paper's Figure 14)."""
        shape = SpreadSpectrumLine(40e3, profile="sinusoidal")
        out = shape.render(GRID, 100e3, 1.0)
        center = out[int(np.searchsorted(GRID, 100e3))]
        low_edge = out[int(np.searchsorted(GRID, 80e3))]
        high_edge = out[int(np.searchsorted(GRID, 120e3))]
        assert low_edge > 2 * center
        assert high_edge > 2 * center

    def test_triangular_profile_flat(self):
        shape = SpreadSpectrumLine(40e3, profile="triangular", edge_sigma=200.0)
        out = shape.render(GRID, 100e3, 1.0)
        inside = out[(GRID > 85e3) & (GRID < 115e3)]
        assert inside.max() / inside.min() < 1.3

    def test_power_confined_to_band(self):
        shape = SpreadSpectrumLine(40e3, edge_sigma=500.0)
        out = shape.render(GRID, 100e3, 1.0)
        outside = out[(GRID < 75e3) | (GRID > 125e3)]
        assert outside.sum() < 0.01

    def test_invalid_profile(self):
        with pytest.raises(UnitsError):
            SpreadSpectrumLine(1e3, profile="sawtooth")

    def test_invalid_width(self):
        with pytest.raises(UnitsError):
            SpreadSpectrumLine(0.0)

    def test_broadened_keeps_width(self):
        shape = SpreadSpectrumLine(40e3, edge_sigma=400.0)
        wider = shape.broadened(300.0)
        assert wider.width == shape.width
        assert wider.edge_sigma == pytest.approx(500.0)


class TestRenderEdgeCases:
    def test_window_partially_off_grid(self):
        out = GaussianLine(2000.0).render(GRID, 500.0, 1.0)
        # Power near the grid edge is renormalized onto the visible bins.
        assert out.sum() == pytest.approx(1.0)

    def test_zero_power_renders_zero(self):
        out = GaussianLine(500.0).render(GRID, 100e3, 0.0)
        assert out.sum() == 0.0


SHAPES = {
    "delta": DeltaLine(),
    "gaussian": GaussianLine(500.0),
    "narrow-gaussian": GaussianLine(2.0),  # 10 Hz window: nearest-bin path
    "lorentzian": LorentzianLine(300.0),
    "spread-sinusoidal": SpreadSpectrumLine(20e3, edge_sigma=200.0),
    "spread-triangular": SpreadSpectrumLine(20e3, edge_sigma=200.0, profile="triangular"),
}

#: (center, power) cases: on a bin, between bins, near and past both grid
#: edges, and the non-positive powers that deposit nothing.
DEPOSITS = [
    (100e3, 2.5),
    (100.020e3, 1.0),
    (100.025e3, 1.0),
    (200.0, 0.7),
    (GRID[-1] + 10.0, 0.3),
    (199.9e3 + 40.0, 0.3),
    (-5e3, 1.0),
    (300e3, 1.0),
    (100e3, 0.0),
    (100e3, -1.0),
]


class TestDeposit:
    """``deposit`` into an accumulator is bit-identical to ``acc + render``."""

    @pytest.mark.parametrize("name", sorted(SHAPES))
    @pytest.mark.parametrize("center,power", DEPOSITS)
    def test_matches_render_into_nonzero_accumulator(self, name, center, power):
        shape = SHAPES[name]
        acc = np.random.default_rng(11).uniform(1e-15, 1e-9, size=GRID.size)
        expected = acc + shape.render(GRID, center, power)
        shape.deposit(acc, GRID, center, power)
        assert acc.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_successive_lines_match_summed_renders(self, name):
        shape = SHAPES[name]
        lines = [(60e3, 1.0), (60.05e3, 0.5), (61e3, 2.0), (150.01e3, 0.25)]
        expected = np.zeros(GRID.size)
        acc = np.zeros(GRID.size)
        for center, power in lines:
            expected += shape.render(GRID, center, power)
            shape.deposit(acc, GRID, center, power)
        assert acc.tobytes() == expected.tobytes()

    def test_narrow_window_takes_the_nearest_bin(self):
        acc = np.zeros(GRID.size)
        GaussianLine(2.0).deposit(acc, GRID, 100.020e3, 1.5)
        assert np.count_nonzero(acc) == 1
        assert acc[np.searchsorted(GRID, 100.0e3)] == 1.5

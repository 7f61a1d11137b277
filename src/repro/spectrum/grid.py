"""Uniform frequency grids for spectrum captures.

A campaign is defined over a span with a resolution ``fres`` (Figure 10:
e.g. 0-4 MHz at 50 Hz → 80,000 points). The grid owns bin bookkeeping so
traces, renderers, and the heuristic all agree on indexing.
"""

from __future__ import annotations

import numpy as np

from ..errors import GridError
from ..units import format_frequency


class FrequencyGrid:
    """A uniform grid of frequency bins ``start + k * resolution``.

    ``start`` and ``stop`` are inclusive of the first bin and exclusive of
    the last edge; the number of bins is ``round((stop - start) / fres)``.
    """

    def __init__(self, start, stop, resolution):
        if resolution <= 0:
            raise GridError("resolution must be positive")
        if stop <= start:
            raise GridError("stop must exceed start")
        if start < 0:
            raise GridError("start frequency must be non-negative")
        self.start = float(start)
        self.stop = float(stop)
        self.resolution = float(resolution)
        self.n_bins = int(round((self.stop - self.start) / self.resolution))
        if self.n_bins < 2:
            raise GridError("grid must contain at least two bins")
        self._frequencies = self.start + np.arange(self.n_bins) * self.resolution

    @property
    def frequencies(self):
        """Bin center frequencies (Hz), read-only view."""
        view = self._frequencies.view()
        view.flags.writeable = False
        return view

    @property
    def span(self):
        return self.stop - self.start

    def index_of(self, frequency):
        """Index of the bin containing ``frequency``; raises when outside."""
        if not self.contains(frequency):
            raise GridError(
                f"frequency {format_frequency(frequency)} outside grid "
                f"[{format_frequency(self.start)}, {format_frequency(self.stop)})"
            )
        index = int(round((frequency - self.start) / self.resolution))
        # round() maps the last half-bin before ``stop`` to n_bins; clamp
        # to the nearest real bin so the documented [start, stop) domain
        # is indexable end to end.
        return min(max(index, 0), self.n_bins - 1)

    def contains(self, frequency):
        """Whether the frequency falls in the documented span [start, stop)."""
        return self.start <= frequency < self.stop

    def frequency_at(self, index):
        """Center frequency of bin ``index`` (supports negative indexing)."""
        if index < 0:
            index += self.n_bins
        if not 0 <= index < self.n_bins:
            raise GridError(f"bin index {index} outside grid of {self.n_bins} bins")
        return self.start + index * self.resolution

    def slice_indices(self, low, high):
        """(lo, hi) bin index range covering frequencies in [low, high]."""
        if high < low:
            raise GridError("slice bounds reversed")
        lo = int(np.ceil((low - self.start) / self.resolution - 1e-9))
        hi = int(np.floor((high - self.start) / self.resolution + 1e-9)) + 1
        lo = max(lo, 0)
        hi = min(hi, self.n_bins)
        if hi <= lo:
            raise GridError("slice contains no bins")
        return lo, hi

    def subgrid(self, low, high):
        """A new grid covering [low, high] with the same resolution."""
        lo, hi = self.slice_indices(low, high)
        return FrequencyGrid(
            self.frequency_at(lo),
            self.frequency_at(hi - 1) + self.resolution,
            self.resolution,
        )

    def __len__(self):
        return self.n_bins

    def __reduce__(self):
        # Rebuild from the three defining floats: the bin array is derived
        # (n_bins float64s) and would otherwise ride along in every pickle.
        return (type(self), (self.start, self.stop, self.resolution))

    def __eq__(self, other):
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return (
            abs(self.start - other.start) < 1e-9
            and abs(self.resolution - other.resolution) < 1e-12
            and self.n_bins == other.n_bins
        )

    def __hash__(self):
        return hash((round(self.start, 6), round(self.resolution, 9), self.n_bins))

    def __repr__(self):
        return (
            f"FrequencyGrid({format_frequency(self.start)} to "
            f"{format_frequency(self.stop)}, fres={format_frequency(self.resolution)}, "
            f"{self.n_bins} bins)"
        )

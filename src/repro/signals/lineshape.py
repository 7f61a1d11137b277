"""Spectral line shapes for ideal and non-ideal carriers.

The paper distinguishes (Figures 1 vs 3) between ideal carriers — a spike at
one frequency — and non-ideal carriers whose energy is "spread around its
nominal value". Crystal-derived clocks give near-delta lines; RC oscillators
(used by switching regulators) give Gaussian-looking spreads from accumulated
phase noise; spread-spectrum clocks sweep over a band, producing a wide
pedestal with edge horns (Figure 14).

A :class:`LineShape` is a *normalized power density* around a line's center
frequency. Rendering onto a discrete grid multiplies the density by the
line's total power and by the bin width, then renormalizes over the rendering
window so total power is conserved exactly on the grid (tests rely on this).

Deposit vs render. :meth:`LineShape.deposit` adds a line into a caller's
accumulator over its rendering window only; :meth:`LineShape.render` is a
zeroed grid plus one ``deposit``, for callers that want the line on its
own. An emitter sums hundreds of lines per scene, so it deposits: that
skips a full-grid temporary and a full-grid add per line and yields the
same bits, because every bin outside the window would only have gained
``+ 0.0`` and the lines still land in the same order. Sums *between*
separately rendered arrays (a station's carrier plus its audio, the spur
field's total) are still formed before they reach the environment's
accumulator, over the bins they touch: folding them into it line by
line would reorder float adds and change the bytes.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnitsError


class LineShape:
    """Base class: a unit-power spectral density centered at zero offset.

    Subclasses implement :meth:`density` over frequency offsets (Hz) and
    expose :attr:`halfwidth`, the one-sided window outside which the density
    is treated as zero when rendering.
    """

    #: One-sided rendering window in Hz. Subclasses must set this.
    halfwidth = 0.0

    def density(self, offsets):
        """Unnormalized density at the given frequency offsets (array)."""
        raise NotImplementedError

    def broadened(self, extra_width):
        """Return a new shape convolved (approximately) with a Gaussian.

        Side-bands "inherit" the carrier's instability (Figure 3) *plus* the
        jitter of the modulating activity; harmonic ``k`` of the alternation
        is broadened by ``k`` times the alternation jitter. Approximating the
        convolution by adding widths in quadrature is exact for Gaussians and
        adequate for the others at the accuracy FASE needs.
        """
        raise NotImplementedError

    def render(self, frequencies, center, power):
        """Deposit ``power`` onto grid ``frequencies`` around ``center``.

        Returns an array of per-bin powers the same shape as ``frequencies``
        (zeros outside the window). The grid must be uniformly spaced and
        sorted ascending.
        """
        out = np.zeros_like(frequencies, dtype=float)
        self.deposit(out, frequencies, center, power)
        return out

    def deposit(self, out, frequencies, center, power):
        """Add this line's per-bin powers into ``out`` in place.

        Touches only the bins of the rendering window (or the single
        nearest bin when the window is narrower than one bin), so the
        result is bit-identical to ``out + self.render(...)`` without the
        full-grid temporary: every other bin would have gained ``+ 0.0``.
        """
        if power <= 0:
            return
        lo = np.searchsorted(frequencies, center - self.halfwidth, side="left")
        hi = np.searchsorted(frequencies, center + self.halfwidth, side="right")
        if hi <= lo:
            # Window narrower than one bin: deposit into the nearest bin if
            # the center lies inside the grid.
            idx = np.searchsorted(frequencies, center)
            if 0 < idx < len(frequencies):
                if abs(frequencies[idx - 1] - center) < abs(frequencies[idx] - center):
                    idx -= 1
            elif idx == len(frequencies):
                idx -= 1
            if 0 <= idx < len(frequencies) and abs(frequencies[idx] - center) <= max(
                self.halfwidth, _grid_step(frequencies)
            ):
                out[idx] += power
            return
        window = frequencies[lo:hi]
        weights = self.density(window - center)
        total = weights.sum()
        if total <= 0:
            return
        out[lo:hi] += power * weights / total


def _grid_step(frequencies):
    if len(frequencies) < 2:
        return 1.0
    return float(frequencies[1] - frequencies[0])


class DeltaLine(LineShape):
    """An ideal line: all power lands in the nearest bin.

    Models crystal-derived clocks whose linewidth is far below the analyzer
    resolution bandwidth (e.g. the 128 kHz memory-refresh timing, which the
    paper notes is "very stable ... likely generated by logic clocked with a
    crystal-oscillator derived clock").
    """

    halfwidth = 0.0

    def density(self, offsets):
        out = np.zeros_like(offsets, dtype=float)
        if len(out):
            out[np.argmin(np.abs(offsets))] = 1.0
        return out

    def broadened(self, extra_width):
        if extra_width <= 0:
            return DeltaLine()
        return GaussianLine(extra_width)


class GaussianLine(LineShape):
    """Gaussian spread, the shape of RC-oscillator (regulator) carriers.

    The paper: "The carrier's energy is spread around its central frequency
    by what looks like a Gaussian distribution. ... clocks generated by RC
    oscillators create carriers like the one in Figure 12."
    """

    def __init__(self, sigma):
        if sigma <= 0:
            raise UnitsError("Gaussian line sigma must be positive")
        self.sigma = float(sigma)
        self.halfwidth = 5.0 * self.sigma

    def density(self, offsets):
        z = offsets / self.sigma
        return np.exp(-0.5 * z * z)

    def broadened(self, extra_width):
        if extra_width <= 0:
            return GaussianLine(self.sigma)
        return GaussianLine(float(np.hypot(self.sigma, extra_width)))

    def __repr__(self):
        return f"GaussianLine(sigma={self.sigma:g})"


class LorentzianLine(LineShape):
    """Lorentzian spread, the classic white-FM phase-noise line shape.

    Provided for oscillators dominated by white frequency noise rather than
    the random-walk noise that yields Gaussian lines; some regulator clocks
    are better fit by heavy tails.
    """

    def __init__(self, gamma):
        if gamma <= 0:
            raise UnitsError("Lorentzian line gamma must be positive")
        self.gamma = float(gamma)
        self.halfwidth = 30.0 * self.gamma

    def density(self, offsets):
        return 1.0 / (1.0 + (offsets / self.gamma) ** 2)

    def broadened(self, extra_width):
        if extra_width <= 0:
            return LorentzianLine(self.gamma)
        # Voigt profile approximated by widening gamma; adequate for the
        # coarse bin widths FASE campaigns use.
        return LorentzianLine(self.gamma + 0.5 * extra_width)

    def __repr__(self):
        return f"LorentzianLine(gamma={self.gamma:g})"


class SpreadSpectrumLine(LineShape):
    """Swept-clock line: a pedestal across the sweep band with edge horns.

    Spread-spectrum clocking sweeps the clock frequency across ``width`` Hz
    (e.g. a 333 MHz memory clock swept between 332 and 333 MHz, Figure 14).
    The long-term spectrum is the dwell-time distribution of the sweep. A
    sinusoidal sweep profile yields the arcsine distribution (strong edge
    horns); a triangular profile yields a uniform pedestal. Both are
    smoothed by the oscillator's own linewidth ``edge_sigma``.
    """

    def __init__(self, width, edge_sigma=None, profile="sinusoidal"):
        if width <= 0:
            raise UnitsError("sweep width must be positive")
        if profile not in ("sinusoidal", "triangular"):
            raise UnitsError(f"unknown sweep profile {profile!r}")
        self.width = float(width)
        self.edge_sigma = float(edge_sigma) if edge_sigma else self.width / 100.0
        if self.edge_sigma <= 0:
            raise UnitsError("edge smoothing sigma must be positive")
        self.profile = profile
        self.halfwidth = self.width / 2.0 + 5.0 * self.edge_sigma

    def density(self, offsets):
        half = self.width / 2.0
        x = np.asarray(offsets, dtype=float)
        if self.profile == "triangular":
            core = (np.abs(x) <= half).astype(float)
        else:
            # Arcsine dwell density, regularized at the band edges where the
            # ideal density diverges; the physical cutoff is the oscillator
            # linewidth.
            inside = np.clip(half * half - x * x, 0.0, None)
            core = np.where(
                np.abs(x) <= half,
                1.0 / np.sqrt(inside + self.edge_sigma * self.edge_sigma),
                0.0,
            )
        # Smooth the band edges with a Gaussian roll-off to model the
        # oscillator linewidth without an explicit convolution.
        overshoot = np.clip(np.abs(x) - half, 0.0, None)
        rolloff = np.exp(-0.5 * (overshoot / self.edge_sigma) ** 2)
        edge_value = 1.0 / self.edge_sigma if self.profile == "sinusoidal" else 1.0
        return np.where(np.abs(x) <= half, core, edge_value * rolloff)

    def broadened(self, extra_width):
        if extra_width <= 0:
            return SpreadSpectrumLine(self.width, self.edge_sigma, self.profile)
        return SpreadSpectrumLine(
            self.width, float(np.hypot(self.edge_sigma, extra_width)), self.profile
        )

    def __repr__(self):
        return (
            f"SpreadSpectrumLine(width={self.width:g}, "
            f"edge_sigma={self.edge_sigma:g}, profile={self.profile!r})"
        )

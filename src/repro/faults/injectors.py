"""Seed-reproducible capture fault injectors.

Real FASE campaigns (Figure 10's hours-long sweeps in an unshielded city
lab) lose captures to hazards the clean simulator never produces:
transient RF interference, analyzer front-end clipping, local-oscillator
drift between sweeps, dropped traces, and impulsive ADC glitches. Each
injector here models one such hazard as a transformation of a captured
per-bin power array, driven by an explicit ``numpy.random.Generator`` so
a fault campaign replays bit-for-bit from its seed.

Injectors are *per capture*: each draws whether it fires
(``probability``) and then, only when it fired, its severity parameters,
all from the one generator the campaign derives for that (capture index,
attempt) pair. Everything downstream of the seed is therefore a pure
function of (seed, index, attempt) — independent of thread scheduling
and worker count, which the reproducibility property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..choices import FAULT_CLASS_NAMES
from ..errors import CaptureFaultError, SystemModelError
from ..units import dbm_to_milliwatts


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: which injector fired on which capture attempt."""

    fault: str
    index: int
    attempt: int
    detail: str

    def describe(self):
        return f"{self.fault} on capture {self.index} (attempt {self.attempt}): {self.detail}"


class FaultInjector:
    """Base class: a per-capture corruption of the measured power array."""

    name = "fault"

    def __init__(self, probability):
        if not 0.0 <= probability <= 1.0:
            raise SystemModelError("fault probability must be in [0, 1]")
        self.probability = float(probability)

    def fires(self, rng):
        """Whether this injector hits the current capture (one draw, always)."""
        return rng.random() < self.probability

    def apply(self, power, grid, rng):
        """Corrupt ``power`` in place; return a one-line detail string.

        Called only when :meth:`fires` returned True. Must draw its
        severity parameters from ``rng`` and nothing else.
        """
        raise NotImplementedError

    def describe(self):
        return f"{self.name}(p={self.probability:g})"


class TransientInterference(FaultInjector):
    """A strong RF burst (e.g. a keyed transmitter) landing in one sweep.

    Unlike the static :class:`~repro.system.environment.ToneInterferer`
    sources — present identically in every capture, and therefore
    cancelled by Eq. 2 — a transient burst pollutes *one* spectrum only,
    which is exactly the case the leave-one-out path must handle.
    """

    name = "interference"

    def __init__(self, probability=0.3, power_dbm=-75.0, width_bins=5):
        super().__init__(probability)
        if width_bins < 1:
            raise SystemModelError("burst width must be at least one bin")
        self.power_mw = float(dbm_to_milliwatts(power_dbm))
        self.power_dbm = float(power_dbm)
        self.width_bins = int(width_bins)

    def apply(self, power, grid, rng):
        center = int(rng.integers(0, grid.n_bins))
        lo = max(center - self.width_bins // 2, 0)
        hi = min(lo + self.width_bins, grid.n_bins)
        power[lo:hi] += self.power_mw / max(hi - lo, 1)
        return f"burst at {grid.frequency_at(center):.0f} Hz, {self.power_dbm:g} dBm"

    def describe(self):
        return f"{self.name}(p={self.probability:g}, {self.power_dbm:g} dBm)"


class AdcClipping(FaultInjector):
    """Front-end saturation: every bin above a ceiling flattens onto it.

    Models an overdriven analyzer input (a too-low attenuator setting):
    the strong lines that carry the side-band evidence are the first to
    clip, so the capture silently under-reports exactly the features FASE
    scores. The flat-topped bins it leaves behind (several bins at the
    identical ceiling power) are what the screen's tie check looks for.
    """

    name = "clipping"

    def __init__(self, probability=0.25, ceiling_dbm=-108.0):
        super().__init__(probability)
        self.ceiling_mw = float(dbm_to_milliwatts(ceiling_dbm))
        self.ceiling_dbm = float(ceiling_dbm)

    def apply(self, power, grid, rng):
        clipped = int(np.count_nonzero(power > self.ceiling_mw))
        np.minimum(power, self.ceiling_mw, out=power)
        return f"{clipped} bins clipped at {self.ceiling_dbm:g} dBm"

    def describe(self):
        return f"{self.name}(p={self.probability:g}, ceiling {self.ceiling_dbm:g} dBm)"


class FrequencyDrift(FaultInjector):
    """Local-oscillator drift: the whole sweep lands offset by a few bins.

    Between the five falt sweeps of a campaign the analyzer's reference
    can drift; a drifted capture reads every feature — side-bands
    included — at the wrong absolute frequency, which corrupts both the
    Eq. 2 alignment and the movement-verification fit. The shift is an
    integer number of bins (uniform in ±[min,max], never zero), applied
    with edge-value padding like the scorer's own shifted reads.
    """

    name = "drift"

    def __init__(self, probability=0.3, min_offset_bins=4, max_offset_bins=12):
        super().__init__(probability)
        if not 1 <= min_offset_bins <= max_offset_bins:
            raise SystemModelError("need 1 <= min_offset_bins <= max_offset_bins")
        self.min_offset_bins = int(min_offset_bins)
        self.max_offset_bins = int(max_offset_bins)

    def apply(self, power, grid, rng):
        magnitude = int(rng.integers(self.min_offset_bins, self.max_offset_bins + 1))
        sign = 1 if rng.random() < 0.5 else -1
        offset = sign * magnitude
        if offset > 0:
            power[offset:] = power[:-offset].copy()
            power[:offset] = power[offset]
        else:
            power[:offset] = power[-offset:].copy()
            power[offset:] = power[offset - 1]
        return f"spectrum shifted by {offset:+d} bins ({offset * grid.resolution:+.0f} Hz)"

    def describe(self):
        return (
            f"{self.name}(p={self.probability:g}, "
            f"{self.min_offset_bins}-{self.max_offset_bins} bins)"
        )


class CaptureDrop(FaultInjector):
    """The capture never completes: analyzer timeout or transfer loss."""

    name = "drop"

    def apply(self, power, grid, rng):
        # The caller (FaultPlan.corrupt) turns the sentinel return into a
        # CaptureFaultError carrying the event list; raising here would
        # lose the events of injectors that already ran.
        return "capture dropped"

    def __init__(self, probability=0.15):
        super().__init__(probability)


class GlitchBins(FaultInjector):
    """Impulsive ADC glitches: a burst of isolated bins spikes hard.

    Single-shot converter glitches and bus errors show up as scattered
    one-bin impulses far above anything physical. A handful per capture
    is enough to plant false Eq. 1 evidence at ``f - h*falt_i`` for every
    harmonic, so the screen counts excess outlier bins per capture.
    """

    name = "glitch"

    def __init__(self, probability=0.35, min_bins=8, max_bins=24, power_dbm=-80.0):
        super().__init__(probability)
        if not 1 <= min_bins <= max_bins:
            raise SystemModelError("need 1 <= min_bins <= max_bins")
        self.min_bins = int(min_bins)
        self.max_bins = int(max_bins)
        self.power_mw = float(dbm_to_milliwatts(power_dbm))
        self.power_dbm = float(power_dbm)

    def apply(self, power, grid, rng):
        count = int(rng.integers(self.min_bins, self.max_bins + 1))
        bins = rng.choice(grid.n_bins, size=min(count, grid.n_bins), replace=False)
        power[bins] += self.power_mw
        return f"{len(bins)} glitch bins at {self.power_dbm:g} dBm"

    def describe(self):
        return (
            f"{self.name}(p={self.probability:g}, {self.min_bins}-{self.max_bins} bins, "
            f"{self.power_dbm:g} dBm)"
        )


#: Injector classes by name, in the canonical order of
#: :data:`repro.choices.FAULT_CLASS_NAMES`.
_BY_NAME = {
    cls.name: cls
    for cls in (CaptureDrop, TransientInterference, AdcClipping, FrequencyDrift, GlitchBins)
}
FAULT_CLASSES = {name: _BY_NAME[name] for name in FAULT_CLASS_NAMES}


class FaultPlan:
    """Which faults a campaign injects, and the screen that must catch them.

    A plan is deterministic given the campaign seed: the campaign derives
    one child generator per (capture index, attempt) and hands it to
    :meth:`corrupt`, which walks the injectors in order. Passing a plan to
    :class:`~repro.core.campaign.MeasurementCampaign` also switches the
    campaign onto the degraded-mode path (per-index capture streams,
    screening, bounded retries) even when the plan injects nothing —
    :meth:`none` is how tests get the degraded plumbing with clean data.
    """

    def __init__(self, injectors=(), screen=None):
        from .screening import CaptureScreen

        self.injectors = tuple(injectors)
        names = [injector.name for injector in self.injectors]
        if len(set(names)) != len(names):
            raise SystemModelError(f"duplicate fault classes in plan: {sorted(names)}")
        self.screen = screen if screen is not None else CaptureScreen()

    @classmethod
    def default(cls, classes=None, screen=None):
        """Every fault class (or a named subset) at documented default severity."""
        if classes is None:
            classes = tuple(FAULT_CLASSES)
        unknown = [name for name in classes if name not in FAULT_CLASSES]
        if unknown:
            raise SystemModelError(
                f"unknown fault classes {unknown}; choose from {sorted(FAULT_CLASSES)}"
            )
        # Instantiate in canonical registry order regardless of the order
        # the caller named them, so the rng walk is stable.
        injectors = [FAULT_CLASSES[name]() for name in FAULT_CLASSES if name in classes]
        return cls(injectors, screen=screen)

    @classmethod
    def none(cls, screen=None):
        """No injectors: degraded-mode plumbing over clean captures."""
        return cls((), screen=screen)

    def describe(self):
        if not self.injectors:
            return "fault plan: none (screening only)"
        return "fault plan: " + ", ".join(injector.describe() for injector in self.injectors)

    def corrupt(self, power, grid, rng, index=0, attempt=0):
        """Run every injector over one capture's power array.

        Returns ``(power, events)``; raises :class:`CaptureFaultError`
        (carrying the events so far) when a drop fires. ``power`` is
        modified in place and returned for convenience.
        """
        events = []
        for injector in self.injectors:
            fired = injector.fires(rng)
            if not fired:
                continue
            detail = injector.apply(power, grid, rng)
            events.append(
                FaultEvent(fault=injector.name, index=index, attempt=attempt, detail=detail)
            )
            if isinstance(injector, CaptureDrop):
                raise CaptureFaultError(
                    f"capture {index} (attempt {attempt}) dropped", events=events
                )
        return power, events

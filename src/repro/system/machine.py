"""System models: a set of emitters in an RF environment.

A :class:`SystemModel` wires together the emitters of one computer (its
regulators, refresh engine, clocks, and unmodulated spurs), the ambient RF
environment, and the receiver chain. Given an
:class:`~repro.uarch.activity.AlternationActivity` it produces a *scene* —
the object a :class:`~repro.spectrum.analyzer.SpectrumAnalyzer` captures —
whose mean per-bin power is cached per grid because campaigns capture the
same scene several times (the paper averages 4 sweeps per falt).

Two caches sit behind a scene. The scene's own cache is per activity: it
holds the emitters' lines plus the environment, and a new activity (the
next falt) starts a new scene. The environment's cache is per machine:
:meth:`~repro.system.environment.RFEnvironment.mean_power` does not
depend on activity, so it is rendered once per grid and returned
read-only. A scene adds it into its own freshly allocated accumulator
after the emitters, in the same order as an uncached render, so caching
changes no byte of ``mean_bin_power``.
"""

from __future__ import annotations

import numpy as np

from ..errors import SystemModelError
from ..uarch.activity import AlternationActivity
from .antenna import ReceiverChain
from .environment import RFEnvironment


class MachineScene:
    """A system model under one fixed activity: what the analyzer sees."""

    def __init__(self, machine, activity):
        self.machine = machine
        self.activity = activity
        self._cache = {}

    def mean_bin_power(self, grid):
        cached = self._cache.get(grid)
        if cached is not None:
            return cached
        power = np.zeros(grid.n_bins, dtype=float)
        receiver = self.machine.receiver
        for emitter in self.machine.emitters:
            # per-emitter coupling: the near/far-field transition depends
            # on the carrier frequency, so a distant antenna attenuates a
            # kHz regulator far more than a hundreds-of-MHz clock
            coupling = receiver.power_coupling(
                frequency=emitter.oscillator.frequency
            )
            power += emitter.render(grid, self.activity) * coupling
        power += self.machine.environment.mean_power(grid)
        self._cache[grid] = power
        return power


class SystemModel:
    """A modeled computer system: named emitters + environment + receiver."""

    def __init__(self, name, emitters, environment=None, receiver=None):
        emitters = list(emitters)
        if not emitters:
            raise SystemModelError("a system model needs at least one emitter")
        names = [emitter.name for emitter in emitters]
        if len(set(names)) != len(names):
            raise SystemModelError(f"duplicate emitter names in {name!r}: {sorted(names)}")
        self.name = name
        self.emitters = emitters
        self.environment = environment or RFEnvironment.quiet()
        self.receiver = receiver or ReceiverChain()

    def scene(self, activity):
        """The scene of this machine running the given activity."""
        if not isinstance(activity, AlternationActivity):
            raise SystemModelError("activity must be an AlternationActivity")
        return MachineScene(self, activity)

    def idle_scene(self):
        """The machine doing nothing (all activity levels zero)."""
        return self.scene(AlternationActivity.constant({}, label="idle"))

    def emitter_named(self, name):
        for emitter in self.emitters:
            if emitter.name == name:
                return emitter
        raise SystemModelError(
            f"no emitter named {name!r} in {self.name!r}; "
            f"have {[e.name for e in self.emitters]}"
        )

    def modulated_emitters(self, activity):
        """The emitters whose envelope or frequency the activity moves.

        This is the model's ground truth against which FASE's detections
        are validated in tests and benchmarks.
        """
        return [emitter for emitter in self.emitters if emitter.is_modulated_by(activity)]

    def __repr__(self):
        return f"SystemModel({self.name!r}, {len(self.emitters)} emitters)"

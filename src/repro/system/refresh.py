"""Memory-refresh emanations (Section 4.2).

DDR3 requires a refresh command on average every tREFI = 7.8 us — a 128 kHz
repetition ("the maximum allowable average time between refresh commands").
Each command lasts about 200 ns, so the duty cycle is below 3 % and "its
harmonics are all of similar strength" (slow sinc decay). The timing is
derived from the crystal-clocked memory controller, so the lines are sharp.

The modulation mechanism is *inverted*: demand accesses delay refresh
commands, and the controller catches up later, so increasing memory
activity *disrupts the periodicity* of refresh and weakens the coherent
lines ("it weakens (instead of getting stronger) as memory activity
increases"), spreading the lost energy over a wide band. We model the
coherent amplitude with a coherence factor

    rho(utilization) = exp(-coherence_loss * utilization)

and return the lost power (1 - rho^2) as a broad pedestal around each
harmonic. Under X/Y alternation the coherence alternates between rho(u_x)
and rho(u_y), amplitude-modulating every refresh harmonic — which is how
FASE finds the signal in Figure 11.

Rank staggering reproduces the paper's localization puzzle: Figure 11 shows
refresh harmonics at "512 kHz, 1024 kHz, etc." while near-field probing
"revealed many additional harmonics with a greatest common divisor of
128 kHz, not 512 kHz". A controller that staggers refreshes round-robin
across ``n_ranks`` ranks emits an aggregate pulse train at
``n_ranks * 128 kHz``; only a small per-rank amplitude imbalance leaks weak
lines at the 128 kHz sub-harmonics, visible only close to the DIMMs. With
``n_ranks=4`` the strong far-field comb lands exactly on 512 kHz multiples.
"""

from __future__ import annotations

import numpy as np

from ..errors import SystemModelError
from ..signals.lineshape import GaussianLine
from ..signals.oscillator import CrystalOscillator
from ..signals.pulse import pulse_harmonic_amplitude
from ..units import dbm_to_milliwatts
from .domains import MEMORY_UTILIZATION
from .emitter import Emitter

#: DDR3 average refresh interval (7.8125 us) expressed as a frequency.
DDR3_REFRESH_FREQUENCY = 128e3

#: Approximate refresh command duration (tRFC-ish) used for the duty cycle.
REFRESH_PULSE_SECONDS = 200e-9


class MemoryRefreshEmitter(Emitter):
    """Crystal-timed refresh pulses whose periodicity erodes under load."""

    def __init__(
        self,
        name="memory refresh",
        refresh_frequency=DDR3_REFRESH_FREQUENCY,
        fundamental_dbm=-128.0,
        coherence_loss=1.0,
        dispersal_width=30e3,
        max_harmonics=40,
        n_ranks=1,
        rank_imbalance=0.15,
        **kwargs,
    ):
        if refresh_frequency <= 0:
            raise SystemModelError("refresh frequency must be positive")
        if coherence_loss < 0:
            raise SystemModelError("coherence loss must be non-negative")
        if dispersal_width <= 0:
            raise SystemModelError("dispersal width must be positive")
        if n_ranks < 1:
            raise SystemModelError("n_ranks must be >= 1")
        if not 0.0 <= rank_imbalance < 1.0:
            raise SystemModelError("rank imbalance must be in [0, 1)")
        self.n_ranks = int(n_ranks)
        self.rank_imbalance = float(rank_imbalance)
        self.duty_cycle = REFRESH_PULSE_SECONDS * refresh_frequency
        if not 0 < self.duty_cycle < 0.1:
            raise SystemModelError("refresh duty cycle out of the <10% regime")
        self.coherence_loss = float(coherence_loss)
        self.dispersal_width = float(dispersal_width)
        oscillator = CrystalOscillator(refresh_frequency)
        super().__init__(
            name,
            oscillator,
            domain=MEMORY_UTILIZATION,
            fundamental_dbm=fundamental_dbm,
            max_harmonics=max_harmonics,
            **kwargs,
        )

    @property
    def refresh_frequency(self):
        return self.oscillator.frequency

    def coherence(self, utilization):
        """Fraction of refresh amplitude remaining coherent at a load."""
        if not 0.0 <= utilization <= 1.0:
            raise SystemModelError("utilization must be in [0, 1]")
        return float(np.exp(-self.coherence_loss * utilization))

    def rank_stagger_factor(self, order):
        """Amplitude factor from round-robin rank staggering at a harmonic.

        The aggregate pulse train is the sum of ``n_ranks`` copies delayed
        by 1/n_ranks of the period, with per-rank amplitudes
        ``1 + imbalance * cos(2 pi r / n_ranks)``. Equal ranks cancel every
        harmonic not divisible by n_ranks; the imbalance leaks weak lines
        at the sub-harmonics (the near-field-only 128 kHz comb).
        """
        if self.n_ranks == 1:
            return 1.0
        ranks = np.arange(self.n_ranks)
        amplitudes = 1.0 + self.rank_imbalance * np.cos(2.0 * np.pi * ranks / self.n_ranks)
        phases = np.exp(-2j * np.pi * order * ranks / self.n_ranks)
        return float(np.abs(np.sum(amplitudes * phases)) / np.sum(amplitudes))

    def reference_level(self):
        # fundamental_dbm is specified for an idle system (strongest case).
        return 0.0

    def amplitude_unit(self):
        """Anchor ``fundamental_dbm`` to the first *strong* comb line.

        With rank staggering the true fundamental (e.g. 128 kHz) is a weak
        leak; what an observer calibrates against is the first full-comb
        harmonic (order ``n_ranks``, e.g. 512 kHz), matching how the paper
        reports the signal's harmonics "at frequencies of 512 kHz,
        1024 kHz, etc.".
        """
        reference = self.envelope(self.n_ranks, self.reference_level())
        if reference <= 0:
            raise SystemModelError("refresh reference envelope must be positive")
        return float(np.sqrt(dbm_to_milliwatts(self.fundamental_dbm))) / reference

    def envelope(self, order, level):
        return (
            pulse_harmonic_amplitude(order, self.duty_cycle)
            * self.rank_stagger_factor(order)
            * self.coherence(level)
        )

    def render(self, grid, activity):
        """Coherent lines + the dispersed-energy pedestal."""
        power = super().render(grid, activity)
        unit = self.amplitude_unit()
        mean_utilization = activity.mean_level(MEMORY_UTILIZATION)
        rho = self.coherence(mean_utilization)
        dispersed_fraction = 1.0 - rho * rho
        if dispersed_fraction <= 0:
            return power
        pedestal = GaussianLine(self.dispersal_width)
        for order in range(1, self.max_harmonics + 1):
            center = self.oscillator.harmonic_frequency(order)
            if center - pedestal.halfwidth > grid.stop:
                break
            amplitude = (
                unit
                * pulse_harmonic_amplitude(order, self.duty_cycle)
                * self.rank_stagger_factor(order)
            )
            lost_power = amplitude * amplitude * dispersed_fraction
            if lost_power <= 0:
                continue
            pedestal.deposit(power, grid.frequencies, center, lost_power)
        return power

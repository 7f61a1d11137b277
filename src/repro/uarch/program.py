"""Program-level workloads: phase sequences beyond the X/Y loop.

The Figure 6 micro-benchmark alternates two homogeneous bursts; real
victims run *sequences* of phases whose per-domain activity varies with
secret data (the square-and-multiply pattern of binary exponentiation
being the classic example, used by the at-a-distance attack demo). This
module models a program as a list of (micro-op, iteration count) phases
and renders it into per-domain activity waveforms through the same timing
model the micro-benchmark uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SystemModelError
from ..rng import ensure_rng
from .isa import MicroOp, activity_levels
from .timing import LatencyModel


@dataclass(frozen=True)
class ProgramPhase:
    """One homogeneous burst: ``iterations`` repetitions of ``op``."""

    op: MicroOp
    iterations: int

    def __post_init__(self):
        if not isinstance(self.op, MicroOp):
            raise SystemModelError(f"phase op must be a MicroOp, got {self.op!r}")
        if self.iterations < 1:
            raise SystemModelError("phase iterations must be >= 1")


class Program:
    """A sequence of phases, optionally repeated."""

    def __init__(self, phases, repeat=1):
        phases = list(phases)
        if not phases:
            raise SystemModelError("a program needs at least one phase")
        if repeat < 1:
            raise SystemModelError("repeat must be >= 1")
        self.phases = phases
        self.repeat = int(repeat)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def alternation(cls, op_x, count_x, op_y, count_y, repeat=1):
        """The Figure 6 loop as a two-phase program."""
        return cls([ProgramPhase(op_x, count_x), ProgramPhase(op_y, count_y)], repeat=repeat)

    @classmethod
    def square_and_multiply(cls, bits, square_iterations=2000, multiply_iterations=2000):
        """Binary exponentiation over ``bits``: every bit squares (MUL
        burst); a set bit additionally multiplies (a second MUL burst).

        The secret-dependent *length* difference between 0-phases and
        1-phases is the leak the attack demo exploits.
        """
        phases = []
        for bit in bits:
            phases.append(ProgramPhase(MicroOp.MUL, square_iterations))
            if int(bit):
                phases.append(ProgramPhase(MicroOp.MUL, multiply_iterations))
            # modular reduction touches memory
            phases.append(ProgramPhase(MicroOp.LDL2, square_iterations // 4))
        return cls(phases)

    # ------------------------------------------------------------------

    def expanded_phases(self):
        """The phase list with the repeat count unrolled."""
        return self.phases * self.repeat

    def total_iterations(self):
        return self.repeat * sum(phase.iterations for phase in self.phases)


@dataclass(frozen=True)
class ProgramTrace:
    """Simulated execution: per-phase durations (seconds)."""

    phases: tuple
    durations: tuple

    @property
    def total_seconds(self):
        return float(sum(self.durations))


class ProgramSimulator:
    """Runs programs through the latency model into activity waveforms."""

    def __init__(self, latency_model=None):
        self.latency_model = latency_model or LatencyModel()

    def trace(self, program, rng=None):
        """Sample one execution of the program."""
        rng = ensure_rng(rng)
        phases = tuple(program.expanded_phases())
        durations = tuple(
            float(
                self.latency_model.burst_durations(phase.op, phase.iterations, 1, rng=rng)[0]
            )
            for phase in phases
        )
        return ProgramTrace(phases=phases, durations=durations)

    def activity_waveform(self, program, domain, sample_rate, rng=None):
        """Per-sample activity level of one domain over one execution.

        Returns ``(levels, trace)``; phase boundaries are placed by
        rounding absolute times (no per-phase quantization drift).
        """
        if sample_rate <= 0:
            raise SystemModelError("sample rate must be positive")
        trace = self.trace(program, rng=rng)
        n_samples = int(round(trace.total_seconds * sample_rate))
        if n_samples < 1:
            raise SystemModelError("program too short for the sample rate")
        levels = np.empty(n_samples, dtype=float)
        t = 0.0
        filled = 0
        for phase, duration in zip(trace.phases, trace.durations):
            end = min(int(round((t + duration) * sample_rate)), n_samples)
            if end > filled:
                levels[filled:end] = activity_levels(phase.op)[domain]
                filled = end
            t += duration
        if filled < n_samples:
            levels[filled:] = levels[filled - 1] if filled else 0.0
        return levels, trace

    def mean_level(self, program, domain):
        """Time-averaged activity of a domain (analytic, no sampling)."""
        total_time = 0.0
        weighted = 0.0
        for phase in program.expanded_phases():
            duration = self.latency_model.burst_duration_mean(phase.op, phase.iterations)
            total_time += duration
            weighted += duration * activity_levels(phase.op)[domain]
        return weighted / total_time


class ProgramActivity:
    """Adapter: a looping program as an activity the emitters can render.

    Exposes the same surface the emitters and the time-domain scene use —
    ``sampled_level`` for waveform synthesis, ``level_x``/``level_y`` and
    friends (as the program's time-averaged levels) for the analytic
    renderer, where a non-periodic program contributes its mean emission
    but no alternation side-bands.
    """

    def __init__(self, program, simulator=None, label="program"):
        self.program = program
        self.simulator = simulator or ProgramSimulator()
        self.label = label
        # nominal repetition rate of the whole program, for components
        # that need *a* falt (no side-bands are synthesized from it)
        trace_seconds = sum(
            self.simulator.latency_model.burst_duration_mean(p.op, p.iterations)
            for p in program.expanded_phases()
        )
        self.falt = 1.0 / trace_seconds
        self.duty_cycle = 0.5
        self.jitter_fraction = 0.0

    def sampled_level(self, domain, duration, sample_rate, rng=None):
        """Loop the program until ``duration`` is covered."""
        rng = ensure_rng(rng)
        n_samples = int(round(duration * sample_rate))
        chunks = []
        total = 0
        while total < n_samples:
            levels, _ = self.simulator.activity_waveform(
                self.program, domain, sample_rate, rng=rng
            )
            chunks.append(levels)
            total += len(levels)
        return np.concatenate(chunks)[:n_samples]

    def _mean(self, domain):
        return self.simulator.mean_level(self.program, domain)

    def level_x(self, domain):
        return self._mean(domain)

    def level_y(self, domain):
        return self._mean(domain)

    def mean_level(self, domain):
        return self._mean(domain)

    def swing(self, domain):
        return 0.0

    def is_modulating(self, domain, threshold=1e-9):
        return False

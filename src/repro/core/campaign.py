"""Measurement campaigns: run the micro-benchmark, capture the spectra.

One campaign (Section 2.3): for each alternation frequency
``falt_i = falt1 + i * f_delta``, calibrate the X/Y micro-benchmark to that
frequency, let the system run it, and record the averaged spectrum
``SP_i``. The result bundles the traces with the *achieved* alternation
frequencies (integer loop counts quantize falt slightly; the heuristic uses
the real values, as the experimenters would after reading them off the
spectrum).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

from ..errors import CampaignError, CaptureFaultError, DegradedCampaignError
from ..rng import child_rng, ensure_rng
from ..spectrum.analyzer import SpectrumAnalyzer
from ..telemetry import adopt_telemetry, current_telemetry, record_campaign_ledger
from ..uarch.activity import AlternationActivity
from ..uarch.microbench import AlternationMicrobenchmark
from ..uarch.timing import LatencyModel
from .config import FaseConfig


@dataclass(frozen=True)
class CampaignMeasurement:
    """One captured spectrum: the achieved falt, activity, and trace.

    ``flagged`` marks a capture the quality screen rejected after the
    retry budget ran out; its trace is kept (for inspection and the
    naive-vs-degraded detection delta) but the scoring path excludes it.
    ``quality`` is the screen's :class:`CaptureQuality` verdict when the
    capture was screened.
    """

    falt: float
    activity: AlternationActivity
    trace: object  # SpectrumTrace
    flagged: bool = False
    quality: object = None  # CaptureQuality | None


@dataclass
class CampaignResult:
    """All measurements of one campaign for one X/Y activity pair."""

    config: FaseConfig
    machine_name: str
    activity_label: str
    measurements: list = field(default_factory=list)
    robustness: object = None  # RobustnessReport | None for fault-plan runs

    @property
    def traces(self):
        return [m.trace for m in self.measurements]

    @property
    def falts(self):
        return [m.falt for m in self.measurements]

    @property
    def included_measurements(self):
        """Measurements the scoring path may use (not screen-flagged)."""
        return [m for m in self.measurements if not m.flagged]

    @property
    def excluded_indices(self):
        """Positions (into ``measurements``) of screen-flagged captures."""
        return [i for i, m in enumerate(self.measurements) if m.flagged]

    def scoring_view(self):
        """The result the Eq. 1/2 scorer should see.

        With no flagged captures this is ``self`` — bit-identical clean
        behavior. Otherwise it is the leave-one-out view: a result over
        the N-k unflagged measurements only, so Eq. 2's denominator
        renormalizes over the remaining spectra. Raises
        :class:`DegradedCampaignError` when fewer than two usable
        captures remain.
        """
        included = self.included_measurements
        if len(included) == len(self.measurements):
            return self
        if len(included) < 2:
            raise DegradedCampaignError(
                f"only {len(included)} usable capture(s) remain after exclusion; "
                "the heuristic needs at least two",
                robustness=self.robustness,
            )
        return CampaignResult(
            config=self.config,
            machine_name=self.machine_name,
            activity_label=self.activity_label,
            measurements=included,
            robustness=self.robustness,
        )

    def with_flags_cleared(self):
        """A view scoring *every* capture, flags ignored (delta baseline)."""
        if not self.excluded_indices:
            return self
        return CampaignResult(
            config=self.config,
            machine_name=self.machine_name,
            activity_label=self.activity_label,
            measurements=[replace(m, flagged=False) for m in self.measurements],
            robustness=self.robustness,
        )

    @property
    def grid(self):
        if not self.measurements:
            raise CampaignError("campaign result has no measurements")
        return self.measurements[0].trace.grid

    def validate(self):
        """Sanity-check internal consistency (shared grid, distinct falts)."""
        if len(self.measurements) < 2:
            raise CampaignError("campaign needs at least two measurements")
        grid = self.grid
        for measurement in self.measurements:
            if measurement.trace.grid != grid:
                raise CampaignError("campaign traces are on different grids")
        falts = sorted(self.falts)
        for a, b in zip(falts, falts[1:]):
            if b - a < 2 * grid.resolution:
                raise CampaignError(
                    "achieved alternation frequencies are closer than two bins; "
                    "increase f_delta or decrease fres"
                )
        return self


class MeasurementCampaign:
    """Drives a system model through one FASE campaign.

    A clean campaign with ``config.n_workers == 1`` draws every capture
    from one shared ``analyzer`` stream in falt order
    (:meth:`iter_captures`). Every other campaign runs
    :meth:`_capture_loop`, where each capture is a pure function of
    (seed, index, attempt), on ``n_workers`` threads when that is above
    one. ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) sends the
    loop's captures through a :class:`~repro.faults.FaultyAnalyzer`;
    every capture is screened against the cohort, failed or flagged
    captures are retried up to ``config.max_capture_retries`` times, and
    persistent failures are flagged (quality) or omitted (drops) with a
    full :class:`~repro.faults.RobustnessReport` on the result.
    :class:`repro.runner.DurableCampaign` runs the same loop over a
    journal.
    """

    def __init__(self, machine, config, latency_model=None, rng=None, fault_plan=None):
        self.machine = machine
        self.config = config
        self.latency_model = latency_model or LatencyModel()
        self.rng = ensure_rng(rng)
        self.fault_plan = fault_plan

    def _analyzer(self):
        return SpectrumAnalyzer(
            n_averages=self.config.n_averages, rng=child_rng(self.rng, "analyzer")
        )

    def _indexed_analyzer(self, index, attempt=0):
        """A clean analyzer on the per-measurement derived noise stream.

        Attempt 0 is the ``analyzer:{index}`` stream; retries get their own
        ``analyzer:{index}:retry{a}`` stream. Every route through
        :meth:`_capture_loop` (the clean ``n_workers > 1`` route, the
        fault-screened route and :class:`repro.runner.DurableCampaign`)
        captures through :meth:`capture_attempt` and so derives analyzers
        here: their captures are pure functions of (seed, index, attempt)
        and agree byte-for-byte with each other.
        """
        suffix = f"analyzer:{index}" if attempt == 0 else f"analyzer:{index}:retry{attempt}"
        return SpectrumAnalyzer(
            n_averages=self.config.n_averages, rng=child_rng(self.rng, suffix)
        )

    def capture_attempt(self, activities, label, grid, index, attempt=0):
        """One attempt at measurement ``index``: ``(trace or None, events)``.

        Noise comes from :meth:`_indexed_analyzer`; under a fault plan the
        capture goes through a :class:`~repro.faults.FaultyAnalyzer` whose
        fault stream is ``faults:{index}:{attempt}``, so the outcome is a
        pure function of (seed, index, attempt) regardless of worker count
        or scheduling, and a ``FaultPlan.none()`` run is byte-identical to
        the clean one. ``None`` is a capture the plan dropped; ``events``
        are the faults injected into this attempt (none without a plan).
        """
        analyzer = self._indexed_analyzer(index, attempt)
        if self.fault_plan is not None:
            from ..faults.analyzer import FaultyAnalyzer

            analyzer = FaultyAnalyzer(
                analyzer,
                self.fault_plan,
                child_rng(self.rng, f"faults:{index}:{attempt}"),
                index=index,
                attempt=attempt,
            )
        activity = activities[index]
        with current_telemetry().span(
            "capture", stage="capture", index=index, attempt=attempt, falt=activity.falt
        ) as capture_span:
            scene = self.machine.scene(activity)
            try:
                trace = analyzer.capture(
                    scene, grid, label=f"{label} falt={activity.falt:.6g}Hz"
                )
            except CaptureFaultError:
                capture_span.set(dropped=True)
                return None, analyzer.events
        return trace, (analyzer.events if self.fault_plan is not None else ())

    def activities_for(self, op_x, op_y, label=None):
        """One calibrated alternation activity per configured falt."""
        activities = []
        for falt in self.config.falts():
            bench = AlternationMicrobenchmark.calibrated(
                op_x, op_y, falt, latency_model=self.latency_model
            )
            activities.append(bench.activity(label=label))
        return activities

    def run(self, op_x, op_y, label=None):
        """Calibrate and measure at every alternation frequency.

        ``op_x``/``op_y`` are :class:`~repro.uarch.isa.MicroOp` values (the
        paper's notation LDM/LDL1 is ``MicroOp.LDM, MicroOp.LDL1``).
        """
        return self.run_with_activities(self.activities_for(op_x, op_y, label), label=label)

    def iter_captures(self, activities, label=None):
        """The clean serial capture sequence, one measurement at a time.

        Yields exactly what the serial branch of
        :meth:`run_with_activities` records: one analyzer on the shared
        ``analyzer`` child stream, consumed in activity order. Because
        the stream is consumed strictly sequentially, a consumer that
        stops after ``k`` measurements holds a byte-identical prefix of
        the full run — the remaining noise draws are simply never made.
        The adaptive survey planner's early stop rests on this: captures
        it did take match the exhaustive run's, captures it skipped cost
        nothing.
        """
        label = label or (activities[0].label if activities else None) or "activity"
        grid = self.config.grid()
        analyzer = self._analyzer()
        telemetry = current_telemetry()
        for index, activity in enumerate(activities):
            with telemetry.span(
                "capture", stage="capture", index=index, attempt=0, falt=activity.falt
            ):
                scene = self.machine.scene(activity)
                trace = analyzer.capture(
                    scene, grid, label=f"{label} falt={activity.falt:.6g}Hz"
                )
            yield CampaignMeasurement(falt=activity.falt, activity=activity, trace=trace)

    def run_with_activities(self, activities, label=None):
        """Measure a pre-built activity per alternation frequency.

        Accepts arbitrary :class:`AlternationActivity` objects — used by
        tests to plant precisely controlled modulation, and by the
        steady-state captures of Figure 14 (constant activities carry no
        side-bands but still produce valid traces).
        """
        if len(activities) < 2:
            raise CampaignError("need at least two activities (one per falt)")
        grid = self.config.grid()
        result = CampaignResult(
            config=self.config,
            machine_name=self.machine.name,
            activity_label=label or activities[0].label or "activity",
        )
        telemetry = current_telemetry()
        with telemetry.span(
            "campaign", label=result.activity_label, n_falts=len(activities)
        ):
            if self.fault_plan is None and self.config.n_workers <= 1:
                result.measurements.extend(
                    self.iter_captures(activities, label=result.activity_label)
                )
            else:
                result.measurements, result.robustness = self._capture_loop(
                    activities,
                    partial(self.capture_attempt, activities, result.activity_label, grid),
                )
            record_campaign_ledger(telemetry, result.measurements, result.robustness)
            if len(result.included_measurements) < 2:
                raise DegradedCampaignError(
                    f"only {len(result.included_measurements)} usable capture(s) out of "
                    f"{len(activities)} survived fault screening",
                    robustness=result.robustness,
                )
        return result.validate()

    def _capture_loop(
        self,
        activities,
        attempt,
        *,
        by_index=False,
        exhausted="dropped",
    ):
        """The per-index capture loop: capture, retry, screen, assemble.

        ``attempt(index, attempt)`` returns ``(trace or None, events)``;
        ``None`` is a failed attempt (a fault-plan drop, a watchdog
        timeout). Returns ``(measurements, robustness)``:

        1. Each index is captured, a failed attempt retried at once while
           ``config.max_capture_retries`` allows; an index that fails every
           attempt is dropped ("capture {exhausted} on all N attempt(s)").
        2. Under a fault plan the present traces are screened and each
           flagged capture with budget left goes through step 1's retry
           again, the reference recomputed every round. An exhausted
           re-capture drops the capture: its flagged trace is discarded.
        3. Measurements are assembled in index order, screen failures kept
           but flagged. Without a fault plan the report is ``None`` unless
           an attempt failed (a watchdog timeout of durable execution).

        Each index's retries are one task; with ``config.n_workers`` above
        one the tasks share one thread pool. Attempts are pure in (seed,
        index, attempt), so nothing depends on scheduling. The ledger lists
        events and exhaustions in rounds (every pending index's k-th
        attempt before any (k+1)-th) or, with ``by_index``, grouped per
        capture index, the order of a journal.
        """
        from ..faults.robustness import RobustnessReport

        n = len(activities)
        max_retries = self.config.max_capture_retries
        traces, attempts, index_events = [None] * n, [0] * n, [[] for _ in range(n)]
        events = []
        excluded = {}
        screen = self.fault_plan.screen if self.fault_plan is not None else None

        def until_present(index):
            """Attempt ``index`` until a trace lands or its budget runs out;
            returns each attempt's events."""
            tries = []
            while True:
                trace, attempt_events = attempt(index, attempts[index])
                tries.append(list(attempt_events))
                index_events[index].extend(attempt_events)
                if trace is not None or attempts[index] >= max_retries:
                    traces[index] = trace
                    return tries
                attempts[index] += 1

        def capture(indices, run):
            tries = dict(zip(indices, run(until_present, indices)))
            for k in range(max(map(len, tries.values()), default=0)):
                for index in indices:
                    if k < len(tries[index]):
                        events.extend(tries[index][k])
            lost = [index for index in indices if traces[index] is None]
            if not by_index:
                lost.sort(key=lambda index: len(tries[index]))
            for index in lost:
                excluded[index] = (
                    f"capture {exhausted} on all {attempts[index] + 1} attempt(s)",
                )

        n_workers = min(self.config.n_workers, n)
        qualities = {}
        with (
            ThreadPoolExecutor(
                max_workers=n_workers,
                initializer=adopt_telemetry,
                initargs=(current_telemetry(),),
            )
            if n_workers > 1
            else nullcontext()
        ) as pool:
            run = pool.map if pool is not None else map
            capture(list(range(n)), run)
            while screen is not None:
                present = [index for index in range(n) if traces[index] is not None]
                if len(present) < 2:
                    break
                reference = screen.reference([traces[index] for index in present])
                qualities = {
                    index: screen.assess(traces[index], reference) for index in present
                }
                retry = [
                    index
                    for index in present
                    if not qualities[index].ok and attempts[index] < max_retries
                ]
                if not retry:
                    break
                for index in retry:
                    attempts[index] += 1
                capture(retry, run)

        measurements = []
        for index, activity in enumerate(activities):
            trace = traces[index]
            if trace is None:
                continue
            quality = qualities.get(index)
            flagged = quality is not None and not quality.ok
            if flagged:
                excluded[index] = quality.reasons
                current_telemetry().event(
                    "screen-rejection", index=index, reasons=list(quality.reasons)
                )
            measurements.append(
                CampaignMeasurement(
                    falt=activity.falt,
                    activity=activity,
                    trace=trace,
                    flagged=flagged,
                    quality=quality,
                )
            )
        if by_index:
            events = [event for per_index in index_events for event in per_index]
        retries = {index: attempts[index] for index in range(n) if attempts[index] > 0}
        if self.fault_plan is None and not (events or retries or excluded):
            return measurements, None
        return measurements, RobustnessReport(
            plan_description=(
                self.fault_plan.describe()
                if self.fault_plan is not None
                else "durable execution (no fault plan)"
            ),
            events=events,
            retries=retries,
            excluded=excluded,
            dropped=tuple(index for index in range(n) if traces[index] is None),
        )

    def capture_steady(self, levels, label="steady"):
        """One averaged capture of a constant workload (e.g. Figure 14)."""
        activity = AlternationActivity.constant(levels, label=label)
        analyzer = self._analyzer()
        return analyzer.capture(self.machine.scene(activity), self.config.grid(), label=label)

"""Durable campaign execution: checkpoint, resume, watchdog, salvage.

:class:`DurableCampaign` is a :class:`~repro.core.campaign.MeasurementCampaign`
whose execution survives the three ways an hours-long run dies in
practice:

* **a crash or kill** — every completed capture is checkpointed to a
  :class:`~repro.runner.journal.CampaignJournal` the moment the analyzer
  returns; rerunning the same campaign over the same journal resumes from
  the last good capture of each index;
* **a hung capture** — every attempt runs under a
  :class:`~repro.runner.watchdog.CaptureWatchdog` wall-clock deadline
  (``FaseConfig.capture_timeout_s``); a timed-out attempt is abandoned
  and retried on a fresh derived stream after a bounded exponential
  backoff (``FaseConfig.retry_backoff_s``), up to
  ``FaseConfig.max_capture_retries`` extra attempts;
* **persistent per-capture failure** — a capture that exhausts its
  budget is dropped, and the campaign is *salvaged*: as long as at least
  ``min_good_captures`` usable falts remain, the run completes with the
  damage ledgered in ``result.robustness`` and scoring running
  leave-one-out, instead of aborting.

The capture, retry, screening and assembly steps are
:meth:`MeasurementCampaign._capture_loop`, the loop of every indexed
route (on ``n_workers`` threads here too); this module adds the journal,
the attempt step (backoff, watchdog, checkpoint) and the
``min_good_captures`` floor. Captures run on the per-measurement derived
streams (``analyzer:{index}``), pure in (seed, index, attempt), so an
uninterrupted durable run equals the clean ``n_workers > 1`` run, or
under a fault plan the fault-screened one, except that its ledger groups
events per index and says "failed" for an exhausted capture. A kill
before the screening retries resumes byte-identically; a kill between
two screening retries resumes by screening the cohort it left behind,
which can differ from the uninterrupted run's.

Resume *references* checkpoints instead of copying them: journal records
are written uncompressed (``ZIP_STORED``), so restoring a completed
capture memory-maps its trace read-only straight out of the checkpoint
file (:func:`repro.io.mmap_npz_member`) — resuming a mostly-done
campaign costs O(captures left to run), not O(bins already captured).
"""

from __future__ import annotations

import time

from ..core.campaign import CampaignMeasurement, CampaignResult, MeasurementCampaign
from ..errors import CampaignError, CaptureTimeoutError, DegradedCampaignError, JournalError
from ..faults.injectors import FaultEvent
from ..faults.robustness import TIMEOUT_FAULT, RobustnessReport
from ..telemetry import current_telemetry, record_campaign_ledger
from .journal import CampaignJournal, campaign_fingerprint
from .watchdog import CaptureWatchdog, backoff_delay


class DurableCampaign(MeasurementCampaign):
    """A measurement campaign with checkpoint/resume and per-capture timeouts.

    ``journal_dir`` is the checkpoint directory for this one campaign
    (one journal per campaign — ``run_fase`` derives one per activity
    pair under its ``checkpoint_dir``). ``resume=True`` (default)
    continues an existing journal after verifying its fingerprint;
    ``resume=False`` refuses to touch an existing journal so a stale
    checkpoint is never silently overwritten. ``min_good_captures``
    bounds salvage: fewer usable captures than this raises
    :class:`DegradedCampaignError` (the Eq. 2 cross-normalization needs
    at least two). ``sleep`` is injectable for tests.

    Composes with ``fault_plan``: attempts go through the fault-injecting
    analyzer and cohort screening exactly as on the fault-screened route,
    with each successful capture journaled as it lands.
    """

    def __init__(
        self,
        machine,
        config,
        journal_dir,
        latency_model=None,
        rng=None,
        fault_plan=None,
        resume=True,
        min_good_captures=2,
        sleep=None,
    ):
        super().__init__(
            machine, config, latency_model=latency_model, rng=rng, fault_plan=fault_plan
        )
        if min_good_captures < 2:
            raise CampaignError("min_good_captures must be >= 2 (Eq. 2 needs two spectra)")
        self.journal = CampaignJournal(journal_dir)
        self.resume = bool(resume)
        self.min_good_captures = int(min_good_captures)
        self._sleep = sleep if sleep is not None else time.sleep
        #: Capture indices restored from the journal by the last run.
        self.resumed_indices = ()

    def run_with_activities(self, activities, label=None):
        if len(activities) < 2:
            raise CampaignError("need at least two activities (one per falt)")
        grid = self.config.grid()
        label = label or activities[0].label or "activity"
        self._open_or_create_journal(activities, label)
        telemetry = current_telemetry()
        with telemetry.span("campaign", label=label, n_falts=len(activities), durable=True):
            restored = self._restore(activities, grid)
            measurements, robustness = self._capture_loop(
                activities,
                self._journaled_attempt(activities, label, grid, restored),
                restored,
                by_index=True,
                exhausted="failed",
            )
            record_campaign_ledger(
                telemetry, measurements, robustness, resumed=self.resumed_indices
            )
            usable = sum(1 for measurement in measurements if not measurement.flagged)
            if usable < self.min_good_captures:
                raise DegradedCampaignError(
                    f"only {usable} usable capture(s) of {len(activities)} survived durable "
                    f"execution (minimum {self.min_good_captures})",
                    robustness=robustness,
                )
        return CampaignResult(
            config=self.config,
            machine_name=self.machine.name,
            activity_label=label,
            measurements=measurements,
            robustness=robustness,
        ).validate()

    def _restore(self, activities, grid):
        """``{index: (trace, attempt, events)}`` of the journaled captures.

        A record whose falt disagrees with the planned activity is stale
        (the fingerprint guards against this, but a damaged header could
        let one through) and is redone.
        """
        telemetry = current_telemetry()
        restored = {}
        for index, record in sorted(self.journal.records(grid).items()):
            if index >= len(activities):
                continue
            planned = activities[index].falt
            if abs(record.activity.falt - planned) > 1e-9 * max(abs(planned), 1.0):
                continue
            restored[index] = (record.trace, record.attempt, record.events)
            telemetry.event(
                "capture-resumed",
                index=index,
                attempt=record.attempt,
                n_journaled_events=len(record.events),
            )
        self.resumed_indices = tuple(restored)
        return restored

    def _journaled_attempt(self, activities, label, grid, restored):
        """The loop's attempt step: backoff, watchdog, then checkpoint.

        Retry ``k`` of an index first sleeps ``backoff_delay(k)``; the
        attempt then runs under the :class:`CaptureWatchdog`, a timed-out
        attempt failing with a ``capture-timeout`` event; a trace that
        lands is journaled at once with the index's cumulative events
        (restored ones included), so a kill anywhere loses at most the
        attempts in flight.
        """
        watchdog = CaptureWatchdog(self.config.capture_timeout_s)
        telemetry = current_telemetry()
        history = {index: list(events) for index, (_, _, events) in restored.items()}

        def journaled(index, attempt):
            delay = backoff_delay(attempt, self.config.retry_backoff_s)
            if delay > 0:
                self._sleep(delay)
            try:
                trace, events = watchdog.run(
                    lambda: self.capture_attempt(activities, label, grid, index, attempt),
                    index=index,
                    attempt=attempt,
                )
            except CaptureTimeoutError:
                trace, events = None, [
                    FaultEvent(
                        fault=TIMEOUT_FAULT,
                        index=index,
                        attempt=attempt,
                        detail=(
                            f"exceeded {self.config.capture_timeout_s:g} s wall clock; "
                            "attempt abandoned"
                        ),
                    )
                ]
                telemetry.event(
                    "capture-timeout",
                    index=index,
                    attempt=attempt,
                    deadline_s=self.config.capture_timeout_s,
                )
            history.setdefault(index, []).extend(events)
            if trace is not None:
                self.journal.append(
                    index, attempt, activities[index], trace, events=history[index]
                )
            return trace, events

        return journaled

    # ------------------------------------------------------------------

    def _open_or_create_journal(self, activities, label):
        fingerprint = campaign_fingerprint(self.config, self.machine.name, label, self.rng)
        if self.journal.exists():
            if not self.resume:
                raise JournalError(
                    f"a campaign journal already exists at "
                    f"{str(self.journal.directory)!r}; pass resume=True "
                    "(CLI: --resume) to continue it, or remove the directory"
                )
            self.journal.open(fingerprint)
        else:
            self.journal.create(
                fingerprint,
                self.config,
                self.machine.name,
                label,
                [activity.falt for activity in activities],
            )


def recover_campaign(journal_dir):
    """Rebuild a :class:`CampaignResult` from a journal alone.

    The recovery half of crash-safe persistence: when the final ``.npz``
    archive is lost or corrupted, the journal's checkpointed captures are
    enough to reconstruct the campaign (config, machine, activities, and
    every valid trace — screening flags are not journaled, so recovered
    measurements come back unflagged). Raises :class:`JournalError` when
    fewer than two captures are recoverable.

    The journaled per-capture history (fault and timeout events, retry
    attempts) is replayed into a :class:`RobustnessReport` on
    ``result.robustness`` whenever any capture recorded one, so a
    recovered campaign still accounts for how its captures were earned —
    this is what ``repro analyze --journal`` prints as resume context.
    """
    journal = CampaignJournal(journal_dir).open()
    config = journal.config()
    grid = config.grid()
    records = journal.records(grid)
    if len(records) < 2:
        raise JournalError(
            f"journal at {str(journal.directory)!r} holds only {len(records)} "
            "recoverable capture(s); the heuristic needs at least two"
        )
    result = CampaignResult(
        config=config,
        machine_name=journal.header["machine_name"],
        activity_label=journal.header["activity_label"],
    )
    events = []
    retries = {}
    telemetry = current_telemetry()
    for index in sorted(records):
        record = records[index]
        result.measurements.append(
            CampaignMeasurement(
                falt=float(record.activity.falt),
                activity=record.activity,
                trace=record.trace,
            )
        )
        events.extend(record.events)
        if record.attempt > 0:
            retries[index] = record.attempt
        telemetry.event(
            "capture-recovered",
            index=index,
            attempt=record.attempt,
            n_journaled_events=len(record.events),
        )
    if events or retries:
        result.robustness = RobustnessReport(
            plan_description=(
                f"recovered from journal {str(journal.directory)!r} "
                f"({len(records)} checkpointed capture(s))"
            ),
            events=events,
            retries=retries,
        )
    return result.validate()

"""Budgeted adaptive survey planning: spend captures where the evidence is.

An exhaustive survey (Section 5) measures every (machine, pair, band)
shard at full resolution, yet most bands of Figures 11 and 17 contain no
activity-modulated carrier at all — the paper's own plots are mostly
noise floor between a handful of source combs. This module turns that
asymmetry into saved captures with three mechanisms layered on the
existing shard plan:

1. **Pre-scan** (:func:`prescan_shard`): a cheap low-resolution pass
   per shard — coarser RBW, the same Eq. 1/2 heuristic — whose peak
   combined z-score becomes the shard's *promise*. The pre-scan draws
   from its own seed-derived child stream (``prescan:{shard_id}``) on a
   fresh machine instance, so it is a pure function of
   ``(seed, shard_id)`` and cannot perturb the full-resolution run.
   Pre-scans run on the engine's drain like any shard; one that still
   fails after its retries is ledgered ``prescan-skipped``.
2. **Budgeted allocation** (:class:`CaptureBudget` inside
   :func:`run_planned`): full-resolution captures are granted to shards
   in promise order, round by round, under a global budget and optional
   per-machine quotas. Shards the budget never reaches are ledgered
   ``budget-exhausted`` instead of silently skipped.
3. **Early stop** (:func:`run_shard_adaptive`): a funded shard scores
   its running Eq. 1 product after every capture via
   :class:`~repro.core.heuristic.IncrementalEvidence`; when the prefix
   evidence plus the most the remaining factors could contribute is
   provably below the detection threshold, the shard stops and refunds
   its unused captures to the budget. Because the serial capture stream
   is consumed strictly in order
   (:meth:`~repro.core.campaign.MeasurementCampaign.iter_captures`),
   the captures an early-stopped shard *did* take are byte-identical to
   the exhaustive run's prefix.

Every terminal state is accounted: captures used plus captures saved
always equals the exhaustive total, and the
:class:`~repro.survey.report.SurveyLedger` carries one planner decision
per shard that did not complete at full resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..core.campaign import CampaignResult, MeasurementCampaign
from ..core.detect import CarrierDetector
from ..core.harmonics import group_harmonics
from ..core.heuristic import HeuristicScorer, IncrementalEvidence
from ..core.report import ActivityReport
from ..errors import SurveyError
from ..rng import child_rng
from ..telemetry import JsonlSink, Telemetry, record_campaign_ledger, use_telemetry
from .report import BUDGET_EXHAUSTED, EARLY_STOPPED, PRESCAN_SKIPPED, SurveyLedger
from .shards import _shard_result, _shard_setup, beat_heartbeat

#: Statuses a funded adaptive shard can finish with.
COMPLETED = "completed"


@dataclass(frozen=True)
class AdaptivePlanner:
    """Tunables of the budgeted adaptive scheduler (picklable, immutable).

    ``capture_budget`` caps full-resolution captures survey-wide:
    ``None`` means unlimited, a value ``>= 1`` is an absolute capture
    count, and a fraction in ``(0, 1)`` means that share of the
    exhaustive total. ``machine_budgets`` maps preset keys to per-machine
    capture quotas. ``prescan_rbw`` is the pre-scan resolution bandwidth
    in Hz (default: 5x the campaign RBW); ``prescan_averages`` its
    averaging count (default: the campaign's own — fewer averages lose
    the populated/empty separation on realistic noise floors).
    ``min_promise`` optionally skips shards whose pre-scan z-score falls
    below it without spending any budget on them.

    The early-stop rule kills a shard after ``k >= min_prefix_falts``
    captures when ``prefix_evidence + (n - k) * per_falt_cap_decades``
    is below ``stop_threshold_decades`` — i.e. even if every remaining
    Eq. 2 factor came in at the cap, the final Eq. 1 product could not
    reach the threshold. The defaults are deliberately conservative:
    they only kill clearly empty bands and never out-run the detector on
    the paper-figure fixtures.
    """

    capture_budget: object = None  # None | int | fraction of exhaustive
    machine_budgets: object = None  # {preset key: captures} | None
    prescan_rbw: object = None  # Hz | None -> 5x campaign RBW
    prescan_averages: object = None  # int | None -> campaign averages
    min_promise: object = None  # z-score floor | None
    stop_threshold_decades: float = 2.3
    per_falt_cap_decades: float = 0.45
    min_prefix_falts: int = 2

    def __post_init__(self):
        if self.capture_budget is not None and self.capture_budget <= 0:
            raise SurveyError("capture_budget must be positive (or None for unlimited)")
        if self.stop_threshold_decades <= 0:
            raise SurveyError("stop_threshold_decades must be positive")
        if self.per_falt_cap_decades < 0:
            raise SurveyError("per_falt_cap_decades must be >= 0")
        if self.min_prefix_falts < 2:
            raise SurveyError("min_prefix_falts must be >= 2 (Eq. 2 needs two spectra)")

    # ------------------------------------------------------------------

    def prescan_config(self, config):
        """The derived low-resolution pre-scan campaign for ``config``.

        The RBW coarsens (default 5x), and ``f_delta`` widens to at
        least four pre-scan bins so the achieved falts stay two bins
        apart after quantization (the campaign validator's floor).
        """
        fres = float(self.prescan_rbw) if self.prescan_rbw is not None else config.fres * 5.0
        if fres < config.fres:
            raise SurveyError(
                f"prescan RBW {fres:g}Hz is finer than the campaign RBW "
                f"{config.fres:g}Hz; the pre-scan must be the cheap pass"
            )
        averages = (
            int(self.prescan_averages)
            if self.prescan_averages is not None
            else config.n_averages
        )
        return replace(
            config,
            fres=fres,
            f_delta=max(config.f_delta, 4.0 * fres),
            n_averages=averages,
            n_workers=1,
            name=(config.name or "survey") + " prescan",
        )

    def prescan_cost(self, config):
        """Pre-scan cost in full-resolution capture equivalents.

        Dwell per capture scales with averages over RBW, so one pre-scan
        capture costs ``(pre_avg / avg) * (fres / pre_fres)`` of a full
        capture; multiplied by the pre-scan's falt count.
        """
        pre = self.prescan_config(config)
        per_capture = (pre.n_averages / config.n_averages) * (config.fres / pre.fres)
        return pre.n_alternations * per_capture

    def budget_for(self, specs):
        """The :class:`CaptureBudget` this planner grants a shard plan."""
        exhaustive = sum(len(spec.config.falts()) for spec in specs)
        if self.capture_budget is None:
            total = math.inf
        elif self.capture_budget < 1:
            total = self.capture_budget * exhaustive
        else:
            total = float(self.capture_budget)
        per_machine = dict(self.machine_budgets) if self.machine_budgets else {}
        return CaptureBudget(total=total, per_machine=per_machine)

    def should_stop(self, evidence, n_total):
        """Early-stop verdict for the current prefix; ``(stop, bound)``.

        Sound by construction: the bound is an upper limit on what the
        finished campaign's evidence could be, so stopping can only kill
        shards whose final Eq. 1 product would have stayed below the
        threshold — provided ``per_falt_cap_decades`` truly caps the
        per-factor contribution (see the planner tier's soundness
        property test).
        """
        if evidence.n_captures < self.min_prefix_falts:
            return False, None
        if evidence.n_captures >= n_total:
            return False, None
        bound = evidence.bound_decades(n_total, self.per_falt_cap_decades)
        return bound < self.stop_threshold_decades, bound


@dataclass
class CaptureBudget:
    """A mutable meter of full-resolution captures the planner may spend.

    ``total`` may be ``math.inf`` (unlimited); ``per_machine`` maps
    preset keys to quotas, absent keys being unlimited. Charges are
    all-or-nothing per shard; early-stopped shards refund their unused
    captures, which can fund further shards in later rounds.
    """

    total: float = math.inf
    per_machine: dict = field(default_factory=dict)
    spent_total: float = 0.0
    spent_by_machine: dict = field(default_factory=dict)

    def spent(self, machine=None):
        if machine is None:
            return self.spent_total
        return self.spent_by_machine.get(machine, 0.0)

    def remaining(self, machine=None):
        if machine is None:
            return self.total - self.spent_total
        return self.per_machine.get(machine, math.inf) - self.spent(machine)

    def can_fund(self, machine, captures):
        return captures <= self.remaining() and captures <= self.remaining(machine)

    def charge(self, machine, captures):
        if not self.can_fund(machine, captures):
            raise SurveyError(
                f"cannot charge {captures} capture(s) for {machine!r}: "
                f"{self.remaining():g} remain survey-wide, "
                f"{self.remaining(machine):g} for the machine"
            )
        self.spent_total += captures
        self.spent_by_machine[machine] = self.spent(machine) + captures

    def refund(self, machine, captures):
        self.spent_total = max(self.spent_total - captures, 0.0)
        self.spent_by_machine[machine] = max(self.spent(machine) - captures, 0.0)

    def restore(self, machine, captures):
        """Re-apply a prior run's net spend without ``can_fund`` validation.

        Resume-only: the original run already funded these captures and
        the manifest proved they were spent, so re-validating against the
        quota could refuse history (charge + refund sequencing can differ
        from a single up-front charge).
        """
        self.spent_total += captures
        self.spent_by_machine[machine] = self.spent(machine) + captures


@dataclass(frozen=True)
class ShardPromise:
    """One shard's pre-scan verdict.

    ``promise`` is the peak combined z-score of the low-resolution pass
    (``-inf`` when the pre-scan errored), ``evidence`` its peak decades
    of combined Eq. 1 evidence, ``captures`` the shard's full-resolution
    capture count, and ``cost_equivalent`` what the pre-scan itself cost
    in full-capture equivalents.
    """

    shard_id: str
    machine: str
    promise: float
    evidence: float
    captures: int
    prescan_captures: int
    cost_equivalent: float
    error: object = None  # str | None


@dataclass(frozen=True)
class AdaptiveShardOutcome:
    """What :func:`run_shard_adaptive` sends back to the engine.

    ``status`` is :data:`COMPLETED` or
    :data:`~repro.survey.report.EARLY_STOPPED`; either way ``result`` is
    a full :class:`~repro.survey.shards.ShardResult` (an early-stopped
    shard legitimately reports zero detections — the stop rule proved no
    completion of the campaign could cross the threshold).
    """

    shard_id: str
    status: str
    result: object  # ShardResult
    captures_used: int
    captures_total: int
    stopped_after: object = None  # int | None
    evidence_bound: object = None  # float | None


@dataclass(frozen=True)
class PlanAccounting:
    """Where every capture of an adaptive survey went.

    The invariant the planner tier asserts:
    ``captures_used + captures_saved == exhaustive_captures``. Pre-scan
    work is metered separately (``prescan_captures`` raw low-resolution
    captures, ``prescan_cost_equivalent`` in full-capture units) so the
    headline saving cannot hide the scouting cost.
    """

    n_shards: int
    exhaustive_captures: int
    captures_used: int
    captures_saved: int
    prescan_captures: int
    prescan_cost_equivalent: float
    budget_total: float
    n_completed: int
    n_early_stopped: int
    n_budget_exhausted: int
    n_prescan_skipped: int
    promises: tuple  # ShardPromise, promise-ranked

    def to_text(self):
        budget = "unlimited" if math.isinf(self.budget_total) else f"{self.budget_total:g}"
        return (
            f"adaptive plan: {self.captures_used}/{self.exhaustive_captures} "
            f"full-resolution captures used, {self.captures_saved} saved "
            f"(budget {budget}; prescan {self.prescan_captures} coarse captures "
            f"~= {self.prescan_cost_equivalent:g} full); "
            f"shards: {self.n_completed} completed, "
            f"{self.n_early_stopped} early-stopped, "
            f"{self.n_budget_exhausted} budget-exhausted, "
            f"{self.n_prescan_skipped} prescan-skipped"
        )


# ----------------------------------------------------------------------
# Per-shard workers (module-level: picklable by reference for the pool).


def prescan_shard(spec, planner):
    """The cheap low-resolution pass; returns a :class:`ShardPromise`.

    Runs on a *fresh* machine instance built from the same
    ``machine:{name}`` child stream as the full run, with its own
    ``prescan:{shard_id}`` campaign stream — a pure function of
    ``(seed, shard_id)`` that leaves the full-resolution streams
    untouched. It beats the shard's heartbeat after every capture, as a
    funded shard does, so the stall watchdog never kills a live pre-scan.
    """
    preset, root, op_x, op_y, label = _shard_setup(spec)
    config = planner.prescan_config(spec.config)
    telemetry = Telemetry()
    beat_heartbeat(spec.heartbeat_path)
    try:
        with use_telemetry(telemetry):
            with telemetry.span("prescan", shard=spec.shard_id, fres=config.fres):
                machine = preset(rng=child_rng(root, f"machine:{spec.machine}"))
                campaign = MeasurementCampaign(
                    machine, config, rng=child_rng(root, f"prescan:{spec.shard_id}")
                )
                # The serial capture stream of ``campaign.run``, one
                # heartbeat per capture.
                result = CampaignResult(
                    config=config, machine_name=machine.name, activity_label=label
                )
                activities = campaign.activities_for(op_x, op_y, label=label)
                for measurement in campaign.iter_captures(activities, label=label):
                    result.measurements.append(measurement)
                    beat_heartbeat(spec.heartbeat_path)
                result.validate()
                scorer = HeuristicScorer()
                scores = scorer.all_scores(result)
                promise = float(np.max(scorer.combined_zscore(result, scores=scores)))
                evidence = float(np.max(scorer.combined_score(result, scores=scores)))
    finally:
        telemetry.close()
    return ShardPromise(
        shard_id=spec.shard_id,
        machine=spec.machine,
        promise=promise,
        evidence=evidence,
        captures=len(spec.config.falts()),
        prescan_captures=len(result.measurements),
        cost_equivalent=planner.prescan_cost(spec.config),
    )


def run_shard_adaptive(spec, planner, detector=None):
    """One funded shard with per-capture early stopping.

    Replicates :func:`~repro.survey.shards.run_shard`'s clean path
    capture for capture — same machine stream, same ``shard:{shard_id}``
    campaign stream, same serial shared analyzer — but scores the
    running Eq. 1 product after every capture and stops as soon as the
    planner's bound proves the detection threshold unreachable. A
    completed shard's detections are therefore identical to
    ``run_shard``'s; an early-stopped shard reports zero detections plus
    how many captures it left unspent.
    """
    gates = {
        "fault_classes": spec.fault_classes is not None,
        "keep_spectra": bool(spec.keep_spectra),
    }
    active = [name for name, triggered in gates.items() if triggered]
    if active:
        raise SurveyError(
            "adaptive shards support clean, non-durable runs only; "
            f"incompatible with: {', '.join(active)}"
        )
    preset, root, op_x, op_y, label = _shard_setup(spec)
    detector = detector or CarrierDetector()
    scorer = HeuristicScorer()
    sinks = [JsonlSink(spec.telemetry_jsonl)] if spec.telemetry_jsonl else []
    telemetry = Telemetry(sinks=sinks)
    beat_heartbeat(spec.heartbeat_path)
    n_total = len(spec.config.falts())
    try:
        with use_telemetry(telemetry):
            with telemetry.span(
                "adaptive-shard", shard=spec.shard_id, n_falts=n_total
            ):
                machine = preset(rng=child_rng(root, f"machine:{spec.machine}"))
                campaign = MeasurementCampaign(
                    machine, spec.config, rng=child_rng(root, f"shard:{spec.shard_id}")
                )
                activities = campaign.activities_for(op_x, op_y, label=label)
                evidence = IncrementalEvidence(
                    config=spec.config,
                    machine_name=machine.name,
                    activity_label=label,
                    scorer=scorer,
                )
                stopped_after = None
                bound = None
                with telemetry.span("campaign", label=label, n_falts=n_total):
                    for measurement in campaign.iter_captures(activities, label=label):
                        evidence.add(measurement)
                        beat_heartbeat(spec.heartbeat_path)
                        stop, bound = planner.should_stop(evidence, n_total)
                        if stop:
                            stopped_after = evidence.n_captures
                            break
                    record_campaign_ledger(
                        telemetry, evidence.result.measurements, None
                    )
                if stopped_after is None:
                    result = evidence.result.validate()
                    detections = detector.detect(result)
                else:
                    detections = []
                    telemetry.count("captures_saved", n_total - stopped_after)
                    telemetry.event(
                        "shard-early-stopped",
                        shard=spec.shard_id,
                        after=stopped_after,
                        of=n_total,
                        bound=bound,
                    )
                activity = ActivityReport(
                    activity_label=label,
                    detections=detections,
                    harmonic_sets=group_harmonics(detections),
                    robustness=None,
                )
    finally:
        telemetry.close()
    used = stopped_after if stopped_after is not None else n_total
    return AdaptiveShardOutcome(
        shard_id=spec.shard_id,
        status=EARLY_STOPPED if stopped_after is not None else COMPLETED,
        result=_shard_result(spec, machine, activity, telemetry),
        captures_used=used,
        captures_total=n_total,
        stopped_after=stopped_after,
        evidence_bound=bound,
    )


# ----------------------------------------------------------------------
# The allocator.


def _prescan_all(specs, planner, drain):
    """Pre-scan every shard on the engine's drain; failures become ``-inf`` promises.

    ``drain(specs, shard_fn, results, ledger)`` is the run's own
    :func:`~repro.survey.engine._drain`, so worker deaths, retries and the
    stall watchdog treat a pre-scan exactly like a shard. It ledgers into
    a scratch :class:`~repro.survey.report.SurveyLedger`: a failed
    pre-scan never spends the full run's retry budget. A shard the drain
    abandons gets a ``-inf`` promise carrying the abandon reason, which
    the allocator ledgers ``prescan-skipped``.
    """
    outcomes = {}
    scratch = SurveyLedger()
    drain(specs, partial(prescan_shard, planner=planner), outcomes, scratch)
    for spec in specs:
        if spec.shard_id in outcomes:
            continue
        outcomes[spec.shard_id] = ShardPromise(
            shard_id=spec.shard_id,
            machine=spec.machine,
            promise=-math.inf,
            evidence=0.0,
            captures=len(spec.config.falts()),
            prescan_captures=0,
            cost_equivalent=0.0,
            error=scratch.abandoned[spec.shard_id],
        )
    return outcomes


def _restore_promise(payload):
    """Rebuild a :class:`ShardPromise` from its manifest payload."""
    return ShardPromise(
        shard_id=payload["shard_id"],
        machine=payload["machine"],
        promise=float(payload["promise"]),
        evidence=float(payload["evidence"]),
        captures=int(payload["captures"]),
        prescan_captures=int(payload["prescan_captures"]),
        cost_equivalent=float(payload["cost_equivalent"]),
        error=payload.get("error"),
    )


def run_planned(
    specs,
    planner,
    workers,
    telemetry,
    ledger,
    results,
    max_shard_retries,
    max_pool_breaks,
    manifest=None,
    restored_promises=None,
    restored_outcomes=None,
    shard_timeout_s=None,
):
    """Drive a shard plan through the budgeted adaptive schedule.

    Three phases: (1) pre-scan every shard for its promise, on the same
    drain as the funded rounds; (2) filter
    shards below ``min_promise`` (and pre-scan failures) into the
    ``prescan-skipped`` ledger state; (3) fund and run shards in promise
    order, round by round — each round funds every still-fundable shard
    greedily by rank, runs the round through the engine's shared-pool
    machinery (worker death, retries, stall kills, and isolation behave
    exactly as in an exhaustive survey), then applies early-stop refunds
    so later rounds can spend them. Shards the budget never reaches are
    ledgered ``budget-exhausted``.

    Completed and early-stopped shards land in ``results`` as ordinary
    :class:`~repro.survey.shards.ShardResult`s for the engine's
    aggregation; the returned :class:`PlanAccounting` reconciles every
    capture. Deterministic in ``(specs, planner)``: the round structure
    puts a barrier between funding decisions and parallel execution, so
    the allocation — and with it every result — is invariant to
    ``workers``.

    With a :class:`~repro.survey.manifest.SurveyManifest` the plan is
    durable: fresh pre-scan promises and every funded shard's accounting
    (``outcome`` records, written before their shard records) are
    journaled. On resume, ``restored_promises`` skips those pre-scans,
    ``restored_outcomes`` replays each restored shard's net capture
    spend into the budget (:meth:`CaptureBudget.restore`), and the
    accounting invariant ``used + saved == exhaustive`` holds across the
    interruption. ``shard_timeout_s`` arms the engine's stall watchdog
    for the pre-scan and each round.
    """
    from .engine import _drain

    drain = partial(
        _drain,
        telemetry=telemetry,
        workers=workers,
        max_shard_retries=max_shard_retries,
        max_pool_breaks=max_pool_breaks,
        shard_timeout_s=shard_timeout_s,
    )
    restored_promises = restored_promises or {}
    restored_outcomes = restored_outcomes or {}
    with telemetry.span("plan_survey", n_shards=len(specs), workers=workers):
        promises = {
            shard_id: _restore_promise(payload)
            for shard_id, payload in restored_promises.items()
        }
        need_prescan = [spec for spec in specs if spec.shard_id not in promises]
        if need_prescan:
            with telemetry.span("prescan-sweep", n_shards=len(need_prescan)):
                fresh = _prescan_all(need_prescan, planner, drain)
            promises.update(fresh)
            if manifest is not None:
                for spec in need_prescan:
                    manifest.append_promise(fresh[spec.shard_id])
        order = sorted(
            range(len(specs)),
            key=lambda i: (-promises[specs[i].shard_id].promise, i),
        )
        ranked = tuple(promises[specs[i].shard_id] for i in order)

        # Shards a previous run already settled: completed/early-stopped
        # results were restored into ``results``; abandoned shards were
        # replayed into the ledger. Neither re-runs.
        done = set(results) | set(ledger.abandoned)
        pending = []
        skipped = []
        for index in order:
            spec = specs[index]
            if spec.shard_id in done:
                continue
            promise = promises[spec.shard_id]
            if promise.error is not None:
                skipped.append((spec, f"pre-scan failed: {promise.error}"))
            elif planner.min_promise is not None and promise.promise < planner.min_promise:
                skipped.append(
                    (
                        spec,
                        f"pre-scan promise z={promise.promise:.2f} below "
                        f"min_promise={planner.min_promise:g}",
                    )
                )
            else:
                pending.append(spec)
        for spec, detail in skipped:
            # A resumed plan recomputes the same skips from the same
            # promises; re-recording a replayed decision would only
            # duplicate its manifest record.
            if spec.shard_id not in ledger.planned:
                ledger.record_planned(spec.shard_id, PRESCAN_SKIPPED, detail)
                telemetry.event("shard-prescan-skipped", shard=spec.shard_id)

        budget = planner.budget_for(specs)
        exhaustive = sum(len(spec.config.falts()) for spec in specs)
        used = 0
        saved = sum(len(spec.config.falts()) for spec, _ in skipped)
        n_completed = n_early_stopped = 0
        for spec in specs:
            # Fold the restored shards back into the meter and the tally:
            # a shard's net spend is its captures_used (the original run
            # charged in full, then refunded the unused remainder).
            captures = len(spec.config.falts())
            if spec.shard_id in results:
                outcome = restored_outcomes.get(spec.shard_id)
                if outcome is not None:
                    restored_used = int(outcome["captures_used"])
                    status = outcome["status"]
                else:
                    # Orphan shard record (its outcome line was damaged):
                    # assume the full spend — never undercount.
                    restored_used = captures
                    status = COMPLETED
                budget.restore(spec.machine, restored_used)
                used += restored_used
                if status == EARLY_STOPPED:
                    saved += captures - restored_used
                    n_early_stopped += 1
                else:
                    n_completed += 1
            elif spec.shard_id in ledger.abandoned:
                saved += captures
        while pending:
            funded = []
            held = []
            for spec in pending:
                captures = len(spec.config.falts())
                if budget.can_fund(spec.machine, captures):
                    budget.charge(spec.machine, captures)
                    funded.append(spec)
                else:
                    held.append(spec)
            if not funded:
                break
            pending = held
            round_results = {}
            with telemetry.span("plan-round", n_funded=len(funded)):
                drain(funded, partial(run_shard_adaptive, planner=planner), round_results, ledger)
            # Refunds are applied only after the round barrier, so the
            # funding sequence is a pure function of (specs, planner).
            for spec in funded:
                outcome = round_results.get(spec.shard_id)
                captures = len(spec.config.falts())
                if outcome is None:
                    # Abandoned after retries; the ledger already says why.
                    budget.refund(spec.machine, captures)
                    saved += captures
                    continue
                if manifest is not None:
                    # Outcome before result: a kill between the two leaves
                    # an orphaned outcome resume ignores, never a shard
                    # whose spend is unknown.
                    manifest.append_outcome(outcome)
                results[spec.shard_id] = outcome.result
                used += outcome.captures_used
                if outcome.status == EARLY_STOPPED:
                    unused = outcome.captures_total - outcome.captures_used
                    budget.refund(spec.machine, unused)
                    saved += unused
                    n_early_stopped += 1
                    ledger.record_planned(
                        spec.shard_id,
                        EARLY_STOPPED,
                        f"stopped after {outcome.captures_used}/"
                        f"{outcome.captures_total} captures; evidence bound "
                        f"{outcome.evidence_bound:.2f} < "
                        f"{planner.stop_threshold_decades:g} decades",
                    )
                else:
                    n_completed += 1
        for spec in pending:
            captures = len(spec.config.falts())
            saved += captures
            if spec.shard_id not in ledger.planned:
                ledger.record_planned(
                    spec.shard_id,
                    BUDGET_EXHAUSTED,
                    f"capture budget exhausted before this shard's {captures} "
                    f"capture(s) could be funded",
                )
                telemetry.event("shard-budget-exhausted", shard=spec.shard_id)

    return PlanAccounting(
        n_shards=len(specs),
        exhaustive_captures=exhaustive,
        captures_used=used,
        captures_saved=saved,
        prescan_captures=sum(p.prescan_captures for p in ranked),
        prescan_cost_equivalent=sum(p.cost_equivalent for p in ranked),
        budget_total=budget.total,
        n_completed=n_completed,
        n_early_stopped=n_early_stopped,
        n_budget_exhausted=len(pending),
        n_prescan_skipped=len(skipped),
        promises=ranked,
    )

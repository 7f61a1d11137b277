"""Survey-level reports: per-machine results, cross-machine comparison,
and the robustness ledger of the survey run itself.

The paper's end goal (Section 5, Figures 11-17) is a *survey*: the same
FASE procedure over many machines, activity pairs, and bands, then a
comparison of which emanation sources recur across systems (Figure 17's
AMD-laptop column next to the desktop's). :class:`SurveyReport` is that
product: one :class:`~repro.core.report.FaseReport` per machine, a
cross-machine :func:`~repro.core.classify.classify_sources` comparison,
the merged telemetry snapshot of every shard, and a
:class:`SurveyLedger` accounting for every shard failure — worker
processes dying mid-shard included — so a survey that lost work says so
instead of silently thinning its results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.detect import CarrierDetection
from ..core.harmonics import HarmonicSet
from ..core.report import ActivityReport, FaseReport
from ..core.classify import ClassifiedSource

#: Failure kinds recorded in the ledger.
WORKER_DEATH = "worker-death"  # the shard's worker process died (isolated)
POOL_BREAK = "pool-break"  # a shared pool broke; shard requeued, not charged
SHARD_ERROR = "error"  # the shard raised inside the worker
POOL_BREAK_CAP = "pool-break-cap"  # survey-wide shared-pool break budget spent
SHARD_STALLED = "shard-stalled"  # the shard blew its wall-clock deadline; worker killed
CANCELLED = "cancelled"  # cooperative cancellation reached the shard before it ran

#: Degradation note kinds recorded in the ledger (graceful fallbacks).
DURABILITY_DEGRADED = "durability-degraded"  # manifest writes failed; running non-durable

#: Planner decision kinds recorded in the ledger (adaptive surveys).
EARLY_STOPPED = "early-stopped"  # Eq. 1 bound fell below threshold mid-shard
BUDGET_EXHAUSTED = "budget-exhausted"  # the capture budget never reached it
PRESCAN_SKIPPED = "prescan-skipped"  # pre-scan promise below the floor (or errored)


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard execution.

    ``charged`` distinguishes failures that consumed the shard's retry
    budget from pool-break collateral: when a worker dies in a *shared*
    pool every in-flight shard fails with ``BrokenProcessPool``, and only
    the subsequent isolated re-runs can attribute guilt.
    """

    shard_id: str
    kind: str  # WORKER_DEATH | POOL_BREAK | SHARD_ERROR | POOL_BREAK_CAP
    detail: str
    failures: int  # charged failures for this shard so far (incl. this one)
    charged: bool = True

    def describe(self):
        budget = f"failure {self.failures}" if self.charged else "not charged"
        return f"{self.shard_id}: {self.kind} ({budget}) - {self.detail}"


@dataclass
class SurveyLedger:
    """The survey's own robustness ledger (shards, not captures).

    Capture-level damage (drops, timeouts, screen exclusions) stays on
    each activity's :class:`~repro.faults.RobustnessReport`; this ledger
    records what happened to whole shards: every failure event, how often
    each shard was requeued, and the shards abandoned after exhausting
    ``max_shard_retries``.
    """

    failures: list = field(default_factory=list)  # ShardFailure, in order
    requeues: dict = field(default_factory=dict)  # shard_id -> requeue count
    abandoned: dict = field(default_factory=dict)  # shard_id -> final detail
    planned: dict = field(default_factory=dict)  # shard_id -> (kind, detail)
    notes: list = field(default_factory=list)  # (scope, kind, detail), in order
    cancelled: dict = field(default_factory=dict)  # shard_id -> detail

    @property
    def n_failures(self):
        return len(self.failures)

    def failures_for(self, shard_id):
        return [f for f in self.failures if f.shard_id == shard_id]

    def charged_failures(self):
        """``{shard_id: charged failures so far}``: what a resumed run
        carries over, so a shard that burned retries gets no fresh budget."""
        counts = {}
        for failure in self.failures:
            if failure.charged:
                counts[failure.shard_id] = max(counts.get(failure.shard_id, 0), failure.failures)
        return counts

    def charge(self, shard_id, kind, detail, failures, max_retries):
        """The one retry rule: record a charged failure (``failures`` is
        the count including this one), then a requeue while ``failures <=
        max_retries`` — returns True — or an abandonment — returns False."""
        self.record_failure(shard_id, kind, detail, failures=failures)
        if failures <= max_retries:
            self.record_requeue(shard_id)
            return True
        self.record_abandoned(shard_id, f"{kind} after {failures} failure(s): {detail}")
        return False

    def record_failure(self, shard_id, kind, detail, failures, charged=True):
        self._record({
            "event": "failure",
            "shard_id": shard_id,
            "failure_kind": kind,
            "detail": detail,
            "failures": int(failures),
            "charged": bool(charged),
        })

    def record_requeue(self, shard_id):
        self._record({"event": "requeue", "shard_id": shard_id})

    def record_abandoned(self, shard_id, detail):
        self._record({"event": "abandoned", "shard_id": shard_id, "detail": detail})

    def record_planned(self, shard_id, kind, detail):
        """One terminal planner decision for a shard an adaptive survey
        did not run to full resolution (early stop, budget, pre-scan
        skip). Distinct from failures: nothing went wrong — the planner
        chose not to spend the captures, and says why."""
        self._record({"event": "planned", "shard_id": shard_id, "decision": kind, "detail": detail})

    def record_note(self, scope, kind, detail):
        """One graceful-degradation event (e.g. :data:`DURABILITY_DEGRADED`;
        manifests may also replay kinds earlier versions journaled, such
        as ``shm-fallback``). ``scope`` is a shard id, or ``None``
        for a survey-wide event. Notes are not failures: the survey kept
        running, just with one guarantee weakened — and says which."""
        self._record({"event": "note", "scope": scope, "note_kind": kind, "detail": detail})

    def record_cancelled(self, shard_id, detail):
        """One shard cooperative cancellation reached before it started.

        Distinct from failures and abandonment: nothing went wrong and no
        retry budget was spent — the caller asked the survey to stop, and
        this shard was still waiting. A cancelled shard re-runs normally
        when the same plan is resumed without the cancellation."""
        self._record({"event": "cancelled", "shard_id": shard_id, "detail": detail})

    def _record(self, event):
        """Where every ``record_*`` lands; a journaled ledger also persists it."""
        self.apply(event)

    def apply(self, event):
        """Fold one ledger event into the ledger: the live recorders and a
        manifest replay both go through here. Unknown event kinds are
        ignored (forward compatibility)."""
        kind = event.get("event")
        if kind == "failure":
            self.failures.append(
                ShardFailure(
                    shard_id=event["shard_id"],
                    kind=event["failure_kind"],
                    detail=event["detail"],
                    failures=int(event["failures"]),
                    charged=bool(event.get("charged", True)),
                )
            )
        elif kind == "requeue":
            self.requeues[event["shard_id"]] = self.requeues.get(event["shard_id"], 0) + 1
        elif kind == "abandoned":
            self.abandoned[event["shard_id"]] = event["detail"]
        elif kind == "planned":
            self.planned[event["shard_id"]] = (event["decision"], event["detail"])
        elif kind == "note":
            self.notes.append((event.get("scope"), event["note_kind"], event["detail"]))
        elif kind == "cancelled":
            self.cancelled[event["shard_id"]] = event["detail"]

    def to_text(self):
        if not self.failures and not self.abandoned:
            if self.cancelled:
                lines = [
                    "survey ledger: cancelled with "
                    f"{len(self.cancelled)} shard(s) never run"
                ]
            else:
                lines = ["survey ledger: all shards completed cleanly"]
        else:
            lines = [
                f"survey ledger: {self.n_failures} shard failure(s), "
                f"{sum(self.requeues.values())} requeue(s), {len(self.abandoned)} abandoned"
            ]
            for failure in self.failures:
                lines.append(f"  {failure.describe()}")
            for shard_id, detail in self.abandoned.items():
                lines.append(f"  abandoned {shard_id}: {detail}")
        if self.cancelled:
            lines.append(f"cancelled: {len(self.cancelled)} shard(s)")
            for shard_id, detail in self.cancelled.items():
                lines.append(f"  cancelled {shard_id}: {detail}")
        if self.planned:
            lines.append(f"planner decisions: {len(self.planned)} shard(s)")
            for shard_id, (kind, detail) in self.planned.items():
                lines.append(f"  {kind} {shard_id}: {detail}")
        if self.notes:
            lines.append(f"degradation notes: {len(self.notes)} event(s)")
            for scope, kind, detail in self.notes:
                lines.append(f"  {kind} {scope or 'survey'}: {detail}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# JSON serialization. Values round-trip exactly (JSON floats are
# repr-based), so restored detections compare equal to the originals —
# the same fidelity contract the survey manifest relies on for resume,
# and what lets the service API ship reports as JSON instead of pickle.


def _detection_to_dict(detection):
    return {
        "frequency": float(detection.frequency),
        "combined_score": float(detection.combined_score),
        "harmonic_scores": {
            str(int(h)): float(score) for h, score in detection.harmonic_scores.items()
        },
        "magnitude_dbm": float(detection.magnitude_dbm),
        "modulation_depth": float(detection.modulation_depth),
        "activity_label": detection.activity_label,
    }


def _detection_from_dict(data):
    return CarrierDetection(
        frequency=float(data["frequency"]),
        combined_score=float(data["combined_score"]),
        harmonic_scores={int(h): float(s) for h, s in data["harmonic_scores"].items()},
        magnitude_dbm=float(data["magnitude_dbm"]),
        modulation_depth=float(data["modulation_depth"]),
        activity_label=data.get("activity_label", ""),
    )


def _harmonic_set_to_dict(harmonic_set, detections):
    """Members referencing the activity's detections serialize as indices."""
    members = []
    for order, detection in harmonic_set.members:
        index = next((i for i, d in enumerate(detections) if d is detection), None)
        entry = {"order": int(order)}
        if index is not None:
            entry["index"] = index
        else:
            entry["detection"] = _detection_to_dict(detection)
        members.append(entry)
    return {"fundamental": float(harmonic_set.fundamental), "members": members}


def _harmonic_set_from_dict(data, detections):
    members = []
    for entry in data["members"]:
        if "index" in entry:
            detection = detections[int(entry["index"])]
        else:
            detection = _detection_from_dict(entry["detection"])
        members.append((int(entry["order"]), detection))
    return HarmonicSet(fundamental=float(data["fundamental"]), members=tuple(members))


def _activity_report_to_dict(activity):
    from ..io import _robustness_to_dict

    detections = list(activity.detections)
    return {
        "activity_label": activity.activity_label,
        "detections": [_detection_to_dict(d) for d in detections],
        "harmonic_sets": [
            _harmonic_set_to_dict(s, detections) for s in activity.harmonic_sets
        ],
        "robustness": _robustness_to_dict(activity.robustness),
    }


def _activity_report_from_dict(data):
    from ..io import _robustness_from_dict

    detections = [_detection_from_dict(d) for d in data["detections"]]
    return ActivityReport(
        activity_label=data["activity_label"],
        detections=detections,
        harmonic_sets=[
            _harmonic_set_from_dict(s, detections) for s in data["harmonic_sets"]
        ],
        robustness=_robustness_from_dict(data.get("robustness")),
    )


def _source_to_dict(source):
    # Sources reference harmonic sets across activities; embedding the
    # members outright keeps each source self-contained in JSON.
    return {
        "harmonic_set": _harmonic_set_to_dict(source.harmonic_set, []),
        "fingerprint": source.fingerprint,
        "mechanism": source.mechanism,
        "modulating_labels": list(source.modulating_labels),
    }


def _source_from_dict(data):
    return ClassifiedSource(
        harmonic_set=_harmonic_set_from_dict(data["harmonic_set"], []),
        fingerprint=data["fingerprint"],
        mechanism=data["mechanism"],
        modulating_labels=tuple(data["modulating_labels"]),
    )


def _fase_report_to_dict(report):
    return {
        "machine_name": report.machine_name,
        "config_description": report.config_description,
        "activities": {
            label: _activity_report_to_dict(activity)
            for label, activity in report.activities.items()
        },
        "sources": [_source_to_dict(s) for s in report.sources],
        "telemetry": report.telemetry,
    }


def _fase_report_from_dict(data):
    return FaseReport(
        machine_name=data["machine_name"],
        config_description=data["config_description"],
        activities={
            label: _activity_report_from_dict(entry)
            for label, entry in data["activities"].items()
        },
        sources=[_source_from_dict(s) for s in data.get("sources", [])],
        telemetry=data.get("telemetry"),
    )


def _ledger_to_dict(ledger):
    return {
        "failures": [
            {
                "shard_id": f.shard_id,
                "kind": f.kind,
                "detail": f.detail,
                "failures": int(f.failures),
                "charged": bool(f.charged),
            }
            for f in ledger.failures
        ],
        "requeues": dict(ledger.requeues),
        "abandoned": dict(ledger.abandoned),
        "planned": {
            shard_id: [kind, detail] for shard_id, (kind, detail) in ledger.planned.items()
        },
        "notes": [[scope, kind, detail] for scope, kind, detail in ledger.notes],
        "cancelled": dict(ledger.cancelled),
    }


def _ledger_from_dict(data):
    ledger = SurveyLedger()
    for entry in data.get("failures", []):
        ledger.failures.append(
            ShardFailure(
                shard_id=entry["shard_id"],
                kind=entry["kind"],
                detail=entry["detail"],
                failures=int(entry["failures"]),
                charged=bool(entry.get("charged", True)),
            )
        )
    ledger.requeues = {k: int(v) for k, v in data.get("requeues", {}).items()}
    ledger.abandoned = dict(data.get("abandoned", {}))
    ledger.planned = {
        shard_id: (kind, detail) for shard_id, (kind, detail) in data.get("planned", {}).items()
    }
    ledger.notes = [tuple(note) for note in data.get("notes", [])]
    ledger.cancelled = dict(data.get("cancelled", {}))
    return ledger


#: Format marker of the JSON report, for forward compatibility.
REPORT_JSON_FORMAT = "fase-survey-report-v1"


@dataclass
class SurveyReport:
    """Everything a multi-machine survey produced.

    ``machines`` maps machine *name* (the model's display name) to its
    merged :class:`~repro.core.report.FaseReport`; ``comparison`` holds
    the cross-machine :class:`~repro.core.classify.ClassifiedSource` list
    where ``modulating_labels`` names the machines sharing each source.
    ``telemetry`` is the merge of every shard's metrics snapshot (plain
    dict form); ``n_shards``/``n_completed`` summarize coverage, and
    ``ledger`` explains any gap between the two.

    A ``keep_spectra`` survey additionally fills ``spectra`` with one
    :class:`~repro.survey.shards.ShardSpectra` per shard that ran to
    completion in this call — ordinary arrays the caller owns outright.
    """

    config_description: str
    machines: dict = field(default_factory=dict)  # machine name -> FaseReport
    comparison: list = field(default_factory=list)  # cross-machine sources
    ledger: SurveyLedger = field(default_factory=SurveyLedger)
    telemetry: object = None
    n_shards: int = 0
    n_completed: int = 0
    spectra: dict = field(default_factory=dict)  # shard_id -> ShardSpectra
    planning: object = None  # PlanAccounting | None (adaptive surveys)

    def detections_for(self, machine_name, label):
        return self.machines[machine_name].detections_for(label)

    def to_dict(self):
        """JSON-serializable form of the whole report.

        Everything semantic survives — detections, harmonic sets,
        sources, cross-machine comparison, ledger, merged metrics —
        detection-for-detection (frozen dataclasses compare equal after
        the round trip). Deliberately excluded: ``spectra`` (raw trace
        rows, O(bins)) and ``planning`` (in-process adaptive accounting);
        both are run artifacts, not results.
        """
        return {
            "format": REPORT_JSON_FORMAT,
            "config_description": self.config_description,
            "n_shards": int(self.n_shards),
            "n_completed": int(self.n_completed),
            "machines": {
                name: _fase_report_to_dict(fase) for name, fase in self.machines.items()
            },
            "comparison": [_source_to_dict(s) for s in self.comparison],
            "ledger": _ledger_to_dict(self.ledger),
            "telemetry": self.telemetry,
        }

    def to_json(self, indent=None):
        """The report as a JSON string (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data):
        report = cls(
            config_description=data.get("config_description", ""),
            machines={
                name: _fase_report_from_dict(entry)
                for name, entry in data.get("machines", {}).items()
            },
            comparison=[_source_from_dict(s) for s in data.get("comparison", [])],
            ledger=_ledger_from_dict(data.get("ledger", {})),
            telemetry=data.get("telemetry"),
            n_shards=int(data.get("n_shards", 0)),
            n_completed=int(data.get("n_completed", 0)),
        )
        return report

    @classmethod
    def from_json(cls, text):
        """Rebuild a report from :meth:`to_json` output (str or dict)."""
        data = json.loads(text) if isinstance(text, (str, bytes)) else text
        return cls.from_dict(data)

    def to_text(self):
        lines = [
            f"FASE survey over {len(self.machines)} machine(s) "
            f"({self.n_completed}/{self.n_shards} shards)",
            f"  {self.config_description}",
            "",
        ]
        for report in self.machines.values():
            lines.append(report.to_text())
            lines.append("")
        if self.comparison:
            lines.append("cross-machine sources:")
            for source in self.comparison:
                machines = ", ".join(source.modulating_labels)
                lines.append(f"  {source.harmonic_set.describe()} seen on: {machines}")
        if self.planning is not None:
            lines.append(self.planning.to_text())
        lines.append(self.ledger.to_text())
        return "\n".join(lines)

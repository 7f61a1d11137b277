"""The survey-level manifest: a crash-safe journal of shard outcomes.

PR 3 made the *capture* durable (:mod:`repro.runner.journal`); this
module makes the *survey* durable. A killed survey used to forget every
completed shard, lose its :class:`~repro.survey.report.SurveyLedger`,
and discard the adaptive planner's budget state. The manifest records
each of those as soon as it happens, so
``run_survey(manifest_dir=..., resume=True)`` skips completed shards
byte-identically, replays their ledger and metrics into the final
:class:`~repro.survey.report.SurveyReport`, and resumes an adaptive plan
mid-round with its accounting intact.

Durability model
----------------

The manifest is a directory holding two things:

* ``HEADER.json`` — written once through
  :func:`~repro.journalutil.atomic_write` (tmp sibling + fsync +
  rename + directory fsync). It carries the format marker, the **plan
  fingerprint** (a SHA-256 over every shard's identity: machine, pair,
  band, seed, and the capture-relevant config fields shared with the
  campaign journal), and the plan order, so a foreign manifest can never
  be spliced into the wrong survey.
* ``manifest.jsonl`` — append-only, one fsync'd line per record, each
  line carrying a SHA-256 checksum of its payload. Appends are not
  atomic (that is the point of an append-only log); instead the *loader*
  tolerates damage: a torn final line (the kill-mid-write case) is
  dropped, a corrupt interior line is skipped, and in both cases the
  affected shards simply re-run — always safe, because a shard result is
  a pure function of ``(seed, shard_id)``.

Record kinds: ``shard`` (a full serialized
:class:`~repro.survey.shards.ShardResult`, spectra stripped), ``ledger``
(one :class:`~repro.survey.report.SurveyLedger` event), ``promise`` (one
pre-scan :class:`~repro.survey.planner.ShardPromise`), and ``outcome``
(one funded shard's adaptive accounting — written *before* its shard
record, so a kill between the two leaves an orphaned outcome that resume
ignores, never a shard whose capture spend is unknown).

Graceful degradation: when an append fails (``ENOSPC``, a yanked
volume), the manifest flips to non-durable mode — every later append is
a no-op, the ``on_degrade`` hook fires exactly once (the engine turns it
into a ``durability-degraded`` ledger note and telemetry event) — and
the survey finishes in memory rather than crashing half-done.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from ..core.report import ActivityReport
from ..errors import ManifestError
from ..io import _config_to_dict, _robustness_from_dict, _robustness_to_dict
from ..journalutil import (
    CAPTURE_FIELDS,
    append_line,
    atomic_write,
    checksum_record,
    ensure_line_boundary,
    iter_journal,
)
from .report import (
    SurveyLedger,
    _detection_from_dict,
    _detection_to_dict,
    _harmonic_set_from_dict,
    _harmonic_set_to_dict,
)
from .shards import ShardResult

#: Format marker of the manifest header, for forward compatibility.
MANIFEST_FORMAT = "fase-survey-manifest-v1"

_HEADER_NAME = "HEADER.json"
_LOG_NAME = "manifest.jsonl"


# ----------------------------------------------------------------------
# Plan identity.


def plan_fingerprint(specs, planner=None):
    """Identity of one survey plan: what it measures and from which seeds.

    Covers every shard's (machine, pair, band, seed, fault classes) plus
    the capture-relevant config fields — the same field set the campaign
    journal fingerprints, so the two layers agree on what "the same
    measurement" means — and the planner's tunables when adaptive.
    Runtime knobs (workers, timeouts, telemetry paths, and
    ``keep_spectra``, which changes what a run returns but not what it
    measures) are deliberately excluded: tuning them between runs never
    orphans a manifest.
    """
    shards = []
    for spec in specs:
        config = _config_to_dict(spec.config)
        shards.append(
            {
                "shard_id": spec.shard_id,
                "machine": spec.machine,
                "pair": list(spec.pair),
                "band": spec.band,
                "seed": int(spec.seed),
                "config": {name: config[name] for name in CAPTURE_FIELDS},
                "fault_classes": (
                    None if spec.fault_classes is None else sorted(spec.fault_classes)
                ),
            }
        )
    payload = {"format": MANIFEST_FORMAT, "shards": shards}
    if planner is not None:
        from dataclasses import asdict

        payload["planner"] = asdict(planner)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# ShardResult (de)serialization. Values round-trip exactly: JSON floats
# are repr-based, so restored detections compare equal to the originals
# — which is what lets resume assert byte-identical reports. The
# detection/harmonic-set helpers live in :mod:`repro.survey.report`
# (shared with ``SurveyReport.to_json``) and are re-exported here.


def shard_result_to_dict(result):
    """JSON form of a :class:`~repro.survey.shards.ShardResult`.

    ``spectra`` is deliberately stripped: trace rows are O(bins) and
    the manifest stays O(detections). A resumed ``keep_spectra`` survey
    restores detections and ledgers exactly but not the restored shards'
    trace rows.
    """
    activity = result.activity
    detections = list(activity.detections)
    return {
        "shard_id": result.shard_id,
        "machine": result.machine,
        "machine_name": result.machine_name,
        "config_description": result.config_description,
        "pair_label": result.pair_label,
        "band": result.band,
        "is_memory_pair": bool(result.is_memory_pair),
        "activity": {
            "activity_label": activity.activity_label,
            "detections": [_detection_to_dict(d) for d in detections],
            "harmonic_sets": [
                _harmonic_set_to_dict(s, detections) for s in activity.harmonic_sets
            ],
            "robustness": _robustness_to_dict(activity.robustness),
        },
        "metrics": result.metrics,
    }


def shard_result_from_dict(data):
    activity_data = data["activity"]
    detections = [_detection_from_dict(d) for d in activity_data["detections"]]
    activity = ActivityReport(
        activity_label=activity_data["activity_label"],
        detections=detections,
        harmonic_sets=[
            _harmonic_set_from_dict(s, detections)
            for s in activity_data["harmonic_sets"]
        ],
        robustness=_robustness_from_dict(activity_data.get("robustness")),
    )
    return ShardResult(
        shard_id=data["shard_id"],
        machine=data["machine"],
        machine_name=data["machine_name"],
        config_description=data["config_description"],
        pair_label=data["pair_label"],
        band=data["band"],
        is_memory_pair=bool(data["is_memory_pair"]),
        activity=activity,
        metrics=data["metrics"],
        spectra=None,
    )


# ----------------------------------------------------------------------
# The manifest itself. The line-level discipline (checksummed envelopes,
# fsync'd appends, torn-tail sealing) is the shared
# :mod:`repro.journalutil`; this class owns the manifest's record
# vocabulary and degradation policy.

_checksum = checksum_record


@dataclass
class ManifestState:
    """Everything a previous run made durable, decoded and verified.

    ``results`` maps shard id to restored
    :class:`~repro.survey.shards.ShardResult`; ``ledger_events`` is every
    ledger record in append order (feed to :func:`replay_ledger`);
    ``promises``/``outcomes`` carry the adaptive planner's pre-scan and
    per-shard accounting records. ``torn_tail`` reports whether the log
    ended mid-line (the kill-mid-write signature) and ``n_damaged``
    counts interior records that failed checksum or decode — both are
    tolerated, never fatal.
    """

    results: dict = field(default_factory=dict)
    ledger_events: list = field(default_factory=list)
    promises: dict = field(default_factory=dict)  # shard_id -> promise payload
    outcomes: dict = field(default_factory=dict)  # shard_id -> outcome payload
    n_records: int = 0
    n_damaged: int = 0
    torn_tail: bool = False


def replay_ledger(ledger, events):
    """Apply restored ledger events to ``ledger``, in order.

    Goes through :meth:`~repro.survey.report.SurveyLedger.apply` — the
    same fold the live recorders use — so replaying into a
    :class:`JournaledLedger` does not re-append the events to the
    manifest. Unknown event kinds are ignored (forward compatibility).
    """
    for event in events:
        ledger.apply(event)


class SurveyManifest:
    """On-disk, append-only journal of one survey's shard outcomes.

    :meth:`create` starts a fresh manifest (atomic header write),
    :meth:`open` validates an existing one (format marker, fingerprint
    match), the ``append_*`` methods make one record durable each, and
    :meth:`load` returns the damage-tolerant :class:`ManifestState`.

    Append failures never propagate: the first one flips the manifest to
    ``degraded`` (see :attr:`on_degrade`) and every subsequent append is
    a no-op — a half-finished survey keeps running non-durably instead
    of crashing on a full disk.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.log_path = self.directory / _LOG_NAME
        self._header = None
        self._tail_checked = False
        self.degraded = None  # str reason | None
        self.on_degrade = None  # callable(reason) | None, fired once

    # -- header -------------------------------------------------------

    @property
    def header(self):
        if self._header is None:
            raise ManifestError(f"manifest at {str(self.directory)!r} is not open")
        return self._header

    def exists(self):
        return (self.directory / _HEADER_NAME).is_file()

    def create(self, fingerprint, specs, description=""):
        """Start a fresh manifest. Degrades (never raises) on write failure."""
        header = {
            "format": MANIFEST_FORMAT,
            "fingerprint": fingerprint,
            "config_description": description,
            "n_shards": len(specs),
            "shards": [{"shard_id": spec.shard_id, "band": spec.band} for spec in specs],
        }
        self._header = header
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # A header can only be absent with records present if someone
            # deleted it; never splice a fresh plan onto stale records.
            if self.log_path.exists():
                self.log_path.unlink()
            atomic_write(
                self.directory / _HEADER_NAME,
                json.dumps(header, indent=2, sort_keys=True).encode("utf-8"),
            )
        except OSError as exc:
            self._degrade(f"creating the manifest failed: {exc}")
        return self

    def open(self, fingerprint=None):
        """Load and validate an existing manifest header.

        With ``fingerprint`` given, a mismatch (different plan, seed, or
        config in the same directory) raises :class:`ManifestError`
        rather than silently splicing a foreign survey into this run.
        """
        path = self.directory / _HEADER_NAME
        if not path.is_file():
            raise ManifestError(f"no survey manifest at {str(self.directory)!r}")
        try:
            header = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ManifestError(
                f"manifest header at {str(path)!r} is unreadable: {exc}"
            ) from exc
        if header.get("format") != MANIFEST_FORMAT:
            raise ManifestError(
                f"unsupported manifest format {header.get('format')!r} at {str(path)!r}"
            )
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise ManifestError(
                f"manifest at {str(self.directory)!r} belongs to a different survey "
                "plan (machines/pairs/bands/seed/config fingerprint mismatch); "
                "remove the directory or point manifest_dir elsewhere"
            )
        self._header = header
        return self

    # -- appends ------------------------------------------------------

    def _degrade(self, reason):
        if self.degraded is not None:
            return
        self.degraded = reason
        if self.on_degrade is not None:
            self.on_degrade(reason)

    def _ensure_line_boundary(self):
        """Seal a torn tail before the first append of this run
        (:func:`repro.journalutil.ensure_line_boundary`, once per open)."""
        if self._tail_checked:
            return
        self._tail_checked = True
        ensure_line_boundary(self.log_path)

    def _append(self, record):
        """One durable record; returns False when running degraded."""
        if self.degraded is not None:
            return False
        try:
            self._ensure_line_boundary()
            append_line(self.log_path, record)
        except OSError as exc:
            self._degrade(f"appending to the manifest failed: {exc}")
            return False
        return True

    def append_shard(self, result):
        return self._append({"kind": "shard", "shard": shard_result_to_dict(result)})

    def append_ledger(self, payload):
        return self._append({"kind": "ledger", **payload})

    def append_promise(self, promise):
        return self._append(
            {
                "kind": "promise",
                "promise": {
                    "shard_id": promise.shard_id,
                    "machine": promise.machine,
                    "promise": float(promise.promise),
                    "evidence": float(promise.evidence),
                    "captures": int(promise.captures),
                    "prescan_captures": int(promise.prescan_captures),
                    "cost_equivalent": float(promise.cost_equivalent),
                    "error": promise.error,
                },
            }
        )

    def append_outcome(self, outcome):
        """The adaptive accounting of one funded shard.

        Written *before* the shard record: a kill between the two leaves
        an outcome resume ignores (its shard re-runs), never a restored
        shard whose capture spend is unknown.
        """
        return self._append(
            {
                "kind": "outcome",
                "outcome": {
                    "shard_id": outcome.shard_id,
                    "status": outcome.status,
                    "captures_used": int(outcome.captures_used),
                    "captures_total": int(outcome.captures_total),
                    "stopped_after": outcome.stopped_after,
                    "evidence_bound": (
                        None
                        if outcome.evidence_bound is None
                        else float(outcome.evidence_bound)
                    ),
                },
            }
        )

    # -- load ---------------------------------------------------------

    def load(self):
        """Decode the log into a :class:`ManifestState`, skipping damage.

        The first valid ``shard`` record per shard id wins (re-appends
        after a resume are byte-identical anyway); ``promise``/``outcome``
        records take the latest. Only a *fully durable* line counts: the
        trailing line of a log killed mid-append fails its checksum or
        decode and is counted in ``torn_tail`` instead of trusted.
        """
        state = ManifestState()
        if not self.log_path.exists():
            return state
        try:
            entries = list(iter_journal(self.log_path))
        except OSError as exc:
            raise ManifestError(
                f"manifest log at {str(self.log_path)!r} is unreadable: {exc}"
            ) from exc
        for record, is_last in entries:
            if record is None:
                if is_last:
                    state.torn_tail = True
                else:
                    state.n_damaged += 1
                continue
            state.n_records += 1
            kind = record.get("kind")
            if kind == "shard":
                try:
                    result = shard_result_from_dict(record["shard"])
                except (KeyError, TypeError, ValueError, IndexError):
                    state.n_damaged += 1
                    continue
                state.results.setdefault(result.shard_id, result)
            elif kind == "ledger":
                state.ledger_events.append(record)
            elif kind == "promise":
                payload = record.get("promise") or {}
                if "shard_id" in payload:
                    state.promises[payload["shard_id"]] = payload
            elif kind == "outcome":
                payload = record.get("outcome") or {}
                if "shard_id" in payload:
                    state.outcomes[payload["shard_id"]] = payload
            # Unknown kinds: written by a future version; ignore.
        return state


class JournaledLedger(SurveyLedger):
    """A :class:`~repro.survey.report.SurveyLedger` that journals as it records.

    Every ``record_*`` builds one event and hands it to :meth:`_record`,
    which applies it (the same :meth:`~repro.survey.report.SurveyLedger.apply`
    a replay uses) and then appends it to the :class:`SurveyManifest` —
    so a killed survey's ledger replays exactly, requeue counts and
    abandonments included. Restored events go through
    :func:`replay_ledger`, which applies without appending.
    """

    def __init__(self, manifest):
        super().__init__()
        self.manifest = manifest

    def _record(self, event):
        self.apply(event)
        self.manifest.append_ledger(event)


def recover_survey_report(manifest_dir):
    """Rebuild a :class:`~repro.survey.report.SurveyReport` from a manifest.

    Offline recovery (``repro analyze --manifest``): no shard re-runs,
    no fingerprint needed — whatever outcomes the manifest holds are
    aggregated exactly as the engine would have, ledger included. Shards
    the killed run never finished simply appear in the
    ``n_completed``/``n_shards`` gap.
    """
    manifest = SurveyManifest(manifest_dir)
    manifest.open()
    state = manifest.load()
    ledger = SurveyLedger()
    replay_ledger(ledger, state.ledger_events)
    header = manifest.header
    specs = [
        SimpleNamespace(shard_id=entry["shard_id"], band=entry["band"])
        for entry in header.get("shards", [])
    ]
    from .engine import _aggregate

    report, _ = _aggregate(specs, state.results, ledger, header.get("config_description", ""))
    report.n_shards = int(header.get("n_shards", len(specs)))
    return report

"""The durable job store: every lifecycle transition is journaled once.

The store is the service's single source of scheduling truth. Its state
lives in two layers, both built on :mod:`repro.journalutil`'s
append-only, per-line-checksummed, fsync'd discipline:

* ``store.jsonl`` — one record per lifecycle transition (``submit``,
  ``claim``, ``progress``, ``release``, ``skip``, ``cancel``,
  ``cancelled``, ``complete``, ``restart``). **Journal, then apply:** a
  live transition appends its record, then folds it into memory through
  :meth:`JobStore._apply` — the one function replay runs over the
  journal, and the only one that moves shards between pending, claimed,
  skipped and cancelled. So a service killed at an arbitrary point
  restarts with exactly the partition it had: zero lost or duplicated
  work.
* one :class:`~repro.survey.manifest.SurveyManifest` per job — the
  shard *results* and ledger, reusing the survey layer's crash-safe
  journal unchanged. A shard result is appended to the job's manifest
  *before* its ``progress`` record reaches the store journal, so a
  ``completed`` transition always has a durable result behind it; the
  reverse kill window (result durable, progress lost) merely re-marks
  the shard completed from the manifest on replay. What replay reads
  here (a result, a charged failure count, an abandonment) the live
  method sets right after its manifest write; the ledger journals by
  the same rule (:class:`~repro.survey.manifest.JournaledLedger`), and
  failures follow the survey engine's retry rule
  (:meth:`~repro.survey.report.SurveyLedger.charge`).

Orphan adoption falls out of shard purity: a claim whose worker died —
or whose whole service process was SIGKILLed — is released back to
pending (journaled, so the release itself is replayable) and any worker
re-runs it; the result is byte-identical because shards are pure
functions of ``(seed, shard_id)``.

**Change signal.** Waiters never poll the store. One
``threading.Condition`` on the store lock is notified on every journal
append and every emitted event, and each waiter re-checks its own
predicate on each notification: an event tail compares its job's event
count (so another job's traffic costs it one integer compare under the
lock, not a file read), a drain checks that every job settled, and idle
worker hosts compare a work version bumped only when claimable work may
have appeared — a submit, a release, a requeue, or a claim or report
that leaves pending work behind. The waits are private methods on
purpose: nothing that blocks is part of the public store surface.

**Settled jobs leave memory.** Once a job is COMPLETED or CANCELLED it
keeps only what its status shows — spec, per-shard status map, failure
count, per-worker tallies and merged metrics (:class:`_SettledJob`).
Its results and ledger live in its manifest, which is already their
source of truth: :meth:`JobStore.job_report` reloads them through the
same restore path a restart replays.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

from ..errors import ServiceError
from ..io import _config_from_dict, _config_to_dict
from ..journalutil import append_line, atomic_write, ensure_line_boundary, iter_journal
from ..runner import journal_dirname
from ..survey.engine import plan_shards, refuse_repeated_shards
from ..survey.manifest import JournaledLedger, SurveyManifest, plan_fingerprint, replay_ledger
from ..survey.planner import CaptureBudget
from ..survey.report import BUDGET_EXHAUSTED
from ..telemetry import MetricsSnapshot

#: Format marker of the store header, for forward compatibility.
STORE_FORMAT = "fase-service-store-v1"

#: Job lifecycle states (terminal: COMPLETED, CANCELLED).
QUEUED = "queued"
RUNNING = "running"
CANCELLING = "cancelling"
COMPLETED = "completed"
CANCELLED = "cancelled"

_HEADER_NAME = "HEADER.json"
_LOG_NAME = "store.jsonl"

_CANCEL_DETAIL = "job cancelled before this shard started"


@dataclass(frozen=True)
class JobSpec:
    """One submitted campaign: what to survey, for whom, how persistent.

    The shard plan is *derived*, never stored: ``plan_shards`` is
    deterministic in these fields, so replaying a ``submit`` record
    reconstructs the identical plan (and manifest fingerprint) the
    original process computed.
    """

    job_id: str
    tenant: str
    machines: tuple
    pairs: tuple  # ((op_x, op_y), ...) micro-op names
    config: object  # FaseConfig
    bands: object = None
    seed: int = 0
    max_shard_retries: int = 2

    def to_dict(self):
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "machines": list(self.machines),
            "pairs": [list(pair) for pair in self.pairs],
            "config": _config_to_dict(self.config),
            "bands": (
                [list(span) for span in self.bands]
                if isinstance(self.bands, (list, tuple))
                else self.bands
            ),
            "seed": int(self.seed),
            "max_shard_retries": int(self.max_shard_retries),
        }

    @classmethod
    def from_dict(cls, data):
        bands = data.get("bands")
        if isinstance(bands, list):
            bands = tuple((float(low), float(high)) for low, high in bands)
        return cls(
            job_id=data["job_id"],
            tenant=data["tenant"],
            machines=tuple(data["machines"]),
            pairs=tuple(tuple(pair) for pair in data["pairs"]),
            config=_config_from_dict(dict(data["config"])),
            bands=bands,
            seed=int(data.get("seed", 0)),
            max_shard_retries=int(data.get("max_shard_retries", 2)),
        )

    def shard_plan(self):
        return plan_shards(
            machines=self.machines,
            pairs=self.pairs,
            config=self.config,
            bands=self.bands,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ClaimedShard:
    """What :meth:`JobStore.claim` hands a worker: one funded shard."""

    job_id: str
    tenant: str
    spec: object  # ShardSpec
    max_shard_retries: int


@dataclass
class _JobState:
    """In-memory scheduling state of one job (rebuilt by replay)."""

    spec: JobSpec
    shard_specs: tuple
    manifest: SurveyManifest
    ledger: JournaledLedger
    events_path: Path
    state: str = QUEUED
    pending: list = field(default_factory=list)  # shard ids, plan order
    claims: dict = field(default_factory=dict)  # shard_id -> worker
    results: dict = field(default_factory=dict)  # shard_id -> ShardResult
    failures: dict = field(default_factory=dict)  # shard_id -> charged count
    abandoned: set = field(default_factory=set)
    skipped: set = field(default_factory=set)
    cancelled_shards: set = field(default_factory=set)
    funded: set = field(default_factory=set)  # shard ids charged to the budget
    worker_shards: dict = field(default_factory=dict)  # worker -> shards completed
    n_events: int = 0  # events emitted: what a follow tail waits to move

    def spec_for(self, shard_id):
        return _find_shard(self.spec.job_id, self.shard_specs, shard_id)

    def settled(self, shard_id):
        return (
            shard_id in self.results
            or shard_id in self.abandoned
            or shard_id in self.skipped
            or shard_id in self.cancelled_shards
        )

    def shard_states(self):
        """``{shard_id: status}`` in plan order, as :meth:`JobStore.job_status` shows it."""
        states = {}
        for spec in self.shard_specs:
            sid = spec.shard_id
            if sid in self.results:
                states[sid] = "completed"
            elif sid in self.claims:
                states[sid] = f"claimed:{self.claims[sid]}"
            elif sid in self.abandoned:
                states[sid] = "abandoned"
            elif sid in self.skipped:
                states[sid] = "skipped"
            elif sid in self.cancelled_shards:
                states[sid] = "cancelled"
            else:
                states[sid] = "pending"
        return states


class _SettledJob:
    """What a COMPLETED or CANCELLED job keeps in memory.

    Enough for ``job_state``, the whole of :meth:`JobStore.job_status`
    and the ownership checks of late reports (a settled job holds no
    claims; its events path is derived from its id). The merged metrics are kept as
    compressed JSON: about 0.3 KB for a real two-shard job, against
    1 KB of JSON text and several of nested dicts. Shard specs, results
    and ledger are rebuilt from the manifest on demand
    (:meth:`JobStore._restore`), and a late result revives the full
    state for that one transition (:meth:`JobStore._live_job`).
    :meth:`JobStore.job_status` also builds one from a live job, as the
    summary it reports.
    """

    __slots__ = (
        "spec", "state", "shards", "n_completed", "n_failures", "workers", "metrics_z", "n_events",
    )
    claims = MappingProxyType({})

    def __init__(self, job):
        self.spec = job.spec
        self.state = job.state
        self.shards = job.shard_states()
        self.n_completed = len(job.results)
        self.n_failures = sum(job.failures.values())
        self.workers = dict(sorted(job.worker_shards.items()))
        self.metrics_z = zlib.compress(json.dumps(_merged_metrics(job.results)).encode("utf-8"))
        self.n_events = job.n_events

    def spec_for(self, shard_id):
        return _find_shard(self.spec.job_id, self.spec.shard_plan(), shard_id)


def _find_shard(job_id, shard_specs, shard_id):
    for spec in shard_specs:
        if spec.shard_id == shard_id:
            return spec
    raise ServiceError(f"job {job_id!r} has no shard {shard_id!r}")


def _merged_metrics(results):
    """The shards' metrics merged into one JSON-safe dict.

    Metric names are sorted: a result read back from the manifest has
    its keys sorted, one still in memory has them in recording order,
    and the same job must serialize to the same bytes either way.
    """
    merged = MetricsSnapshot(counters={}, gauges={}, histograms={})
    for result in results.values():
        merged = merged.merge(MetricsSnapshot.from_dict(result.metrics))
    return {kind: dict(sorted(values.items())) for kind, values in merged.to_dict().items()}


def _status(job):
    """The JSON-safe status of a :class:`_SettledJob` summary."""
    return {
        "job_id": job.spec.job_id,
        "tenant": job.spec.tenant,
        "state": job.state,
        "n_shards": len(job.shards),
        "n_completed": job.n_completed,
        "n_failures": job.n_failures,
        "shards": dict(job.shards),
        "workers": dict(job.workers),
        "metrics": json.loads(zlib.decompress(job.metrics_z)),
    }


class JobStore:
    """The service's durable, multi-tenant job queue.

    Thread-safe: the worker fleet and the HTTP handlers share one store
    under one lock. Every mutating method journals its transition, then
    applies it with replay's :meth:`_apply` (:meth:`_commit`), so the
    durable state never lags the observable state. Append failures raise
    :class:`ServiceError` — a job store that cannot persist transitions
    must not pretend to.
    """

    def __init__(self, root, scheduler=None):
        from .scheduler import FairShareScheduler

        self.root = Path(root)
        self.log_path = self.root / _LOG_NAME
        self.scheduler = scheduler if scheduler is not None else FairShareScheduler(())
        self.jobs = {}  # job_id -> _JobState, or _SettledJob once terminal
        self.order = []  # job ids in submit order
        # The jobs not yet COMPLETED/CANCELLED, in submit order: all the
        # scheduler, the reaper and the live-claim counts ever look at.
        self._unsettled = {}
        self.budgets = {}  # tenant -> CaptureBudget (only for capped tenants)
        self.decision = 0  # claim counter: the scheduler's logical clock
        # tenant -> decision of its latest claim, seeded at admission so
        # a brand-new tenant ages from parity, not from decision zero.
        self.last_claim_decision = {}
        self.charged = {}  # tenant -> fairness charge (total claims)
        #: Liveness clock per worker, in ``time.monotonic()`` seconds.
        #: Reaping ages claims against THIS map, never the wall clock:
        #: an NTP step must not mass-release healthy claims (forward)
        #: or keep a dead worker's claim forever (backward). The
        #: ``workers/<name>.hb`` file mtime is kept purely for display.
        self._worker_beats = {}
        self._worker_counts = {}  # worker -> lifecycle counters
        self.reap_calls = 0  # lock acquisitions by reap_stale_claims
        self._seq = 0
        self._lock = threading.RLock()
        # The change signal (see the module docstring): notified on
        # every journal append and event; ``_work_version`` counts the
        # changes that may offer claimable work.
        self._changed = threading.Condition(self._lock)
        self._work_version = 0

    # -- lifecycle ----------------------------------------------------

    def open(self, server_name="service"):
        """Create or resume the store; returns ``self``.

        On resume, the journal is replayed into memory, a ``restart``
        marker is appended, and every outstanding claim — necessarily
        orphaned, since claims do not survive the owning process — is
        released back to pending for adoption by any worker.
        """
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            header_path = self.root / _HEADER_NAME
            if header_path.is_file():
                try:
                    header = json.loads(header_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    raise ServiceError(
                        f"store header at {str(header_path)!r} is unreadable: {exc}"
                    ) from exc
                if header.get("format") != STORE_FORMAT:
                    raise ServiceError(
                        f"unsupported store format {header.get('format')!r} "
                        f"at {str(header_path)!r}"
                    )
            else:
                self._write(
                    atomic_write,
                    header_path,
                    json.dumps({"format": STORE_FORMAT}, indent=2).encode("utf-8"),
                )
            self._write(ensure_line_boundary, self.log_path)
            had_records = self._replay()
            if had_records:
                self._append({"kind": "restart", "server": server_name})
                for job in list(self._unsettled.values()):
                    for shard_id, worker in sorted(job.claims.items()):
                        self._release_locked(
                            job,
                            shard_id,
                            worker,
                            "orphaned by service restart; released for adoption",
                        )
                    self._maybe_finalize_locked(job)
        return self

    def _write(self, fn, *args):
        try:
            return fn(*args)
        except OSError as exc:
            raise ServiceError(f"job store at {str(self.root)!r} is not writable: {exc}") from exc

    def _append(self, record):
        self._write(append_line, self.log_path, record)
        self._signal()

    def _commit(self, record):
        """Journal one transition, then apply it through replay's own path."""
        self._append(record)
        self._apply(record)

    # -- the change signal --------------------------------------------

    def _signal(self, work=False):
        """Wake every waiter to re-check its predicate.

        Shutdown calls it too, so waiters see their stop flag at once.
        """
        with self._changed:
            if work:
                self._work_version += 1
            self._changed.notify_all()

    def _offer_work_locked(self):
        """Wake idle hosts if any live job still has pending shards.

        Invariant: every transition that appends to a job's ``pending``
        or frees a claim (and with it a tenant's concurrency slot) must
        call this before it releases the store lock — today submit,
        claim, complete, fail, release (which the reaper and a restart
        go through). Idle hosts claim only when the work version moves,
        so a transition that skips it leaves them asleep until some
        other transition does; ``test_every_work_transition_offers_work``
        pins each call site. With nothing pending anywhere no claim
        could succeed, so the hosts stay asleep rather than spend a
        claim on an empty queue.
        """
        if any(
            job.pending and job.state in (QUEUED, RUNNING) for job in self._unsettled.values()
        ):
            self._signal(work=True)

    def _await(self, ready, timeout_s):
        """Block until ``ready()`` holds, re-checked on every store change.

        Returns ``ready()``'s last value (false on timeout). Private on
        purpose: a blocking wait is not a store operation.
        """
        with self._changed:
            return self._changed.wait_for(ready, timeout_s)

    def _claim_after(self, worker, seen, wait_s, stop=None):
        """:meth:`claim` whenever claimable work may have appeared since ``seen``.

        ``seen`` is the work version a previous call returned (``None``:
        claim at once). Until ``wait_s`` has passed, each move of the
        version is one claim attempt; a claim lost to a peer waits again.
        Returns the claim and the work version right after it, for the
        next call — a claim that leaves work pending signals the *other*
        hosts, while this one hears of more work from its own report —
        or ``(None, version)`` once the wait runs out or ``stop`` (an
        Event) is set, without a claim on an unchanged queue.
        """
        deadline = time.monotonic() + wait_s

        def ready():
            return self._work_version != seen or (stop is not None and stop.is_set())

        while True:
            if seen is not None:
                remaining = deadline - time.monotonic()
                if not self._await(ready, remaining) or (stop is not None and stop.is_set()):
                    return None, seen
            with self._lock:
                claimed, seen = self.claim(worker), self._work_version
            if claimed is not None or time.monotonic() >= deadline:
                return claimed, seen

    def _event_count(self, job_id):
        """How many events the job has emitted: what a follow tail waits on."""
        return self.jobs[job_id].n_events

    # -- replay -------------------------------------------------------

    def _replay(self):
        """Rebuild the in-memory state from the journal; True if non-empty.

        A damaged final line is the kill-mid-write signature — the
        record never became durable, so it simply never happened.
        Interior damage is skipped the same way; every affected shard
        re-runs, which purity makes safe.
        """
        if not self.log_path.exists():
            return False
        any_record = False
        for record, _is_last in self._write(lambda p: list(iter_journal(p)), self.log_path):
            if record is None:
                continue
            any_record = True
            self._apply(record)
        for job in list(self._unsettled.values()):
            self._maybe_finalize_locked(job)
        return any_record

    def _apply(self, record):
        """Fold one journaled transition into memory: replay and live alike."""
        kind = record.get("kind")
        if kind == "submit":
            self._admit(JobSpec.from_dict(record["job"]))
            return
        job = self.jobs.get(record.get("job_id"))
        if job is None:
            return  # a restart marker (informational), or an unknown job
        shard_id = record.get("shard_id")
        if kind == "claim":
            if shard_id in job.pending:
                job.pending.remove(shard_id)
            if not job.settled(shard_id):
                job.claims[shard_id] = record["worker"]
            if job.state == QUEUED:
                # A claim means the job ran, even if this shard's result
                # already came back from the manifest during _admit.
                job.state = RUNNING
            self._account_claim(job.spec.tenant, job, shard_id)
            self._count_worker(record["worker"], "claimed")
        elif kind == "progress":
            worker = record.get("worker")
            completed = record.get("status") == "completed"
            # The live ownership rule: a report never drops a peer's
            # claim, and a failure reported over one is void.
            holder = job.claims.get(shard_id)
            if holder == worker:
                del job.claims[shard_id]
            elif holder is not None and not completed:
                return
            if worker:
                self._count_worker(worker, "completed" if completed else "failed")
                if completed:
                    job.worker_shards[worker] = job.worker_shards.get(worker, 0) + 1
            # This record only moves membership: a result and a charged
            # failure count are manifest facts that complete_shard and
            # fail_shard set, and that _admit restores on replay (a result
            # torn away safely re-runs; a failure is never re-charged). A
            # completed shard leaves pending (a reaped former owner's late
            # result); any other re-pends unless settled or held by a peer.
            if completed and shard_id in job.pending:
                job.pending.remove(shard_id)
            if (
                not job.settled(shard_id)
                and shard_id not in job.claims
                and shard_id not in job.pending
            ):
                job.pending.append(shard_id)
        elif kind == "release":
            job.claims.pop(shard_id, None)
            if record.get("worker"):
                self._count_worker(record["worker"], "released")
            if job.state in (CANCELLING, CANCELLED):
                # A claim released after the cancel joins the
                # cancellation instead of resurrecting as pending
                # (_release_locked ledgers it after this record).
                if not job.settled(shard_id):
                    job.cancelled_shards.add(shard_id)
            elif not job.settled(shard_id) and shard_id not in job.pending:
                job.pending.append(shard_id)
        elif kind == "skip":
            if shard_id in job.pending:
                job.pending.remove(shard_id)
            job.skipped.add(shard_id)
        elif kind == "cancel" and job.state not in (COMPLETED, CANCELLED):
            job.cancelled_shards.update(job.pending)
            job.pending = []
            job.state = CANCELLING
        elif kind == "cancelled":
            job.state = CANCELLED
        elif kind == "complete":
            job.state = COMPLETED

    def _count_worker(self, worker, key):
        counts = self._worker_counts.setdefault(
            worker, {"claimed": 0, "completed": 0, "failed": 0, "released": 0}
        )
        counts[key] += 1

    def _account_claim(self, tenant, job, shard_id):
        self.decision += 1
        self.last_claim_decision[tenant] = self.decision
        self.charged[tenant] = self.charged.get(tenant, 0) + 1
        if shard_id not in job.funded:
            job.funded.add(shard_id)
            budget = self._budget_for(tenant)
            if budget is not None:
                spec = job.spec_for(shard_id)
                budget.restore(spec.machine, len(spec.config.falts()))

    # -- submission ---------------------------------------------------

    def submit(self, tenant, machines=None, pairs=None, config=None, bands=None,
               seed=0, max_shard_retries=2):
        """Admit one campaign; returns its job id.

        The ``submit`` record (the full job spec) is durable before the
        job is schedulable, and the job's survey manifest is created in
        the same step — so a kill at any point leaves either no job or a
        fully resumable one.
        """
        from ..survey.engine import DEFAULT_PAIRS
        from ..core.config import campaign_low_band

        if not tenant or not isinstance(tenant, str):
            raise ServiceError("a job needs a non-empty tenant name")
        with self._lock:
            spec = JobSpec(
                job_id=f"job-{self._seq + 1:06d}",
                tenant=tenant,
                machines=tuple(machines) if machines else None,
                pairs=tuple(
                    (getattr(x, "value", x), getattr(y, "value", y))
                    for x, y in (pairs or DEFAULT_PAIRS)
                ),
                config=config or campaign_low_band(),
                bands=bands,
                seed=seed,
                max_shard_retries=max_shard_retries,
            )
            if spec.machines is None:
                # Resolve now so the journaled spec is fully explicit.
                from ..system import ALL_PRESETS

                spec = replace(spec, machines=tuple(sorted(ALL_PRESETS)))
            refuse_repeated_shards(spec.shard_plan())  # validate before anything is durable
            self._append({"kind": "submit", "job": spec.to_dict()})
            job = self._admit(spec)
            self._emit_event(job, "job-submitted", tenant=tenant, n_shards=len(job.shard_specs))
            self._offer_work_locked()
            return spec.job_id

    def _job_dir(self, job_id):
        return self.root / "jobs" / journal_dirname(job_id)

    def _restore(self, spec):
        """``(shard_specs, manifest, results, ledger)`` of one job.

        The restart path: the plan is re-derived from the spec and the
        results and ledger are read back from the job's manifest (which
        is created, empty, for a job being admitted for the first time).
        Settled jobs' reports and statuses are rebuilt through it too.
        """
        shard_specs = spec.shard_plan()
        job_dir = self._job_dir(spec.job_id)
        manifest = SurveyManifest(job_dir / "manifest")
        fingerprint = plan_fingerprint(shard_specs)
        results = {}
        ledger_events = []
        if manifest.exists():
            manifest.open(fingerprint)
            state = manifest.load()
            results = state.results
            ledger_events = state.ledger_events
        else:
            self._write(lambda: job_dir.mkdir(parents=True, exist_ok=True))
            manifest.create(fingerprint, shard_specs, description=spec.config.describe())
            if manifest.degraded is not None:
                raise ServiceError(
                    f"could not create the manifest for {spec.job_id!r}: {manifest.degraded}"
                )
        ledger = JournaledLedger(manifest)
        replay_ledger(ledger, ledger_events)
        return shard_specs, manifest, results, ledger

    def _build(self, spec):
        """A job's full in-memory state, as far as its manifest knows it."""
        shard_specs, manifest, results, ledger = self._restore(spec)
        return _JobState(
            spec=spec,
            shard_specs=shard_specs,
            manifest=manifest,
            ledger=ledger,
            events_path=self._events_path(spec.job_id),
            results=results,
            failures=ledger.charged_failures(),
            abandoned=set(ledger.abandoned),
            # A prior run's cancellations are manifest history; the
            # *store* journal decides whether they still stand (its
            # cancel/cancelled records replay after this).
            pending=[
                s.shard_id
                for s in shard_specs
                if s.shard_id not in results and s.shard_id not in ledger.abandoned
            ],
        )

    def _admit(self, spec):
        # The id is spent once its submit record is journaled, even if
        # building the job fails below; monotonic across restarts too.
        try:
            seq = int(spec.job_id.rsplit("-", 1)[1])
            self._seq = max(self._seq, seq)
        except (IndexError, ValueError):
            pass
        job = self._build(spec)
        self.jobs[spec.job_id] = job
        self._unsettled[spec.job_id] = job
        self.order.append(spec.job_id)
        # First sighting of this tenant: its aging clock starts *now*.
        # Without this baseline a tenant admitted after N total claims
        # would read as having waited all N and leapfrog every static
        # priority class on its first claim. setdefault keeps genuine
        # claim history (and replay) authoritative.
        self.last_claim_decision.setdefault(spec.tenant, self.decision)
        return job

    # -- scheduling ---------------------------------------------------

    def _budget_for(self, tenant):
        policy = self.scheduler.policy_for(tenant)
        if policy.max_captures is None:
            return None
        budget = self.budgets.get(tenant)
        if budget is None:
            budget = self.budgets[tenant] = CaptureBudget(total=float(policy.max_captures))
        return budget

    def snapshot(self):
        """The scheduler's world: per-tenant usage and queued work.

        A pure value (plain dicts), derived entirely from journaled
        transitions — which is what makes every scheduling decision
        replayable.
        """
        with self._lock:
            tenants = {}
            # Only unsettled jobs: a settled one has no pending shards and
            # no claims, so it could never change a decision.
            for job_id, job in self._unsettled.items():
                tenant = job.spec.tenant
                usage = tenants.setdefault(
                    tenant,
                    {
                        "live_claims": 0,
                        "charged": self.charged.get(tenant, 0),
                        "last_claim_decision": self.last_claim_decision.get(tenant, 0),
                        "jobs": [],
                    },
                )
                usage["live_claims"] += len(job.claims)
                usage["jobs"].append({
                    "job_id": job_id,
                    # Cancelling/terminal jobs never offer work, even if a
                    # replay race left ids in pending.
                    "has_pending": bool(job.pending) and job.state in (QUEUED, RUNNING),
                })
            return {"decision": self.decision, "tenants": tenants}

    def claim(self, worker):
        """One scheduling decision: the next funded shard, or ``None``.

        The scheduler picks the tenant/job (pure function of
        :meth:`snapshot`); the store takes that job's first pending
        shard in plan order, funds it against the tenant's capture
        ceiling (unfundable shards are skipped with a
        ``budget-exhausted`` ledger decision — they count as settled, so
        an over-budget job completes instead of deadlocking), journals
        the claim, and hands the worker the spec.
        """
        with self._lock:
            while True:
                choice = self.scheduler.select(self.snapshot())
                if choice is None:
                    return None
                job = self.jobs[choice]
                tenant = job.spec.tenant
                shard_id = job.pending[0]
                spec = job.spec_for(shard_id)
                budget = self._budget_for(tenant)
                captures = len(spec.config.falts())
                if (
                    budget is not None
                    and shard_id not in job.funded
                    and not budget.can_fund(spec.machine, captures)
                ):
                    self._commit({
                        "kind": "skip",
                        "job_id": job.spec.job_id,
                        "shard_id": shard_id,
                        "detail": "tenant capture ceiling",
                    })
                    job.ledger.record_planned(
                        shard_id,
                        BUDGET_EXHAUSTED,
                        f"tenant {tenant!r} capture ceiling "
                        f"({budget.total:g}) cannot fund this shard's "
                        f"{captures} capture(s)",
                    )
                    self._emit_event(job, "shard-skipped", shard=shard_id)
                    self._maybe_finalize_locked(job)
                    continue
                self._commit({
                    "kind": "claim",
                    "job_id": job.spec.job_id,
                    "shard_id": shard_id,
                    "worker": worker,
                    "decision": self.decision + 1,
                })
                # A claim is proof of life: seed the liveness clock so a
                # reap racing the worker's first heartbeat cannot release
                # (and double-run) a shard the worker just accepted.
                self._worker_beats[worker] = time.monotonic()
                self._emit_event(job, "shard-claimed", shard=shard_id, worker=worker)
                self._offer_work_locked()
                return ClaimedShard(
                    job_id=job.spec.job_id,
                    tenant=tenant,
                    spec=spec,
                    max_shard_retries=job.spec.max_shard_retries,
                )

    def complete_shard(self, job_id, shard_id, result, worker, elapsed_s=None):
        """A worker finished a shard. Result first, transition second.

        The manifest append is durable before the ``progress`` record,
        so a kill between the two can only lose the *transition* — and
        replay re-marks the shard completed from the manifest.
        ``elapsed_s`` (a worker-host's self-reported shard wall-clock)
        rides only the advisory event stream, never the journal.

        The first result from any worker is kept — shard purity makes
        every run's result identical — but only the claim's owner gives
        the claim back: a worker whose claim was reaped and adopted must
        not drop the adopting peer's live claim with a late report.
        """
        with self._lock:
            job = self._live_job(job_id)
            if shard_id not in job.results:
                job.manifest.append_shard(result)
                job.results[shard_id] = result
            self._commit({
                "kind": "progress",
                "job_id": job_id,
                "shard_id": shard_id,
                "status": "completed",
                "worker": worker,
            })
            attrs = {"shard": shard_id, "worker": worker}
            if elapsed_s is not None:
                attrs["elapsed_s"] = round(float(elapsed_s), 6)
            self._emit_event(job, "shard-finished", **attrs)
            self._maybe_finalize_locked(job)
            self._offer_work_locked()

    def fail_shard(self, job_id, shard_id, kind, detail, worker):
        """A worker's shard failed: charge, requeue-or-abandon, journal.

        Like :meth:`release_shard`, a report from a worker that no
        longer holds the claim (it was reaped, and maybe adopted) does
        nothing: no ledger charge, no journal record.
        """
        with self._lock:
            job = self._job(job_id)
            if job.claims.get(shard_id) != worker:
                return
            n = job.failures.get(shard_id, 0) + 1
            requeued = job.ledger.charge(shard_id, kind, detail, n, job.spec.max_shard_retries)
            job.failures[shard_id] = n
            if not requeued:
                job.abandoned.add(shard_id)
            self._commit({
                "kind": "progress",
                "job_id": job_id,
                "shard_id": shard_id,
                "status": "failed",
                "failure_kind": kind,
                "detail": detail,
                "worker": worker,
            })
            self._emit_event(job, "shard-failed", shard=shard_id, kind=kind, failures=n)
            self._maybe_finalize_locked(job)
            self._offer_work_locked()

    def release_shard(self, job_id, shard_id, worker, detail):
        """Give a claim back uncharged (worker shutdown, stale reap)."""
        with self._lock:
            job = self._job(job_id)
            if job.claims.get(shard_id) != worker:
                return
            self._release_locked(job, shard_id, worker, detail)

    def _release_locked(self, job, shard_id, worker, detail):
        # The cancellation already claimed this job's future work; a
        # released claim joins it instead of returning to pending.
        joins_cancel = job.state == CANCELLING and not job.settled(shard_id)
        self._commit({
            "kind": "release",
            "job_id": job.spec.job_id,
            "shard_id": shard_id,
            "worker": worker,
            "detail": detail,
        })
        if joins_cancel:
            job.ledger.record_cancelled(shard_id, _CANCEL_DETAIL)
        self._emit_event(job, "shard-released", shard=shard_id, detail=detail)
        self._maybe_finalize_locked(job)
        self._offer_work_locked()

    def cancel(self, job_id):
        """Cooperative cancellation: pending shards die now, claims drain.

        Returns the job's state after the request (``cancelling`` while
        claims are still in flight, ``cancelled`` once drained; terminal
        states are returned unchanged — cancelling a finished job is a
        no-op, not an error).
        """
        with self._lock:
            job = self._job(job_id)
            if job.state in (COMPLETED, CANCELLED):
                return job.state
            cancelled = list(job.pending)
            self._commit({"kind": "cancel", "job_id": job_id})
            for shard_id in cancelled:
                job.ledger.record_cancelled(shard_id, _CANCEL_DETAIL)
            self._emit_event(job, "job-cancel-requested", n_in_flight=len(job.claims))
            self._maybe_finalize_locked(job)
            return job.state

    def _maybe_finalize_locked(self, job):
        if job.state not in (COMPLETED, CANCELLED):
            if job.claims:
                return
            if job.state == CANCELLING:
                self._commit({"kind": "cancelled", "job_id": job.spec.job_id})
                self._emit_event(job, "job-cancelled")
            elif not job.pending:
                self._commit({"kind": "complete", "job_id": job.spec.job_id})
                self._emit_event(
                    job,
                    "job-completed",
                    n_results=len(job.results),
                    workers=dict(sorted(job.worker_shards.items())),
                )
            else:
                return
        self._unsettled.pop(job.spec.job_id, None)
        self._evict_locked(job)

    def _evict_locked(self, job):
        """Drop a terminal job's results, plan and ledger from memory.

        Kept whole only while its manifest is degraded: then results
        that never reached the disk exist nowhere else.
        """
        if isinstance(job, _JobState) and job.manifest.degraded is None:
            self.jobs[job.spec.job_id] = _SettledJob(job)

    def _live_job(self, job_id):
        """The job's full state; a settled one is revived from its manifest.

        Only a late shard report (a worker whose claim was reaped)
        mutates a settled job; it is evicted again when the transition
        finalizes.
        """
        job = self._job(job_id)
        if isinstance(job, _JobState):
            return job
        live = replace(
            self._build(job.spec),
            state=job.state,
            worker_shards=dict(job.workers),
            n_events=job.n_events,
            pending=[sid for sid, state in job.shards.items() if state == "pending"],
            skipped={sid for sid, state in job.shards.items() if state == "skipped"},
            cancelled_shards={sid for sid, state in job.shards.items() if state == "cancelled"},
        )
        self.jobs[job_id] = live
        return live

    # -- workers ------------------------------------------------------

    def worker_heartbeat(self, worker):
        """Record worker liveness: monotonic clock + display file.

        The reaper ages claims against the in-process monotonic beat;
        the ``workers/<name>.hb`` touch is advisory wall-clock display
        only (``worker_stats``), and its failure never fails the beat.
        """
        self._worker_beats[worker] = time.monotonic()
        path = self.root / "workers" / f"{journal_dirname(worker)}.hb"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        except OSError:
            pass

    def reap_stale_claims(self, max_age_s, now=None):
        """Release every claim whose worker stopped heartbeating.

        The released shards return to pending for adoption by any live
        worker — the in-process analogue of the restart-time orphan
        release. Returns the number of claims reaped.

        Ages are measured on the process-local **monotonic** clock
        (``now``, when given, is in the ``time.monotonic()`` domain): a
        backwards NTP step must not make every claim look fresh forever,
        and a forward step must not mass-release healthy claims into
        double-runs. Claims whose worker this process has never heard
        from are infinitely stale — such claims cannot outlive a restart
        (``open`` releases them), so a missing beat means a worker that
        died between journal replay and its first heartbeat.
        """
        now = time.monotonic() if now is None else now
        reaped = 0
        with self._lock:
            self.reap_calls += 1
            for job in list(self._unsettled.values()):
                for shard_id, worker in sorted(job.claims.items()):
                    beat = self._worker_beats.get(worker)
                    age = float("inf") if beat is None else now - beat
                    if age > max_age_s:
                        self._release_locked(
                            job,
                            shard_id,
                            worker,
                            f"worker {worker!r} heartbeat stale ({age:.1f}s); "
                            "claim reaped for adoption",
                        )
                        reaped += 1
                self._maybe_finalize_locked(job)
        return reaped

    def worker_stats(self):
        """Per-worker lifecycle counters and liveness, JSON-safe.

        Counters are rebuilt from the journal on replay (claims,
        completions, failures, releases are all journaled with their
        worker), so the view survives restarts. ``last_heartbeat_unix``
        is wall-clock display from the advisory ``.hb`` file —
        reaping never reads it (see :meth:`reap_stale_claims`).
        """
        with self._lock:
            live = {}
            for job in self._unsettled.values():
                for worker in job.claims.values():
                    live[worker] = live.get(worker, 0) + 1
            now = time.monotonic()
            stats = {}
            for worker in sorted(set(self._worker_counts) | set(self._worker_beats)):
                counts = self._worker_counts.get(
                    worker, {"claimed": 0, "completed": 0, "failed": 0, "released": 0}
                )
                hb = self.root / "workers" / f"{journal_dirname(worker)}.hb"
                try:
                    last_unix = hb.stat().st_mtime
                except OSError:
                    last_unix = None
                beat = self._worker_beats.get(worker)
                stats[worker] = {
                    **counts,
                    "live_claims": live.get(worker, 0),
                    "last_heartbeat_unix": last_unix,
                    "heartbeat_age_s": None if beat is None else round(now - beat, 3),
                }
            return stats

    # -- queries ------------------------------------------------------

    def _job(self, job_id):
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def job_ids(self):
        with self._lock:
            return list(self.order)

    def all_settled(self):
        with self._lock:
            return not self._unsettled

    def job_state(self, job_id):
        """The job's lifecycle state alone — what an event tail polls."""
        with self._lock:
            return self._job(job_id).state

    def shard_spec(self, job_id, shard_id):
        """The planned spec for one shard; raises on unknown job/shard."""
        with self._lock:
            return self._job(job_id).spec_for(shard_id)

    def job_status(self, job_id):
        """Status + per-shard progress + merged metrics, all JSON-safe.

        A settled job answers from its in-memory summary; nothing is
        read from disk.
        """
        with self._lock:
            job = self._job(job_id)
            if isinstance(job, _JobState):
                job = _SettledJob(job)
            return _status(job)

    def job_report(self, job_id):
        """The job's :class:`~repro.survey.report.SurveyReport` so far.

        Aggregated exactly as ``run_survey`` would have — same merge
        code path — over whatever shards have completed; the ledger
        carries retries, abandonments, skips, and cancellations. A
        settled job's results and ledger are read back from its
        manifest, once per call, outside the store lock.
        """
        from ..survey.engine import _aggregate

        with self._lock:
            job = self._job(job_id)
            if isinstance(job, _JobState):
                report, _ = _aggregate(
                    job.shard_specs, job.results, job.ledger, job.spec.config.describe()
                )
                return report
        shard_specs, _, results, ledger = self._restore(job.spec)
        report, _ = _aggregate(shard_specs, results, ledger, job.spec.config.describe())
        return report

    def tenant_usage(self, tenant):
        """Quota usage for one tenant (policy, claims, captures)."""
        with self._lock:
            policy = self.scheduler.policy_for(tenant)
            live = sum(
                len(job.claims)
                for job in self._unsettled.values()
                if job.spec.tenant == tenant
            )
            budget = self.budgets.get(tenant)
            return {
                "tenant": tenant,
                "weight": policy.weight,
                "priority": policy.priority,
                "max_concurrent_shards": policy.max_concurrent_shards,
                "max_captures": policy.max_captures,
                "live_claims": live,
                "charged_shards": self.charged.get(tenant, 0),
                "captures_spent": 0.0 if budget is None else budget.spent(),
                "jobs": [
                    job_id
                    for job_id in self.order
                    if self.jobs[job_id].spec.tenant == tenant
                ],
            }

    def events_path(self, job_id):
        with self._lock:
            self._job(job_id)  # unknown jobs raise
        return self._events_path(job_id)

    def _events_path(self, job_id):
        return self._job_dir(job_id) / "events.jsonl"

    def _emit_event(self, job, name, **attrs):
        """One advisory line in the job's telemetry JSONL (never fails)."""
        record = {"type": "event", "name": name, "attrs": attrs}
        try:
            with open(job.events_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass
        job.n_events += 1
        self._signal()

"""Service tier: the durable job store, the fair-share scheduler, and
the worker fleet.

The store tests exercise the journaled lifecycle directly — submit,
claim, complete, fail, release, cancel — then reopen the store in a
fresh object and assert the replay reconstructs the identical state
(the SIGKILL-at-a-record-boundary contract; the arbitrary-byte kill
points live in the chaos tier). Scheduling tests pin the deterministic
policy surface: concurrency quotas, capture ceilings that skip instead
of deadlock, weighted interleaving, and priority aging. Fleet tests run
real claim-driven worker threads over stub shards. The shared journal
primitives (:mod:`repro.journalutil`) get their own unit coverage here
because this tier is their newest — and strictest — consumer.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro import FaseConfig, MicroOp
from repro.errors import ServiceError, SurveyError
from repro.journalutil import (
    append_line,
    checksum_record,
    decode_line,
    encode_line,
    ensure_line_boundary,
    iter_journal,
)
from repro.service import (
    CANCELLED,
    CANCELLING,
    COMPLETED,
    QUEUED,
    RUNNING,
    FairShareScheduler,
    JobSpec,
    JobStore,
    TenantPolicy,
    WorkerFleet,
)
import repro.service.queue as queue_module
from repro.survey.chaos import count_attempts, log_attempt, stub_result, well_behaved_shard
from repro.survey.report import BUDGET_EXHAUSTED

pytestmark = pytest.mark.service

MACHINES = ("corei7_desktop", "turionx2_laptop")
ONE_PAIR = ((MicroOp.LDM, MicroOp.LDL1),)
THREE_BANDS = ((0.0, 3e4), (3e4, 6e4), (6e4, 9e4))
EIGHT_BANDS = tuple((i * 1.25e4, (i + 1) * 1.25e4) for i in range(8))


def _scratch_config(base):
    """A tiny config whose ``name`` smuggles the scratch dir to stubs."""
    return FaseConfig(
        span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name=str(base)
    )


def _open_store(root, policies=(), aging_decisions=16):
    scheduler = FairShareScheduler(policies, aging_decisions=aging_decisions)
    return JobStore(root, scheduler=scheduler).open(server_name="test")


def _submit(store, scratch, tenant="alice", machines=MACHINES, bands=None, **kwargs):
    return store.submit(
        tenant=tenant,
        machines=machines,
        pairs=ONE_PAIR,
        config=_scratch_config(scratch),
        bands=bands,
        **kwargs,
    )


def _drain(store, worker="w0"):
    """Claim-and-complete until the store goes idle; claim order out."""
    order = []
    while True:
        claimed = store.claim(worker)
        if claimed is None:
            return order
        store.complete_shard(
            claimed.job_id, claimed.spec.shard_id, stub_result(claimed.spec), worker
        )
        order.append((claimed.tenant, claimed.spec.shard_id))


# ----------------------------------------------------------------------
# The shared journal primitives.


class TestJournalUtil:
    def test_encode_decode_round_trip(self):
        record = {"kind": "claim", "shard_id": "a:b:c", "n": 3}
        assert decode_line(encode_line(record)) == record
        assert decode_line(encode_line(record).encode("utf-8")) == record

    def test_checksum_is_key_order_independent(self):
        assert checksum_record({"a": 1, "b": 2}) == checksum_record({"b": 2, "a": 1})

    def test_damage_decodes_to_none_never_raises(self):
        line = encode_line({"kind": "x"})
        assert decode_line(line[:-5]) is None  # torn tail
        assert decode_line(line.replace('"x"', '"y"')) is None  # flipped payload
        assert decode_line("not json at all") is None
        assert decode_line(b"\xff\xfe garbage") is None
        assert decode_line(json.dumps({"no": "envelope"})) is None

    def test_append_and_iterate_with_last_flag(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for n in range(3):
            append_line(path, {"n": n})
        rows = list(iter_journal(path))
        assert [record["n"] for record, _ in rows] == [0, 1, 2]
        assert [is_last for _, is_last in rows] == [False, False, True]

    def test_line_boundary_seals_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, {"n": 0})
        with open(path, "ab") as handle:
            handle.write(b'{"record": {"kind": "claim", "sha')  # kill mid-write
        assert ensure_line_boundary(path) is True
        assert ensure_line_boundary(path) is False  # idempotent
        rows = list(iter_journal(path))
        assert rows[0] == ({"n": 0}, False)
        assert rows[1] == (None, True)  # the sealed fragment reads as damage
        append_line(path, {"n": 1})  # and appends land on a fresh line
        assert list(iter_journal(path))[-1] == ({"n": 1}, True)

    def test_line_boundary_on_clean_or_missing_log(self, tmp_path):
        assert ensure_line_boundary(tmp_path / "absent.jsonl") is False
        path = tmp_path / "log.jsonl"
        append_line(path, {"n": 0})
        assert ensure_line_boundary(path) is False


# ----------------------------------------------------------------------
# The job spec: replayable by construction.


class TestJobSpec:
    def _spec(self, scratch):
        return JobSpec(
            job_id="job-000007",
            tenant="alice",
            machines=MACHINES,
            pairs=(("LDM", "LDL1"),),  # micro-op names, as submit() journals them
            config=_scratch_config(scratch),
            bands=THREE_BANDS,
            seed=5,
            max_shard_retries=1,
        )

    def test_round_trips_through_json(self, tmp_path):
        spec = self._spec(tmp_path)
        revived = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert revived == spec

    def test_shard_plan_is_derived_and_stable(self, tmp_path):
        spec = self._spec(tmp_path)
        plan = spec.shard_plan()
        assert len(plan) == len(MACHINES) * len(THREE_BANDS)
        revived = JobSpec.from_dict(spec.to_dict())
        assert [s.shard_id for s in revived.shard_plan()] == [s.shard_id for s in plan]


# ----------------------------------------------------------------------
# The store lifecycle and its replay.


class TestJobStore:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        assert store.job_status(job_id)["state"] == QUEUED
        claimed = store.claim("w0")
        assert claimed.job_id == job_id and claimed.tenant == "alice"
        assert store.job_status(job_id)["state"] == RUNNING
        store.complete_shard(job_id, claimed.spec.shard_id, stub_result(claimed.spec), "w0")
        _drain(store)
        status = store.job_status(job_id)
        assert status["state"] == COMPLETED
        assert status["n_completed"] == len(MACHINES)
        assert set(status["shards"].values()) == {"completed"}
        assert store.all_settled()
        # Shard metrics merged into the status (stub shards count 5 each).
        assert status["metrics"]["counters"]["captures_total"] == 5 * len(MACHINES)

    def test_replay_reproduces_partial_state(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        store.complete_shard(job_id, claimed.spec.shard_id, stub_result(claimed.spec), "w0")
        before = store.job_status(job_id)

        resumed = _open_store(root)
        after = resumed.job_status(job_id)
        assert after == before
        assert resumed.charged == store.charged
        assert resumed.decision == store.decision
        _drain(resumed)
        assert resumed.job_status(job_id)["state"] == COMPLETED

    def test_orphaned_claim_is_released_on_reopen(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")  # ... and the service is SIGKILLed here
        shard_id = claimed.spec.shard_id

        resumed = _open_store(root)
        status = resumed.job_status(job_id)
        assert status["shards"][shard_id] == "pending"  # adopted, not lost
        kinds = [r["kind"] for r, _ in iter_journal(root / "store.jsonl") if r]
        assert "restart" in kinds and "release" in kinds
        order = _drain(resumed, worker="w1")
        assert ("alice", shard_id) in order
        assert resumed.job_status(job_id)["state"] == COMPLETED

    def test_torn_store_tail_is_sealed_and_skipped(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path)
        with open(root / "store.jsonl", "ab") as handle:
            handle.write(b'{"record": {"kind": "claim", "job_id": "job-0')  # torn
        resumed = _open_store(root)
        assert resumed.job_status(job_id)["state"] == QUEUED
        _drain(resumed)
        assert resumed.job_status(job_id)["state"] == COMPLETED

    def test_durable_result_without_progress_counts_completed(self, tmp_path):
        """The complete_shard kill window: manifest append durable, store
        progress record lost. Replay recovers the result from the
        manifest instead of re-running the shard."""
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        store.jobs[job_id].manifest.append_shard(stub_result(claimed.spec))
        # ... SIGKILL lands before the progress record is appended.
        resumed = _open_store(root)
        status = resumed.job_status(job_id)
        assert status["shards"][claimed.spec.shard_id] == "completed"
        assert status["n_completed"] == 1

    def test_failed_shard_requeues_then_abandons(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path, machines=MACHINES[:1], max_shard_retries=1)
        claimed = store.claim("w0")
        shard_id = claimed.spec.shard_id
        store.fail_shard(job_id, shard_id, "error", "boom", "w0")
        assert store.job_status(job_id)["shards"][shard_id] == "pending"  # requeued
        claimed = store.claim("w0")
        assert claimed.spec.shard_id == shard_id
        store.fail_shard(job_id, shard_id, "error", "boom again", "w0")
        status = store.job_status(job_id)
        assert status["shards"][shard_id] == "abandoned"
        assert status["state"] == COMPLETED  # settled, with the gap ledgered
        report = store.job_report(job_id)
        assert shard_id in report.ledger.abandoned
        assert report.ledger.n_failures == 2
        assert report.n_completed == 0

    def test_abandonment_survives_replay(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path, machines=MACHINES[:1], max_shard_retries=0)
        claimed = store.claim("w0")
        store.fail_shard(job_id, claimed.spec.shard_id, "error", "boom", "w0")
        resumed = _open_store(root)
        status = resumed.job_status(job_id)
        assert status["shards"][claimed.spec.shard_id] == "abandoned"
        assert status["state"] == COMPLETED
        assert resumed.claim("w0") is None

    def test_failure_count_is_not_double_charged_by_replay(self, tmp_path):
        """One live failure must replay to one failure, not two: the
        manifest ledger (restored in _admit) is the authoritative count,
        and the journaled progress record only repairs membership. A
        shard with retry budget left must survive exactly as many more
        failures after a restart as it would have without one."""
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path, machines=MACHINES[:1], max_shard_retries=2)
        claimed = store.claim("w0")
        shard_id = claimed.spec.shard_id
        store.fail_shard(job_id, shard_id, "error", "boom", "w0")

        resumed = _open_store(root)
        resumed = _open_store(root)  # a second replay must stay at 1 too
        assert resumed.jobs[job_id].failures[shard_id] == 1
        assert resumed.job_status(job_id)["shards"][shard_id] == "pending"
        for detail in ("boom again", "boom thrice"):  # two retries remain
            claimed = resumed.claim("w0")
            assert claimed is not None and claimed.spec.shard_id == shard_id
            resumed.fail_shard(job_id, shard_id, "error", detail, "w0")
        status = resumed.job_status(job_id)
        assert status["shards"][shard_id] == "abandoned"  # 3 > max_shard_retries
        assert status["n_failures"] == 3

    def test_cancel_before_any_claim_is_immediate(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        assert store.cancel(job_id) == CANCELLED
        status = store.job_status(job_id)
        assert set(status["shards"].values()) == {"cancelled"}
        assert store.claim("w0") is None
        assert dict(store.job_report(job_id).ledger.cancelled)

    def test_cancel_with_inflight_claim_drains(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        assert store.cancel(job_id) == CANCELLING  # the claim is still out
        assert store.claim("w1") is None  # but no new work is offered
        store.complete_shard(job_id, claimed.spec.shard_id, stub_result(claimed.spec), "w0")
        status = store.job_status(job_id)
        assert status["state"] == CANCELLED
        assert status["n_completed"] == 1  # the in-flight result is kept

    def test_released_claim_on_cancelling_job_is_cancelled(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        store.cancel(job_id)
        store.release_shard(job_id, claimed.spec.shard_id, "w0", "worker shutdown")
        status = store.job_status(job_id)
        assert status["state"] == CANCELLED
        assert status["shards"][claimed.spec.shard_id] == "cancelled"

    def test_cancelled_state_survives_replay(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path)
        store.claim("w0")
        store.cancel(job_id)
        # SIGKILL while cancelling: the restart releases the orphaned
        # claim, which joins the cancellation instead of resurrecting.
        resumed = _open_store(root)
        status = resumed.job_status(job_id)
        assert status["state"] == CANCELLED
        assert set(status["shards"].values()) == {"cancelled"}
        assert resumed.claim("w0") is None

    def test_released_claim_on_cancelling_job_survives_replay(self, tmp_path):
        """Replaying a post-cancel release must mirror _release_locked's
        CANCELLING branch: the shard stays cancelled instead of being
        reported pending on a cancelled job."""
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        store.cancel(job_id)
        store.release_shard(job_id, claimed.spec.shard_id, "w0", "worker shutdown")

        resumed = _open_store(root)
        status = resumed.job_status(job_id)
        assert status["state"] == CANCELLED
        assert status["shards"][claimed.spec.shard_id] == "cancelled"
        assert set(status["shards"].values()) == {"cancelled"}

    def test_cancel_terminal_job_is_a_noop(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        _drain(store)
        assert store.cancel(job_id) == COMPLETED

    def test_job_ids_monotonic_across_restart(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        first = _submit(store, tmp_path)
        resumed = _open_store(root)
        second = _submit(resumed, tmp_path, tenant="bob")
        assert first == "job-000001" and second == "job-000002"

    def test_reap_stale_claims_releases_for_adoption(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        claimed = store.claim("ghost")  # alive at claim time, then silent
        store.worker_heartbeat("live")
        # Claiming seeds the liveness clock, so the ghost is fresh now...
        assert store.reap_stale_claims(max_age_s=3600.0) == 0
        # ...and stale once the monotonic clock has moved past the window.
        assert store.reap_stale_claims(max_age_s=3600.0, now=time.monotonic() + 7200.0) == 1
        assert store.job_status(job_id)["shards"][claimed.spec.shard_id] == "pending"
        adopted = [shard_id for _, shard_id in _drain(store, worker="live")]
        assert claimed.spec.shard_id in adopted  # the orphan re-ran elsewhere
        assert store.job_status(job_id)["state"] == COMPLETED

    def test_reap_survives_wall_clock_steps(self, tmp_path, monkeypatch):
        # Reaping ages claims on the monotonic clock: NTP stepping the
        # wall clock must neither mass-release healthy claims (forward
        # step) nor make silent workers immortal (backward step).
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        store.worker_heartbeat("w0")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 3600.0)
        assert store.reap_stale_claims(max_age_s=30.0) == 0  # fresh beat stays claimed
        assert store.job_status(job_id)["shards"][claimed.spec.shard_id].startswith("claimed")
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        time.sleep(0.12)  # genuinely silent past the window now
        assert store.reap_stale_claims(max_age_s=0.05) == 1
        assert store.job_status(job_id)["shards"][claimed.spec.shard_id] == "pending"

    def test_unknown_job_raises(self, tmp_path):
        store = _open_store(tmp_path / "store")
        with pytest.raises(ServiceError, match="unknown job"):
            store.job_status("job-999999")

    def test_empty_tenant_rejected(self, tmp_path):
        store = _open_store(tmp_path / "store")
        with pytest.raises(ServiceError, match="tenant"):
            store.submit(tenant="", machines=MACHINES[:1])

    def test_repeated_band_refused_before_anything_is_journaled(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        with pytest.raises(SurveyError, match="repeats shard corei7_desktop:LDM/LDL1:0-0.03MHz"):
            _submit(store, tmp_path, machines=MACHINES[:1], bands=THREE_BANDS[:1] * 2)
        journal = root / "store.jsonl"
        records = list(iter_journal(journal)) if journal.exists() else []
        assert all(record["kind"] != "submit" for record, _ in records)
        assert list(_open_store(root).job_ids()) == []

    def test_refused_submit_does_not_burn_a_job_id(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        with pytest.raises(SurveyError, match="unknown preset machines"):
            _submit(store, tmp_path, machines=["nope"])
        assert _submit(store, tmp_path) == "job-000001"
        assert _submit(_open_store(root), tmp_path) == "job-000002"

    def test_journaled_submit_spends_its_id_even_if_admission_fails(self, tmp_path, monkeypatch):
        # The submit record is durable before the job's manifest exists;
        # if that manifest cannot be created the id is still taken.
        root = tmp_path / "store"
        store = _open_store(root)

        def failing_create(self, fingerprint, specs, description=""):
            self._degrade("creating the manifest failed: injected")
            return self

        monkeypatch.setattr(queue_module.SurveyManifest, "create", failing_create)
        with pytest.raises(ServiceError, match="could not create the manifest"):
            _submit(store, tmp_path)
        monkeypatch.undo()
        assert _submit(store, tmp_path) == "job-000002"
        assert list(_open_store(root).job_ids()) == ["job-000001", "job-000002"]

    def test_journaled_repeated_band_still_replays(self, tmp_path, monkeypatch):
        # A store journal written before admission refused repeated bands
        # still opens: the refusal is not on the replay path.
        root = tmp_path / "store"
        monkeypatch.setattr(queue_module, "refuse_repeated_shards", lambda specs: None)
        job_id = _submit(
            _open_store(root), tmp_path, machines=MACHINES[:1], bands=THREE_BANDS[:1] * 2
        )
        monkeypatch.undo()
        assert _open_store(root).job_status(job_id)["state"] == QUEUED

    def test_foreign_store_format_rejected(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "HEADER.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ServiceError, match="unsupported store format"):
            _open_store(root)


def _reap_everything(store):
    """Release every live claim, as if each worker had gone silent."""
    return store.reap_stale_claims(max_age_s=3600.0, now=time.monotonic() + 7200.0)


def _replayed(root):
    """A fresh store rebuilt from the journal alone, before ``open``'s
    restart releases (which would mask what the replay reconstructed)."""
    store = JobStore(root, scheduler=FairShareScheduler(()))
    store._replay()
    return store


class TestReportsFromFormerOwners:
    """A worker whose claim was reaped may still report: its failure is
    void, its result counts, and neither touches the adopter's claim."""

    def test_failure_from_a_reaped_worker_is_ignored(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path, machines=MACHINES[:1])
        shard_id = store.claim("w0").spec.shard_id
        assert _reap_everything(store) == 1
        adopted = store.claim("w1")
        assert adopted.spec.shard_id == shard_id
        journal = store.log_path.read_bytes()
        store.fail_shard(job_id, shard_id, "error", "late report", "w0")
        assert store.log_path.read_bytes() == journal  # nothing journaled
        assert store.job_status(job_id)["shards"][shard_id] == "claimed:w1"
        store.complete_shard(job_id, shard_id, stub_result(adopted.spec), "w1")
        store.fail_shard(job_id, shard_id, "error", "later still", "w0")
        status = store.job_status(job_id)
        assert status["state"] == COMPLETED
        assert status["n_failures"] == 0
        assert store.job_report(job_id).ledger.n_failures == 0
        assert store.worker_stats()["w0"]["failed"] == 0
        assert _open_store(root).job_report(job_id).ledger.n_failures == 0

    def test_stale_completion_keeps_the_adopters_claim(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path, machines=MACHINES[:1])
        claimed = store.claim("w0")
        shard_id = claimed.spec.shard_id
        _reap_everything(store)
        store.claim("w1")
        store.complete_shard(job_id, shard_id, stub_result(claimed.spec), "w0")
        assert store.jobs[job_id].claims == {shard_id: "w1"}  # the adopter's claim stands
        status = store.job_status(job_id)
        assert status["state"] == RUNNING
        assert status["n_completed"] == 1  # the first result is kept
        store.complete_shard(job_id, shard_id, stub_result(claimed.spec), "w1")
        assert store.job_status(job_id)["state"] == COMPLETED
        assert _open_store(root).job_status(job_id)["state"] == COMPLETED

    def test_replay_voids_a_failure_reported_over_a_peers_claim(self, tmp_path):
        root = tmp_path / "store"
        store = _open_store(root)
        job_id = _submit(store, tmp_path, machines=MACHINES[:1])
        shard_id = store.claim("w0").spec.shard_id
        _reap_everything(store)
        store.claim("w1")
        # The record a stale failure report used to journal.
        store._append({
            "kind": "progress",
            "job_id": job_id,
            "shard_id": shard_id,
            "status": "failed",
            "failure_kind": "error",
            "detail": "late report",
            "worker": "w0",
        })
        job = _replayed(root).jobs[job_id]
        assert job.claims == {shard_id: "w1"}
        assert shard_id not in job.pending


# ----------------------------------------------------------------------
# Quotas, ceilings, fairness, priority.


class TestScheduling:
    def test_max_concurrent_shards_enforced(self, tmp_path):
        policy = TenantPolicy("alice", max_concurrent_shards=1)
        store = _open_store(tmp_path / "store", policies=(policy,))
        job_id = _submit(store, tmp_path)
        claimed = store.claim("w0")
        assert claimed is not None
        assert store.claim("w1") is None  # at the cap
        store.complete_shard(job_id, claimed.spec.shard_id, stub_result(claimed.spec), "w0")
        assert store.claim("w1") is not None  # headroom again

    def test_capture_ceiling_skips_unfundable_shards(self, tmp_path):
        cost = len(_scratch_config(tmp_path).falts())  # captures per shard
        policy = TenantPolicy("alice", max_captures=cost)  # funds exactly one
        store = _open_store(tmp_path / "store", policies=(policy,))
        job_id = _submit(store, tmp_path)
        order = _drain(store)
        assert len(order) == 1  # one shard funded and run
        status = store.job_status(job_id)
        assert status["state"] == COMPLETED  # skipped, not deadlocked
        assert sorted(status["shards"].values()) == ["completed", "skipped"]
        planned = store.job_report(job_id).ledger.planned
        assert [kind for kind, _ in planned.values()] == [BUDGET_EXHAUSTED]
        assert store.tenant_usage("alice")["captures_spent"] == pytest.approx(cost)

    def test_capture_ceiling_spans_restarts(self, tmp_path):
        """Replay re-charges funded shards, so a restart cannot mint a
        fresh budget for a tenant that already spent its ceiling."""
        root = tmp_path / "store"
        cost = len(_scratch_config(tmp_path).falts())
        policy = TenantPolicy("alice", max_captures=cost)
        store = _open_store(root, policies=(policy,))
        _submit(store, tmp_path)
        _drain(store)
        resumed = _open_store(root, policies=(policy,))
        job_id = _submit(resumed, tmp_path)  # a second job, same tenant
        _drain(resumed)
        status = resumed.job_status(job_id)
        assert status["state"] == COMPLETED
        assert set(status["shards"].values()) == {"skipped"}  # nothing left to fund

    def test_weighted_fair_share_interleaves(self, tmp_path):
        policies = (TenantPolicy("alice", weight=2.0), TenantPolicy("bob", weight=1.0))
        store = _open_store(tmp_path / "store", policies=policies)
        _submit(store, tmp_path, tenant="alice", machines=MACHINES[:1], bands=THREE_BANDS)
        _submit(store, tmp_path, tenant="bob", machines=MACHINES[:1], bands=THREE_BANDS)
        order = [tenant for tenant, _ in _drain(store)]
        assert order[:3].count("alice") == 2  # 2:1 from the first window on
        assert store.charged == {"alice": 3, "bob": 3}

    def test_deterministic_tie_break_is_lexicographic(self, tmp_path):
        store = _open_store(tmp_path / "store")
        _submit(store, tmp_path, tenant="zoe", machines=MACHINES[:1])
        _submit(store, tmp_path, tenant="amy", machines=MACHINES[:1])
        assert store.claim("w0").tenant == "amy"  # equal share: name order wins

    def test_aging_overtakes_static_priority(self, tmp_path):
        policies = (TenantPolicy("alice", priority=1), TenantPolicy("bob", priority=0))
        store = _open_store(tmp_path / "store", policies=policies, aging_decisions=2)
        _submit(store, tmp_path, tenant="alice", machines=MACHINES[:1], bands=THREE_BANDS)
        _submit(store, tmp_path, tenant="bob", machines=MACHINES[:1], bands=THREE_BANDS)
        order = [tenant for tenant, _ in _drain(store)]
        assert "bob" in order[:4]  # starved past 2 decisions, bob ages in
        assert order[0] == "alice"  # but static priority won the opener

    def test_new_tenant_ages_from_admission_not_decision_zero(self, tmp_path):
        """A tenant submitting its first job after N total claims starts
        aging from admission — it must not read as having waited all N
        decisions and leapfrog a higher static priority class."""
        policies = (TenantPolicy("alice", priority=1), TenantPolicy("bob", priority=0))
        store = _open_store(tmp_path / "store", policies=policies, aging_decisions=2)
        alice_job = _submit(
            store, tmp_path, tenant="alice", machines=MACHINES[:1], bands=THREE_BANDS
        )
        for _ in range(2):  # two decisions happen before bob even exists
            claimed = store.claim("w0")
            store.complete_shard(
                alice_job, claimed.spec.shard_id, stub_result(claimed.spec), "w0"
            )
        _submit(store, tmp_path, tenant="bob", machines=MACHINES[:1], bands=THREE_BANDS)
        assert store.claim("w0").tenant == "alice"  # no retroactive boost
        with pytest.raises(ServiceError, match="name"):
            TenantPolicy("")
        with pytest.raises(ServiceError, match="weight"):
            TenantPolicy("a", weight=0.0)
        with pytest.raises(ServiceError, match="max_concurrent_shards"):
            TenantPolicy("a", max_concurrent_shards=0)
        with pytest.raises(ServiceError, match="max_captures"):
            TenantPolicy("a", max_captures=-1)
        with pytest.raises(ServiceError, match="duplicate"):
            FairShareScheduler((TenantPolicy("a"), TenantPolicy("a")))
        with pytest.raises(ServiceError, match="aging_decisions"):
            FairShareScheduler((), aging_decisions=0)

    def test_select_over_64_tenants_stays_under_5_ms(self):
        # A generous budget for a noisy runner, tight enough that an
        # accidental O(n^2) or a stray sleep in the decision fails.
        n_tenants = 64
        scheduler = FairShareScheduler(
            tuple(
                TenantPolicy(f"t{i:03d}", weight=1.0 + (i % 7), priority=i % 3)
                for i in range(n_tenants)
            )
        )
        snapshot = {
            "decision": 1000,
            "tenants": {
                f"t{i:03d}": {
                    "live_claims": i % 4,
                    "charged": i * 3,
                    "last_claim_decision": 1000 - i,
                    "jobs": [{"job_id": f"job-{i:03d}", "has_pending": True}],
                }
                for i in range(n_tenants)
            },
        }
        n_decisions = 2000
        start = time.perf_counter()
        for _ in range(n_decisions):
            assert scheduler.select(snapshot) is not None
        assert (time.perf_counter() - start) / n_decisions < 0.005


# ----------------------------------------------------------------------
# Stub shard body for the heartbeat-collision regression (module-level
# so the watchdog's fork pool can pickle it by reference).

from repro.survey.shards import beat_heartbeat  # noqa: E402


def hang_after_one_beat(spec):
    # One beat, then silence: the stall watchdog MUST kill this.
    beat_heartbeat(spec.heartbeat_path)
    time.sleep(30.0)
    return stub_result(spec)


def slow_logged_shard(spec):
    # Outlives reap_after_s=0.5 three times over: only the worker's
    # heartbeats, not its claim polls, can keep this claim alive.
    log_attempt(spec)
    time.sleep(1.5)
    return stub_result(spec)


# ----------------------------------------------------------------------
# The worker fleet over stub shards.


class TestWorkerFleet:
    def test_fleet_drains_two_tenant_jobs(self, tmp_path):
        # Per-job scratch dirs: both jobs plan the same shard ids, so a
        # shared dir would conflate their attempt counters.
        scratches = {tenant: tmp_path / tenant for tenant in ("alice", "bob")}
        for scratch in scratches.values():
            scratch.mkdir()
        store = _open_store(tmp_path / "store")
        jobs = {
            tenant: _submit(store, scratch, tenant=tenant)
            for tenant, scratch in scratches.items()
        }
        fleet = WorkerFleet(store, workers=2, shard_fn=well_behaved_shard)
        fleet.start()
        try:
            assert fleet.drain(timeout_s=30.0)
        finally:
            fleet.stop()
        for tenant, job_id in jobs.items():
            status = store.job_status(job_id)
            assert status["state"] == COMPLETED
            assert status["n_completed"] == len(MACHINES)
            for shard_id in status["shards"]:
                assert count_attempts(scratches[tenant], shard_id) == 1  # no duplicates

    def test_fleet_skips_cancelled_job(self, tmp_path):
        doomed_scratch = tmp_path / "doomed"
        doomed_scratch.mkdir()
        store = _open_store(tmp_path / "store")
        doomed = _submit(store, doomed_scratch, tenant="alice")
        kept = _submit(store, tmp_path, tenant="bob")
        store.cancel(doomed)
        fleet = WorkerFleet(store, workers=2, shard_fn=well_behaved_shard)
        fleet.start()
        try:
            assert fleet.drain(timeout_s=30.0)
        finally:
            fleet.stop()
        assert store.job_status(doomed)["state"] == CANCELLED
        assert store.job_status(kept)["state"] == COMPLETED
        for shard_id in store.job_status(doomed)["shards"]:
            assert count_attempts(doomed_scratch, shard_id) == 0  # never started

    def test_fleet_needs_a_worker(self, tmp_path):
        store = _open_store(tmp_path / "store")
        with pytest.raises(ServiceError, match="at least one worker"):
            WorkerFleet(store, workers=0)

    def test_drain_is_immediate_on_an_empty_store(self, tmp_path):
        # An idle-but-healthy service has no unfinished work: draining
        # must answer True at once, not spin out the timeout on "no jobs
        # ever happened".
        store = _open_store(tmp_path / "store")
        fleet = WorkerFleet(store, workers=2, shard_fn=well_behaved_shard)
        started = time.monotonic()
        assert fleet.drain(timeout_s=5.0) is True
        assert time.monotonic() - started < 2.0

    def test_shard_heartbeat_paths_are_job_namespaced(self, tmp_path):
        # Two jobs over the same plan produce identical shard ids; their
        # stall-watchdog heartbeat files must still be distinct.
        store = _open_store(tmp_path / "store")
        _submit(store, tmp_path, tenant="alice", machines=MACHINES[:1])
        _submit(store, tmp_path, tenant="bob", machines=MACHINES[:1])
        fleet = WorkerFleet(store, workers=1, shard_timeout_s=5.0)
        first, second = store.claim("w0"), store.claim("w1")
        assert first.spec.shard_id == second.spec.shard_id
        assert first.job_id != second.job_id
        assert fleet.shard_heartbeat_path(first) != fleet.shard_heartbeat_path(second)

    def test_foreign_job_beats_cannot_mask_a_hung_shard(self, tmp_path):
        # Regression: the heartbeat path used to be keyed by shard id
        # alone, so a live shard of job B extended the stall deadline of
        # job A's hung twin forever and the watchdog never fired. Here
        # the fleet runs job A's hung shard while this thread plays job
        # B's live twin, beating the exact path the fleet derives for it.
        store = _open_store(tmp_path / "store")
        jobs = {
            tenant: _submit(
                store, tmp_path, tenant=tenant, machines=MACHINES[:1], max_shard_retries=0
            )
            for tenant in ("alice", "bob")
        }
        fleet = WorkerFleet(
            store,
            workers=1,
            shard_fn=hang_after_one_beat,
            shard_timeout_s=0.75,
            poll_interval_s=0.02,
        )
        # Claim one job's shard by hand before the fleet starts: that job
        # plays the live twin, the other (the one fleet worker's claim)
        # plays the victim.
        twin = store.claim("by-hand")
        (victim,) = (job_id for job_id in jobs.values() if job_id != twin.job_id)
        twin_hb = fleet.shard_heartbeat_path(twin)
        twin_hb.parent.mkdir(parents=True, exist_ok=True)
        fleet.start()
        try:
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                beat_heartbeat(twin_hb)  # the live twin keeps beating...
                shards = store.job_status(victim)["shards"]
                if all(state == "abandoned" for state in shards.values()):
                    break  # ...and the hung shard still got killed
                time.sleep(0.05)
            else:
                pytest.fail(
                    "hung shard never stalled while its twin kept beating: "
                    f"victim={store.job_status(victim)['shards']}"
                )
        finally:
            fleet.stop()
        store.complete_shard(
            twin.job_id, twin.spec.shard_id, stub_result(twin.spec), "by-hand"
        )
        assert store.job_status(twin.job_id)["state"] == COMPLETED
        assert store.job_status(victim)["state"] == COMPLETED  # abandoned settles it

    def test_reaping_runs_on_a_shared_interval(self, tmp_path):
        # Pre-fix, every worker reaped on every poll (~4 workers x 50
        # polls here); the fleet now sweeps at most once per
        # reap_after_s/2 window regardless of fleet size.
        store = _open_store(tmp_path / "store")
        fleet = WorkerFleet(
            store,
            workers=4,
            shard_fn=well_behaved_shard,
            poll_interval_s=0.01,
            reap_after_s=10.0,
        )
        fleet.start()
        try:
            time.sleep(0.5)
        finally:
            fleet.stop()
        assert store.reap_calls <= 2

        # The same bound on a short interval, across a 16-shard drain and
        # an idle stretch: the sweep count tracks wall-clock /
        # (reap_after_s / 2); the per-poll tax it replaced lands in the
        # hundreds.
        store = _open_store(tmp_path / "draining")
        _submit(store, tmp_path, bands=EIGHT_BANDS)
        reap_after_s = 0.5
        fleet = WorkerFleet(
            store,
            workers=4,
            shard_fn=stub_result,
            poll_interval_s=0.005,
            reap_after_s=reap_after_s,
        )
        start = time.perf_counter()
        fleet.start()
        try:
            assert fleet.drain(timeout_s=120.0)
            time.sleep(0.5)  # polling continues, work doesn't
        finally:
            fleet.stop()
        elapsed = time.perf_counter() - start
        assert store.reap_calls <= int(elapsed / (reap_after_s / 2.0)) + 3

    def test_job_report_matches_survey_aggregation(self, tmp_path):
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        _drain(store)
        report = store.job_report(job_id)
        assert report.n_shards == len(MACHINES)
        assert report.n_completed == len(MACHINES)
        assert sorted(report.machines) == sorted(MACHINES)  # stub results name presets
        assert report.ledger.n_failures == 0
        # And the report round-trips through the service's wire format.
        revived = type(report).from_json(report.to_json())
        assert revived.to_dict() == report.to_dict()

    def test_live_shard_is_never_reaped(self, tmp_path):
        # Regression: fleet workers used to beat only between claims, so
        # the fleet reaped its own busy worker and ran the shard twice.
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path, machines=MACHINES[:1])
        fleet = WorkerFleet(
            store,
            workers=2,
            shard_fn=slow_logged_shard,
            poll_interval_s=0.02,
            reap_after_s=0.5,
        )
        fleet.start()
        try:
            assert fleet.drain(timeout_s=30.0)
        finally:
            fleet.stop()
        (shard_id,) = store.job_status(job_id)["shards"]
        assert count_attempts(tmp_path, shard_id) == 1
        assert all(stats["released"] == 0 for stats in store.worker_stats().values())

    def test_shard_finished_events_carry_elapsed_time(self, tmp_path):
        # The fleet runs the worker-host loop, so its events carry the
        # shard wall-clock a remote host reports.
        store = _open_store(tmp_path / "store")
        job_id = _submit(store, tmp_path)
        fleet = WorkerFleet(store, workers=2, shard_fn=well_behaved_shard)
        fleet.start()
        try:
            assert fleet.drain(timeout_s=30.0)
        finally:
            fleet.stop()
        events = [
            json.loads(line)
            for line in store.events_path(job_id).read_text().splitlines()
        ]
        finished = [e["attrs"] for e in events if e["name"] == "shard-finished"]
        assert len(finished) == len(MACHINES)
        for attrs in finished:
            assert attrs["worker"].startswith("worker-")
            assert attrs["elapsed_s"] >= 0.0


# ----------------------------------------------------------------------
# The journal bytes of one fixed schedule.

#: A fixed config: the golden must not see the per-test scratch path.
GOLDEN_CONFIG = FaseConfig(
    span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name="journal golden"
)

#: SHA-256 of ``store.jsonl``, of every job's ``manifest.jsonl`` and of
#: every job's report (sorted-key JSON minus ``telemetry``) after
#: :func:`_golden_schedule`. Computed once; a refactor of the store or
#: the ledger must reproduce them, not re-pin them.
JOURNAL_GOLDEN = {
    "store.jsonl": "40ee34aeade6e0eb76784eee9ca66a71861bd04ff99eeefac88bb75d423ca978",
    "fail/manifest.jsonl": "3a847cf528e0f8d54daf01fdf168f572d476d872dceec6ba5a785d73668a8795",
    "fail/report": "95b0c3b63bbc64b9532bba4a36b3749e7c56bf670d4baf5d03bc603acfe57c3b",
    "release/manifest.jsonl": "dd6bb476e938708ce7747b299e062a1e57d152e9d631c7c76330b3822f61b95b",
    "release/report": "18b1cd54e7cbe14cfbe426cfc42a0be0f99d0b3733606a25841cec885293d97f",
    "capped/manifest.jsonl": "f2776dfa033f4dd2439cd83a7792bab9af2bd2c62d300253cfdf7b23009e22c9",
    "capped/report": "aad16c645b0541598be513da00032b98c354565ee8be84d1121f2ec390997e1d",
    "cancel/manifest.jsonl": "bb6c9e812ec99f27f9147af8fa923a11b6a5466664dcf3ad01321db810db52e6",
    "cancel/report": "250384bc68f767958d71ea60e6af7a7d951ba8c6d9eb93a2a1888bdd242435cc",
}


def _golden_schedule(root):
    """One deterministic direct-API schedule over every journaled transition.

    Three tenants (carol's capture ceiling funds one shard, so the rest
    of her job is skipped); alice's ``fail`` job fails one shard until it
    is abandoned at ``max_shard_retries=1``; bob's first claim on his
    ``release`` job is given back; and his ``cancel`` job is cancelled
    with two claims in flight, one then released (it joins the
    cancellation) and one completed. Workers alternate ``w0``/``w1``.
    """
    cost = len(GOLDEN_CONFIG.falts())
    store = _open_store(root, policies=(TenantPolicy("carol", max_captures=cost),))

    def submit(tenant, machines, bands=None, **kwargs):
        return store.submit(
            tenant=tenant, machines=machines, pairs=ONE_PAIR, config=GOLDEN_CONFIG,
            bands=bands, **kwargs,
        )

    jobs = {
        "fail": submit("alice", MACHINES, max_shard_retries=1),
        "release": submit("bob", MACHINES[:1], bands=THREE_BANDS),
        "capped": submit("carol", MACHINES),
        "cancel": submit("bob", MACHINES[:1], bands=THREE_BANDS),
    }
    released = False
    held = None  # the cancel job's first claim, kept in flight
    step = 0
    while True:
        worker = f"w{step % 2}"
        step += 1
        claimed = store.claim(worker)
        if claimed is None:
            break
        job_id, shard_id = claimed.job_id, claimed.spec.shard_id
        if job_id == jobs["fail"] and claimed.spec.machine == MACHINES[0]:
            store.fail_shard(job_id, shard_id, "error", f"boom at step {step}", worker)
            continue
        if job_id == jobs["release"] and not released:
            released = True
            store.release_shard(job_id, shard_id, worker, "worker shutting down")
            continue
        if job_id == jobs["cancel"] and held is None:
            held = (claimed, worker)
            continue
        if job_id == jobs["cancel"] and store.job_state(job_id) != CANCELLING:
            assert store.cancel(job_id) == CANCELLING
            first, first_worker = held
            store.release_shard(job_id, first.spec.shard_id, first_worker, "worker shutting down")
        store.complete_shard(job_id, shard_id, stub_result(claimed.spec), worker)
    return store, jobs


def _golden_digests(root, store, jobs):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    digests = {"store.jsonl": sha((root / "store.jsonl").read_bytes())}
    for name, job_id in jobs.items():
        manifest = root / "jobs" / job_id / "manifest" / "manifest.jsonl"
        digests[f"{name}/manifest.jsonl"] = sha(manifest.read_bytes())
        report = store.job_report(job_id).to_dict()
        report.pop("telemetry")
        digests[f"{name}/report"] = sha(json.dumps(report, sort_keys=True).encode("utf-8"))
    return digests


class TestJournalGolden:
    def test_schedule_settles_every_job_as_planned(self, tmp_path):
        store, jobs = _golden_schedule(tmp_path / "store")
        states = {name: store.job_status(job_id) for name, job_id in jobs.items()}
        assert {name: status["state"] for name, status in states.items()} == {
            "fail": COMPLETED, "release": COMPLETED, "capped": COMPLETED, "cancel": CANCELLED,
        }
        assert sorted(states["fail"]["shards"].values()) == ["abandoned", "completed"]
        assert states["fail"]["n_failures"] == 2
        assert sorted(states["capped"]["shards"].values()) == ["completed", "skipped"]
        assert sorted(states["cancel"]["shards"].values()) == [
            "cancelled", "cancelled", "completed",
        ]
        assert store.worker_stats()["w0"]["released"] + store.worker_stats()["w1"][
            "released"
        ] == 2

    def test_journal_and_report_bytes_match_pinned_digests(self, tmp_path):
        root = tmp_path / "store"
        store, jobs = _golden_schedule(root)
        assert _golden_digests(root, store, jobs) == JOURNAL_GOLDEN

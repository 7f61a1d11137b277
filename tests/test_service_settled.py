"""Service tier: settled jobs leave memory, and the scheduler skips them.

A COMPLETED or CANCELLED job keeps only its spec, events path, per-shard
status map, counters and merged metrics in the store; its results and
ledger live in its manifest and are read back for a report. These tests
pin the two sides of that trade: what a settled job answers is
byte-identical to what the in-memory job answered, listing jobs reads no
manifest, and what a job costs stays a few kilobytes however many jobs
the service has finished. The scheduler's snapshot walks only
unsettled jobs, which must not change a single decision.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro import FaseConfig
from repro.service import FairShareScheduler, FaseService, JobStore, ServiceClient, TenantPolicy
from repro.service.queue import _JobState, _SettledJob
from repro.survey.chaos import stub_result
from repro.survey.shards import run_shard

pytestmark = pytest.mark.service

MACHINES = ("corei7_desktop", "turionx2_laptop")
ONE_PAIR = (("LDM", "LDL1"),)
THREE_BANDS = ((0.0, 3e4), (3e4, 6e4), (6e4, 9e4))


def _config(base):
    return FaseConfig(
        span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name=str(base)
    )


def _open(root, policies=(), aging_decisions=16):
    scheduler = FairShareScheduler(policies, aging_decisions=aging_decisions)
    return JobStore(root, scheduler=scheduler).open(server_name="test")


def _submit(store, config, tenant="alice", machines=MACHINES, bands=None, **kwargs):
    return store.submit(
        tenant=tenant, machines=machines, pairs=ONE_PAIR, config=config, bands=bands, **kwargs
    )


def _drain(store, shard_fn=stub_result, workers=("w0",)):
    """Claim with every worker, then complete each claim; decisions out."""
    decisions = []
    while True:
        batch = [(worker, store.claim(worker)) for worker in workers]
        batch = [(worker, claimed) for worker, claimed in batch if claimed is not None]
        if not batch:
            return decisions
        for worker, claimed in batch:
            decisions.append((claimed.tenant, claimed.spec.shard_id))
            store.complete_shard(
                claimed.job_id, claimed.spec.shard_id, shard_fn(claimed.spec), worker
            )


def _answers(store, job_id):
    """What a client can read about a job, as the bytes it would receive."""
    return (
        store.job_report(job_id).to_json(),
        json.dumps(store.job_status(job_id)),
        store.job_state(job_id),
        str(store.events_path(job_id)),
        json.dumps(store.tenant_usage(store.job_status(job_id)["tenant"])),
    )


class TestSettledJobsAnswerFromTheirManifest:
    def _mixed_jobs(self, store, tmp_path):
        """One job per terminal path: clean, real shards, abandoned,
        skipped by a capture ceiling, cancelled with a result in flight."""
        config = _config(tmp_path)
        jobs = [_submit(store, config)]
        _drain(store)
        real = FaseConfig(span_high=4e5, fres=50.0, name="settled real shards")
        jobs.append(_submit(store, real, machines=MACHINES[:1], bands=2, seed=3))
        _drain(store, shard_fn=run_shard)
        jobs.append(_submit(store, config, machines=MACHINES[:1], max_shard_retries=0))
        claimed = store.claim("w0")
        store.fail_shard(jobs[-1], claimed.spec.shard_id, "error", "boom", "w0")
        jobs.append(_submit(store, config, tenant="capped", bands=THREE_BANDS))
        _drain(store)
        jobs.append(_submit(store, config, tenant="bob"))
        claimed = store.claim("w1")
        store.cancel(jobs[-1])
        store.complete_shard(jobs[-1], claimed.spec.shard_id, stub_result(claimed.spec), "w1")
        return jobs

    def test_evicted_answers_are_byte_identical(self, tmp_path, monkeypatch):
        cost = len(_config(tmp_path).falts())
        store = _open(tmp_path / "store", policies=(TenantPolicy("capped", max_captures=cost),))
        with monkeypatch.context() as patch:
            patch.setattr(JobStore, "_evict_locked", lambda self, job: None)
            jobs = self._mixed_jobs(store, tmp_path)
            before = {job_id: _answers(store, job_id) for job_id in jobs}
        assert all(isinstance(store.jobs[job_id], _JobState) for job_id in jobs)
        for job_id in jobs:
            with store._lock:
                store._evict_locked(store.jobs[job_id])
        assert all(isinstance(store.jobs[job_id], _SettledJob) for job_id in jobs)
        assert {job_id: _answers(store, job_id) for job_id in jobs} == before
        states = [json.loads(before[job_id][1])["state"] for job_id in jobs]
        assert states == ["completed"] * 4 + ["cancelled"]
        # And a restarted store (which replays into settled jobs) agrees.
        resumed = _open(tmp_path / "store")
        assert {job_id: _answers(resumed, job_id)[:4] for job_id in jobs} == {
            job_id: answers[:4] for job_id, answers in before.items()
        }

    def test_terminal_jobs_are_evicted_on_the_transition(self, tmp_path):
        store = _open(tmp_path / "store")
        job_id = _submit(store, _config(tmp_path))
        assert isinstance(store.jobs[job_id], _JobState)
        _drain(store)
        assert isinstance(store.jobs[job_id], _SettledJob)
        assert store.all_settled() and not store._unsettled

    def test_a_late_result_on_a_cancelled_job_is_kept(self, tmp_path):
        """A reaped worker's result landing after the job settled: the
        job is revived from its manifest, records it, and settles again."""
        store = _open(tmp_path / "store")
        job_id = _submit(store, _config(tmp_path), machines=MACHINES[:1])
        claimed = store.claim("w0")
        store.reap_stale_claims(max_age_s=0.0, now=float("inf"))
        store.cancel(job_id)
        assert isinstance(store.jobs[job_id], _SettledJob)
        store.complete_shard(job_id, claimed.spec.shard_id, stub_result(claimed.spec), "w0")
        assert isinstance(store.jobs[job_id], _SettledJob)
        status = store.job_status(job_id)
        assert status["state"] == "cancelled"
        assert status["n_completed"] == 1
        assert status["shards"] == {claimed.spec.shard_id: "completed"}
        assert status["workers"] == {"w0": 1}
        assert store.job_report(job_id).n_completed == 1
        resumed = _open(tmp_path / "store")
        assert resumed.job_status(job_id) == status


class TestListingSettledJobs:
    def test_listing_reads_no_manifest(self, tmp_path, monkeypatch):
        """``GET /jobs`` over a hundred finished jobs answers from memory:
        its cost must not grow with manifest reads per finished job."""
        with FaseService(tmp_path / "svc", workers=0) as service:
            service.start()
            store = service.store
            config = _config(tmp_path)
            for index in range(100):
                _submit(store, config, tenant=("alice", "bob")[index % 2])
                _drain(store, workers=("w0", "w1"))
            host, port = service.address
            client = ServiceClient(f"http://{host}:{port}")
            with monkeypatch.context() as patch:
                patch.setattr(JobStore, "_evict_locked", lambda self, job: None)
                live = _submit(store, config)
                _drain(store)
                expected = client.job(live)
            with store._lock:
                store._evict_locked(store.jobs[live])

            def no_manifest(self, spec):
                raise AssertionError(f"read the manifest of {spec.job_id}")

            monkeypatch.setattr(JobStore, "_restore", no_manifest)
            jobs = client.jobs()
            assert len(jobs) == 101
            assert all(job["state"] == "completed" for job in jobs)
            assert all(job["metrics"] == jobs[0]["metrics"] for job in jobs)
            assert jobs[-1] == expected == client.job(live)


class TestFinishedJobsCostKilobytes:
    def test_retained_heap_per_finished_job(self, tmp_path):
        store = _open(tmp_path / "store")
        config = _config(tmp_path)

        def run_jobs(n):
            for _ in range(n):
                _submit(store, config)
                _drain(store, workers=("w0", "w1"))

        run_jobs(20)  # warm every cache and free list first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_jobs(200)
            gc.collect()
            per_job = (tracemalloc.get_traced_memory()[0] - before) / 200
        finally:
            tracemalloc.stop()
        # About 8 KB per two-shard stub job (15 KB with real shard
        # results) while every finished job stayed in memory.
        assert per_job <= 5_000, per_job


class TestSnapshotWalksUnsettledJobsOnly:
    def _contend(self, store, config):
        """Three tenants with weights, a priority, a quota and aging."""
        jobs = [
            _submit(store, config, tenant="alice", bands=THREE_BANDS),
            _submit(store, config, tenant="bob", bands=THREE_BANDS),
            _submit(store, config, tenant="carol", machines=MACHINES[:1], bands=THREE_BANDS),
            _submit(store, config, tenant="alice", machines=MACHINES[:1]),
        ]
        return jobs, _drain(store, workers=("w0", "w1"))

    def test_decisions_identical_with_finished_jobs_in_front(self, tmp_path):
        policies = (
            TenantPolicy("alice", weight=2.0),
            TenantPolicy("bob", weight=1.0, max_concurrent_shards=1),
            TenantPolicy("carol", priority=1),
        )
        config = _config(tmp_path)
        fresh = _open(tmp_path / "fresh", policies=policies, aging_decisions=3)
        _, expected = self._contend(fresh, config)

        busy = _open(tmp_path / "busy", policies=policies, aging_decisions=3)
        for _ in range(100):  # finished work of an unrelated tenant
            _submit(busy, config, tenant="zed", machines=MACHINES[:1])
            _drain(busy)
        for index in range(100):  # cancelled before any claim: no charge
            busy.cancel(_submit(busy, config, tenant=("alice", "bob", "carol")[index % 3]))
        assert len(busy.jobs) == 200 and busy.all_settled()
        jobs, decisions = self._contend(busy, config)
        assert decisions == expected
        assert all(busy.job_status(job_id)["state"] == "completed" for job_id in jobs)

    def test_snapshot_lists_only_unsettled_jobs(self, tmp_path):
        store = _open(tmp_path / "store")
        config = _config(tmp_path)
        for _ in range(5):
            _submit(store, config, tenant="zed")
            _drain(store)
        live = _submit(store, config, tenant="alice")
        snapshot = store.snapshot()
        assert list(snapshot["tenants"]) == ["alice"]
        assert snapshot["tenants"]["alice"]["jobs"] == [{"job_id": live, "has_pending": True}]

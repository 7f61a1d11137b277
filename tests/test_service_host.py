"""Service tier, worker-host edition: remote hosts and the live tail.

The tentpole contract under test: a :class:`WorkerHost` process drains
shards over plain HTTP from a *hub-only* service (``workers=0``) with
the service staying the single store writer — no shard lost, none run
twice, every completion attributed to the host that ran it. Alongside
it, the ``/events`` endpoint's damage-tolerance guarantees: a torn
final line is withheld (never served as garbage), ``?offset=`` resumes
without replay or loss across reconnects, and ``?follow=1`` live-tails
a job to its terminal state while the fleet is still appending.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro import FaseConfig
from repro.errors import ServiceError
from repro.journalutil import read_complete_lines
from repro.service import ClaimedShard, FaseService, ServiceClient, WorkerHost
from repro.survey.chaos import count_attempts, stub_result, well_behaved_shard
from repro.survey.engine import plan_shards
from repro.survey.shards import shard_spec_from_dict, shard_spec_to_dict

pytestmark = pytest.mark.service

PAIR_NAMES = [["LDM", "LDL1"]]
FOUR_BANDS = [[0.0, 2.5e5], [2.5e5, 5e5], [5e5, 7.5e5], [7.5e5, 1e6]]


def _scratch_config(base):
    """The chaos-stub idiom: ``config.name`` smuggles the scratch dir."""
    return FaseConfig(
        span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3,
        name=str(base),
    )


def _hub(tmp_path, **kwargs):
    """A hub-only service: every shard must come from a remote host."""
    return FaseService(tmp_path / "svc", workers=0, **kwargs)


def _client(service):
    host, port = service.address
    return ServiceClient(f"http://{host}:{port}")


def _url(service):
    host, port = service.address
    return f"http://{host}:{port}"


def _host(service, name, **kwargs):
    kwargs.setdefault("shard_fn", well_behaved_shard)
    kwargs.setdefault("idle_exit_s", 0.6)
    kwargs.setdefault("poll_interval_s", 0.02)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    return WorkerHost(_url(service), name=name, **kwargs)


def _slow_shard(spec):
    """Module-level (picklable) stub that keeps the job running a while."""
    time.sleep(0.15)
    return stub_result(spec)


def _exploding_shard(spec):
    raise RuntimeError("synthetic shard explosion")


class TestWorkerHostEndToEnd:
    def test_one_host_drains_a_hub_only_service(self, tmp_path):
        scratches = {}
        for tenant in ("alice", "bob"):
            scratches[tenant] = tmp_path / tenant
            scratches[tenant].mkdir()
        with _hub(tmp_path) as service:
            service.start()
            client = _client(service)
            jobs = {
                tenant: client.submit(
                    tenant, machines=["corei7_desktop", "turionx2_laptop"],
                    pairs=PAIR_NAMES, config=_scratch_config(scratch),
                )
                for tenant, scratch in scratches.items()
            }
            summary = _host(service, "host-a").run()
            assert summary == {"host": "host-a", "completed": 4, "failed": 0}
            for tenant, job_id in jobs.items():
                status = client.job(job_id)
                assert status["state"] == "completed"
                # Every completion is attributed to the remote host.
                assert status["workers"] == {"host-a": 2}
                report = client.result(job_id)
                assert report.n_completed == 2
                names = [event["name"] for event in client.events(job_id)]
                assert names[0] == "job-submitted"
                assert names[-1] == "job-completed"
                assert "shard-claimed" in names and "shard-finished" in names
                # Remote completions carry their wall-clock attribution.
                finished = [
                    event for event in client.events(job_id)
                    if event["name"] == "shard-finished"
                ]
                assert all(e["attrs"]["worker"] == "host-a" for e in finished)
                assert all(e["attrs"]["elapsed_s"] >= 0.0 for e in finished)
                # Shard purity held trivially: exactly one attempt each.
                for shard_id in status["shards"]:
                    assert count_attempts(scratches[tenant], shard_id) == 1
            stats = client.workers()["host-a"]
            assert stats["completed"] == 4
            assert stats["live_claims"] == 0
            assert stats["heartbeat_age_s"] is not None

    def test_two_hosts_share_a_backlog_without_duplication(self, tmp_path):
        config = _scratch_config(tmp_path)
        with _hub(tmp_path) as service:
            service.start()
            client = _client(service)
            job_id = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=config, bands=FOUR_BANDS,
            )
            hosts = [_host(service, name) for name in ("host-a", "host-b")]
            summaries = []
            threads = [
                threading.Thread(target=lambda h=h: summaries.append(h.run()))
                for h in hosts
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            status = client.job(job_id)
            assert status["state"] == "completed"
            assert sum(s["completed"] for s in summaries) == 4
            assert sum(status["workers"].values()) == 4
            for shard_id in status["shards"]:
                assert count_attempts(tmp_path, shard_id) == 1

    def test_max_shards_bounds_a_host_lifetime(self, tmp_path):
        config = _scratch_config(tmp_path)
        with _hub(tmp_path) as service:
            service.start()
            client = _client(service)
            job_id = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=config, bands=FOUR_BANDS,
            )
            first = _host(service, "bounded", max_shards=2).run()
            assert first["completed"] == 2
            assert client.job(job_id)["state"] == "running"
            second = _host(service, "finisher").run()
            assert second["completed"] == 2
            assert client.job(job_id)["state"] == "completed"

    def test_host_failures_ride_the_ledger(self, tmp_path):
        config = _scratch_config(tmp_path)
        with _hub(tmp_path) as service:
            service.start()
            client = _client(service)
            job_id = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=config, max_shard_retries=0,
            )
            summary = _host(service, "doomed", shard_fn=_exploding_shard).run()
            assert summary["failed"] == 1
            status = client.wait(job_id, timeout_s=10.0)
            assert status["state"] == "completed"
            assert list(status["shards"].values()) == ["abandoned"]
            report = client.result(job_id)
            assert report.ledger.abandoned
            events = client.events(job_id)
            failed = [e for e in events if e["name"] == "shard-failed"]
            assert failed and failed[0]["attrs"]["kind"] == "error"
            assert client.workers()["doomed"]["failed"] == 1

    def test_localized_heartbeat_paths_are_job_namespaced(self, tmp_path):
        host = WorkerHost(
            "http://127.0.0.1:1", name="h", workdir=tmp_path, shard_timeout_s=5.0
        )
        spec = plan_shards(machines=["corei7_desktop"], seed=1)[0]
        twins = [
            host._localize(
                ClaimedShard(job_id=job_id, tenant="t", spec=spec, max_shard_retries=2)
            )
            for job_id in ("job-000001", "job-000002")
        ]
        paths = {twin.heartbeat_path for twin in twins}
        assert len(paths) == 2
        assert all(str(tmp_path) in path for path in paths)


class TestClaimReportEndpoints:
    @pytest.fixture()
    def service(self, tmp_path):
        with _hub(tmp_path) as svc:
            svc.start()
            yield svc

    def test_claim_on_an_empty_store_is_none(self, service):
        assert _client(service).claim("idle-host") is None

    def test_claim_travels_as_a_revived_shard_spec(self, service, tmp_path):
        client = _client(service)
        job_id = client.submit(
            "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
            config=_scratch_config(tmp_path), seed=7,
        )
        claimed = client.claim("host-a")
        assert claimed.job_id == job_id
        assert claimed.tenant == "alice"
        assert claimed.max_shard_retries == 2
        assert claimed.spec.machine == "corei7_desktop"
        assert claimed.spec.seed == 7
        # Host-local plumbing never crosses the wire.
        assert claimed.spec.heartbeat_path is None
        # Report it back by hand; the job completes.
        client.report_result(
            job_id, claimed.spec.shard_id, stub_result(claimed.spec),
            "host-a", elapsed_s=0.25,
        )
        assert client.job(job_id)["state"] == "completed"

    def test_claim_needs_a_worker_name(self, service):
        client = _client(service)
        for body in ({}, {"worker": ""}, {"worker": 7}):
            with pytest.raises(ServiceError, match="worker name"):
                client._json("POST", "/claims", body)

    def test_reports_for_unknown_jobs_and_shards_are_404(self, service, tmp_path):
        client = _client(service)
        result = stub_result(plan_shards(machines=["corei7_desktop"])[0])
        with pytest.raises(ServiceError, match="404"):
            client.report_result("job-999999", result.shard_id, result, "w")
        with pytest.raises(ServiceError, match="404"):
            client.report_failure("job-999999", "nope", "shard-error", "x", "w")
        job_id = client.submit(
            "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
            config=_scratch_config(tmp_path),
        )
        with pytest.raises(ServiceError, match="has no shard"):
            client.report_failure(job_id, "no-such-shard", "shard-error", "x", "w")

    def test_mismatched_result_shard_id_is_400(self, service, tmp_path):
        client = _client(service)
        job_id = client.submit(
            "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
            config=_scratch_config(tmp_path),
        )
        claimed = client.claim("host-a")
        result = stub_result(claimed.spec)
        with pytest.raises(ServiceError) as excinfo:
            client.report_result(job_id, "some-other-shard", result, "host-a")
        assert excinfo.value.status == 400
        assert "not the addressed" in str(excinfo.value)

    def test_result_report_needs_a_result_object(self, service, tmp_path):
        client = _client(service)
        job_id = client.submit(
            "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
            config=_scratch_config(tmp_path),
        )
        claimed = client.claim("host-a")
        shard = urllib.parse.quote(claimed.spec.shard_id, safe="")
        path = f"/jobs/{job_id}/shards/{shard}/result"
        with pytest.raises(ServiceError, match="'result' object"):
            client._json("POST", path, {"worker": "host-a", "result": "nope"})

    def test_release_gives_the_claim_back(self, service, tmp_path):
        client = _client(service)
        job_id = client.submit(
            "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
            config=_scratch_config(tmp_path),
        )
        claimed = client.claim("host-a")
        shard_id = claimed.spec.shard_id
        assert client.job(job_id)["shards"][shard_id] == "claimed:host-a"
        client.release(job_id, shard_id, "host-a", "draining for maintenance")
        assert client.job(job_id)["shards"][shard_id] == "pending"
        events = client.events(job_id)
        released = [e for e in events if e["name"] == "shard-released"]
        assert released and "maintenance" in released[0]["attrs"]["detail"]

    def test_heartbeat_put_registers_the_worker(self, service):
        client = _client(service)
        assert client.heartbeat("lone-host") == {"worker": "lone-host", "ok": True}
        stats = client.workers()["lone-host"]
        assert stats["live_claims"] == 0
        assert stats["heartbeat_age_s"] is not None


class TestShardSpecWire:
    def test_round_trip_through_json(self, tmp_path):
        spec = plan_shards(
            machines=["corei7_desktop"], config=_scratch_config(tmp_path),
            seed=11, fault_classes=("drift", "glitch"),
        )[0]
        wire = json.loads(json.dumps(shard_spec_to_dict(spec)))
        revived = shard_spec_from_dict(wire)
        assert revived.shard_id == spec.shard_id
        assert revived.machine == spec.machine
        assert revived.pair == spec.pair
        assert revived.band == spec.band
        assert revived.seed == 11
        assert revived.fault_classes == ("drift", "glitch")
        assert revived.config == spec.config
        # Host-local fields are deliberately not wired: each host owns
        # its own scratch plumbing.
        assert revived.heartbeat_path is None
        assert revived.telemetry_jsonl is None


class TestReadCompleteLines:
    def test_missing_file_is_empty_at_the_same_offset(self, tmp_path):
        assert read_complete_lines(tmp_path / "nope.jsonl", 5) == ([], 5)

    def test_torn_tail_is_withheld_until_its_newline_lands(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"torn": ')
        lines, offset = read_complete_lines(path)
        assert lines == [b'{"a": 1}', b'{"b": 2}']
        assert offset == len(b'{"a": 1}\n{"b": 2}\n')
        # Nothing new until the line completes ...
        assert read_complete_lines(path, offset) == ([], offset)
        # ... then exactly the completed line, nothing replayed.
        with open(path, "ab") as handle:
            handle.write(b'3}\n')
        lines, end = read_complete_lines(path, offset)
        assert lines == [b'{"torn": 3}']
        assert end == path.stat().st_size

    def test_a_file_of_only_a_fragment_yields_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"no newline yet"')
        assert read_complete_lines(path) == ([], 0)


class TestEventStreaming:
    def test_snapshot_withholds_a_torn_tail_and_resumes(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=1, shard_fn=stub_result) as service:
            service.start()
            client = _client(service)
            job_id = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=_scratch_config(tmp_path),
            )
            client.wait(job_id, timeout_s=30.0)
            events_path = service.store.events_path(job_id)
            with open(events_path, "ab") as handle:
                handle.write(b'{"name": "torn-probe"')  # an append caught mid-write

            def snapshot(offset):
                with urllib.request.urlopen(
                    f"{_url(service)}/jobs/{job_id}/events?offset={offset}",
                    timeout=10.0,
                ) as response:
                    return (
                        response.read(),
                        int(response.headers["X-Fase-Events-Offset"]),
                    )

            body, resume = snapshot(0)
            assert b"torn-probe" not in body
            names = [json.loads(line)["name"] for line in body.splitlines()]
            assert names[0] == "job-submitted" and names[-1] == "job-completed"
            # The torn line lands; resuming from the header's offset
            # serves exactly the one new event — no replay, no loss.
            with open(events_path, "ab") as handle:
                handle.write(b', "x": 1}\n')
            body, end = snapshot(resume)
            assert json.loads(body) == {"name": "torn-probe", "x": 1}
            assert end == events_path.stat().st_size
            assert snapshot(end) == (b"", end)

    def test_follow_tails_a_live_job_to_its_terminal_state(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=1, shard_fn=_slow_shard) as service:
            service.start()
            client = _client(service)
            job_id = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=_scratch_config(tmp_path), bands=FOUR_BANDS,
            )
            # Tail while the fleet is still appending events.
            stream = client.stream_events(job_id)
            streamed = []
            while True:
                try:
                    streamed.append(next(stream))
                except StopIteration as stop:
                    terminal = stop.value
                    break
            assert terminal == "completed"
            # The live tail saw the whole story, in order, exactly once:
            # identical to the post-hoc snapshot.
            assert streamed == client.events(job_id)
            names = [event["name"] for event in streamed]
            assert names[0] == "job-submitted"
            assert names[-1] == "job-completed"
            assert names.count("shard-finished") == 4

    def test_follow_resumes_from_offset_without_replay_or_loss(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=1, shard_fn=_slow_shard) as service:
            service.stream_keepalive_s = 0.2
            service.start()
            client = _client(service)
            job_id = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=_scratch_config(tmp_path), bands=FOUR_BANDS,
            )
            # First connection: read a few envelopes, then drop it —
            # the torn-connection half of the resume contract.
            first, keepalives, resume = [], 0, 0
            with urllib.request.urlopen(
                f"{_url(service)}/jobs/{job_id}/events?follow=1", timeout=10.0
            ) as response:
                for raw in response:
                    envelope = json.loads(raw)
                    resume = envelope["offset"]
                    if "event" in envelope:
                        first.append(envelope["event"])
                    else:
                        keepalives += 1
                    if len(first) >= 2 and keepalives >= 1:
                        break
            # A quiet stretch between events produced keepalives, and
            # they carry the same resume offset contract as events do.
            assert keepalives >= 1
            # Second connection resumes exactly where the first died.
            rest = client.stream_events(job_id, offset=resume)
            while True:
                try:
                    first.append(next(rest))
                except StopIteration as stop:
                    assert stop.value == "completed"
                    break
            assert first == client.events(job_id)

    def test_streaming_an_unknown_job_is_404(self, tmp_path):
        with _hub(tmp_path) as service:
            service.start()
            stream = _client(service).stream_events("job-999999")
            with pytest.raises(ServiceError, match="404"):
                next(stream)

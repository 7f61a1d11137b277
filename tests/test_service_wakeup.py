"""Service tier, change-signal edition: nothing in the service polls.

The job store notifies one condition on every journal append and event.
The ``?follow=1`` tail, idle fleet workers, ``WorkerFleet.drain`` and the
``POST /claims`` long-poll all sleep on it, so each wakes within one
store write of the change it waits for, instead of on a poll interval.
Each test below times one of those wake-ups against a bound well under
the poll intervals the service used to sleep (0.1 s for the tail, the
fleet's ``poll_interval_s`` for claims).
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import FaseConfig
from repro.journalutil import iter_journal
from repro.service import FairShareScheduler, FaseService, JobStore, TenantPolicy, WorkerFleet
from repro.service import api as service_api
from repro.service.host import WorkerHost
from repro.survey.chaos import stub_result

pytestmark = pytest.mark.service


def _config(base):
    return FaseConfig(
        span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name=str(base)
    )


def _submit(store, base, tenant="alice"):
    """A one-shard job, straight through the store."""
    return store.submit(
        tenant=tenant, machines=("corei7_desktop",), pairs=(("LDM", "LDL1"),),
        config=_config(base),
    )


def _url(service):
    host, port = service.address
    return f"http://{host}:{port}"


class _Tail(threading.Thread):
    """Reads a ``?follow=1`` stream, stamping every envelope on arrival."""

    def __init__(self, url):
        super().__init__(daemon=True)
        self.url = url
        self.envelopes = []  # (perf_counter, envelope)
        self.closed_at = None
        self.error = None

    def run(self):
        try:
            with urllib.request.urlopen(self.url, timeout=30.0) as response:
                for raw in response:
                    self.envelopes.append((time.perf_counter(), json.loads(raw)))
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc
        self.closed_at = time.perf_counter()

    def wait_for(self, predicate, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if any(predicate(envelope) for _, envelope in list(self.envelopes)):
                return
            time.sleep(0.005)
        raise AssertionError(f"no matching envelope within {timeout_s}s: {self.envelopes}")


def _event_named(name):
    return lambda envelope: envelope.get("event", {}).get("name") == name


class TestFollowStreamWakesOnChange:
    def test_a_job_terminal_at_connect_ends_on_the_first_pass(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=1, shard_fn=stub_result) as service:
            service.start()
            job_id = _submit(service.store, tmp_path)
            assert service.fleet.drain(timeout_s=30.0)
            url = f"{_url(service)}/jobs/{job_id}/events?follow=1"
            elapsed = []
            for _ in range(3):
                start = time.perf_counter()
                with urllib.request.urlopen(url, timeout=10.0) as response:
                    envelopes = [json.loads(raw) for raw in response]
                elapsed.append(time.perf_counter() - start)
                assert envelopes[-1]["end"] == "completed"
                assert envelopes[-2]["event"]["name"] == "job-completed"
            # The old tail slept one 0.1 s poll before it could send the
            # end marker even here; the drain-and-end pass is one read.
            assert min(elapsed) < 0.05, elapsed

    def test_a_live_tail_ends_within_one_store_write(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=0) as service:
            service.start()
            store = service.store
            job_id = _submit(store, tmp_path)
            claimed = store.claim("w0")
            tail = _Tail(f"{_url(service)}/jobs/{job_id}/events?follow=1")
            tail.start()
            tail.wait_for(_event_named("shard-claimed"))
            time.sleep(0.05)  # the tail is asleep on the change signal now
            store.complete_shard(job_id, claimed.spec.shard_id, stub_result(claimed.spec), "w0")
            written = time.perf_counter()
            tail.join(timeout=10.0)
            assert tail.error is None
            (ended_at, end), = [(t, e) for t, e in tail.envelopes if "end" in e]
            assert end["end"] == "completed"
            assert tail.envelopes[-2][1]["event"]["name"] == "job-completed"
            assert ended_at - written < 0.05, ended_at - written

    def test_stop_wakes_an_open_tail_at_once(self, tmp_path):
        service = FaseService(tmp_path / "svc", workers=0)
        service.start()
        try:
            job_id = _submit(service.store, tmp_path)  # never runs: no workers
            tail = _Tail(f"{_url(service)}/jobs/{job_id}/events?follow=1")
            tail.start()
            tail.wait_for(_event_named("job-submitted"))
            time.sleep(0.05)
        finally:
            stopping = time.perf_counter()
            service.stop()
        tail.join(timeout=10.0)
        assert tail.closed_at is not None
        assert not any("end" in envelope for _, envelope in tail.envelopes)
        # Well inside the 2 s keepalive the tail was sleeping towards.
        assert tail.closed_at - stopping < 0.5, tail.closed_at - stopping

    def test_a_tail_sleeps_through_other_jobs_traffic(self, tmp_path, monkeypatch):
        """Another job's events wake the tail only to compare its own
        job's event count: no state lookup, no read of its events log."""
        reads = []
        real_read = service_api.read_complete_lines

        def counting_read(path, offset):
            reads.append(path)
            return real_read(path, offset)

        monkeypatch.setattr(service_api, "read_complete_lines", counting_read)
        with FaseService(tmp_path / "svc", workers=0) as service:
            service.start()
            store = service.store
            quiet = _submit(store, tmp_path)
            held = store.claim("w9")  # the quiet job's one shard, held
            tail = _Tail(f"{_url(service)}/jobs/{quiet}/events?follow=1")
            tail.start()
            tail.wait_for(_event_named("shard-claimed"))
            time.sleep(0.05)  # the tail is asleep on the change signal now
            reads_at_rest = len(reads)
            busy = _submit(store, tmp_path, tenant="bob")
            for _ in range(25):  # fifty events and journal appends of another job
                claimed = store.claim("w0")
                store.release_shard(busy, claimed.spec.shard_id, "w0", "test")
            time.sleep(0.05)
            woken = len(reads) - reads_at_rest
            store.release_shard(quiet, held.spec.shard_id, "w9", "test")
            store.cancel(quiet)
            tail.join(timeout=10.0)
            assert tail.error is None
            assert tail.envelopes[-1][1]["end"] == "cancelled"
            # Before the per-job count every store change re-read the log.
            assert woken == 0, woken

    def test_keepalives_arrive_every_keepalive_interval(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=0) as service:
            service.stream_keepalive_s = 0.2
            service.start()
            job_id = _submit(service.store, tmp_path)
            url = f"{_url(service)}/jobs/{job_id}/events?follow=1"
            stamps = []
            with urllib.request.urlopen(url, timeout=10.0) as response:
                for raw in response:
                    envelope = json.loads(raw)
                    if "event" in envelope:
                        continue
                    assert set(envelope) == {"offset"}
                    stamps.append(time.perf_counter())
                    if len(stamps) == 4:
                        break
            gaps = [b - a for a, b in zip(stamps, stamps[1:])]
            assert all(0.15 < gap < 0.6 for gap in gaps), gaps


class TestClaimsWakeOnWork:
    def test_an_idle_fleet_claims_on_submit_not_on_its_poll_interval(self, tmp_path):
        store = JobStore(tmp_path / "store").open()
        fleet = WorkerFleet(store, workers=2, shard_fn=stub_result, poll_interval_s=5.0)
        fleet.start()
        try:
            time.sleep(0.1)  # both workers found nothing and went idle
            start = time.perf_counter()
            job_id = _submit(store, tmp_path)
            assert fleet.drain(timeout_s=10.0)
            # The workers' idle waits are capped at 5 s; the submit and
            # the terminal transition woke the claim and the drain.
            assert time.perf_counter() - start < 1.0
            assert store.job_state(job_id) == "completed"
        finally:
            fleet.stop()

    def test_idle_workers_spend_no_claims_on_an_empty_queue(self, tmp_path):
        store = JobStore(tmp_path / "store").open()
        claims = []
        real_claim = store.claim

        def counting_claim(worker):
            claimed = real_claim(worker)
            claims.append(claimed)
            return claimed

        store.claim = counting_claim
        fleet = WorkerFleet(store, workers=2, shard_fn=stub_result, poll_interval_s=0.01)
        fleet.start()
        try:
            time.sleep(0.3)  # thirty poll intervals of an empty queue
            assert len(claims) <= 2, len(claims)  # one look each, then asleep
            _submit(store, tmp_path)
            assert fleet.drain(timeout_s=10.0)
            time.sleep(0.1)
            hits = [claimed for claimed in claims if claimed is not None]
            assert len(hits) == 1
            # After the job: at most one miss per worker (the peer that
            # woke with it), and none from the worker that ran it.
            assert len(claims) <= 2 + 1 + 1, claims
        finally:
            fleet.stop()

    def test_claims_long_poll_returns_work_submitted_while_waiting(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=0) as service:
            service.start()
            url = f"{_url(service)}/claims"
            answers = []

            def long_poll():
                request = urllib.request.Request(
                    url,
                    data=json.dumps({"worker": "host-a", "wait_s": 1.5}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=10.0) as response:
                    answers.append((time.perf_counter(), json.loads(response.read())))

            poller = threading.Thread(target=long_poll, daemon=True)
            poller.start()
            time.sleep(0.2)
            submitted = time.perf_counter()
            job_id = _submit(service.store, tmp_path)
            poller.join(timeout=10.0)
            (answered, payload), = answers
            assert payload["claim"]["job_id"] == job_id
            assert answered - submitted < 0.5, answered - submitted

    def test_claims_long_poll_is_capped_by_the_keepalive(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=0) as service:
            service.stream_keepalive_s = 0.3
            service.start()
            request = urllib.request.Request(
                f"{_url(service)}/claims",
                data=json.dumps({"worker": "host-a", "wait_s": 30.0}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            start = time.perf_counter()
            with urllib.request.urlopen(request, timeout=10.0) as response:
                payload = json.loads(response.read())
            elapsed = time.perf_counter() - start
            assert payload == {"claim": None}
            assert 0.25 < elapsed < 2.0, elapsed

    def test_a_host_paces_a_service_that_answers_at_once(self, tmp_path):
        """A service without the long-poll (or one that is stopping)
        answers an empty claim at once; the host must still leave one
        poll interval between two claims, not re-ask in a tight loop."""
        claims = []

        class NoWork(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _answer(self, payload):
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                if self.path == "/claims":
                    claims.append(time.monotonic())
                body = json.dumps(payload).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                self._answer({"claim": None})

            def do_PUT(self):
                self._answer({})

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), NoWork)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            host, port = server.server_address
            worker = WorkerHost(
                f"http://{host}:{port}", name="host-a", workdir=tmp_path / "host",
                poll_interval_s=0.05, idle_exit_s=0.5,
            )
            assert worker.run()["completed"] == 0
        finally:
            server.shutdown()
            server.server_close()
        # 0.5 s of idling at one claim per 0.05 s: about ten claims.
        assert 5 <= len(claims) <= 15, len(claims)

    def test_every_work_transition_offers_work(self, tmp_path):
        """Idle hosts claim only when the work version moves, so each
        transition that makes a shard claimable must move it — and one
        that leaves nothing pending must not."""
        scheduler = FairShareScheduler((TenantPolicy("bob", max_concurrent_shards=1),))
        store = JobStore(tmp_path / "store", scheduler=scheduler).open(server_name="test")

        def moves(transition):
            before = store._work_version
            transition()
            return store._work_version != before

        job_id = None

        def submit():
            nonlocal job_id
            job_id = store.submit(
                tenant="bob", machines=("corei7_desktop", "turionx2_laptop"),
                pairs=(("LDM", "LDL1"),), config=_config(tmp_path),
            )

        assert moves(submit)
        first = store.claim("w0")
        assert first is not None and store.claim("w1") is None  # bob's one slot
        # Completing frees bob's slot while the second shard is pending.
        assert moves(lambda: store.complete_shard(
            job_id, first.spec.shard_id, stub_result(first.spec), "w0"
        ))
        claims = []
        # The last pending shard claimed: nothing left to offer.
        assert not moves(lambda: claims.append(store.claim("w0")))
        second = claims[0]
        assert moves(lambda: store.release_shard(job_id, second.spec.shard_id, "w0", "test"))
        second = store.claim("w0")
        assert moves(lambda: store.reap_stale_claims(max_age_s=0.0, now=float("inf")))
        second = store.claim("w0")
        assert moves(lambda: store.fail_shard(job_id, second.spec.shard_id, "error", "x", "w0"))
        second = store.claim("w0")
        # Its last shard done, the job settles with nothing to offer.
        assert not moves(lambda: store.complete_shard(
            job_id, second.spec.shard_id, stub_result(second.spec), "w0"
        ))
        assert store.job_state(job_id) == "completed"
        # A claim that leaves a shard pending offers it to the peers.
        submit()
        assert moves(lambda: store.claim("w0"))
        # A restart hands the dead server's claim back: the reopened
        # store offers it (replay alone moves no work version).
        reopened = JobStore(tmp_path / "store", scheduler=scheduler).open(server_name="again")
        assert reopened._work_version > 0

    def test_no_wakeup_is_lost_under_contention(self, tmp_path):
        """More workers than cores, three submitters, a tiny switch
        interval and a 30 s idle cap: a lost wake-up would park a worker
        for the whole cap and blow the drain deadline."""
        store = JobStore(tmp_path / "store").open()
        fleet = WorkerFleet(store, workers=4, shard_fn=stub_result, poll_interval_s=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fleet.start()

            def submit_some(tenant):
                for _ in range(8):
                    store.submit(
                        tenant=tenant, machines=("corei7_desktop", "turionx2_laptop"),
                        pairs=(("LDM", "LDL1"),), config=_config(tmp_path), bands=2,
                    )
                    time.sleep(0.002)

            submitters = [
                threading.Thread(target=submit_some, args=(tenant,), daemon=True)
                for tenant in ("alice", "bob", "carol")
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=20.0)
                assert not thread.is_alive()
            assert fleet.drain(timeout_s=20.0)
        finally:
            stopping = time.perf_counter()
            fleet.stop(timeout_s=10.0)
            sys.setswitchinterval(interval)
        assert time.perf_counter() - stopping < 2.0  # stop wakes the idle waits
        assert all(store.job_state(job_id) == "completed" for job_id in store.job_ids())
        finished = [
            (record["job_id"], record["shard_id"])
            for record, _ in iter_journal(store.log_path)
            if record and record["kind"] == "progress" and record["status"] == "completed"
        ]
        assert len(finished) == len(set(finished)) == 3 * 8 * 4  # every shard, once

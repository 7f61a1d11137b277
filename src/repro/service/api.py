"""The stdlib-only HTTP face of the campaign service.

:class:`FaseService` composes the durable store, the fair-share
scheduler, and (optionally) an in-process worker fleet, and serves a
JSON API from a ``ThreadingHTTPServer`` — no framework, no extra
dependency:

=========  ================================  ===============================
method     path                              body / response
=========  ================================  ===============================
``POST``   ``/jobs``                         submit a campaign spec →
                                             ``{job_id}``
``GET``    ``/jobs``                         every job's status summary
``GET``    ``/jobs/{id}``                    status + per-shard progress +
                                             merged metrics
``GET``    ``/jobs/{id}/result``             the aggregated
                                             :class:`~repro.survey.SurveyReport`
                                             as JSON (never a pickle)
``POST``   ``/jobs/{id}/cancel``             cooperative cancellation
``GET``    ``/jobs/{id}/events``             the job's event stream;
                                             ``?offset=N`` resumes,
                                             ``?follow=1`` live-tails
                                             (chunked NDJSON envelopes)
``POST``   ``/claims``                       claim one shard for a remote
                                             worker host → spec as JSON;
                                             ``{"wait_s": s}`` long-polls
``POST``   ``/jobs/{id}/shards/{s}/result``  report a finished shard
``POST``   ``/jobs/{id}/shards/{s}/fail``    report a failed shard
``POST``   ``/jobs/{id}/shards/{s}/release`` give a claim back uncharged
``PUT``    ``/workers/{name}/heartbeat``     worker-host liveness beat
``GET``    ``/workers``                      per-worker lifecycle counters
``GET``    ``/tenants/{id}``                 quota usage
=========  ================================  ===============================

The claim/report endpoints are what turn the service into a *hub* for
:class:`~repro.service.host.WorkerHost` processes: remote hosts run the
shards, but every store transition still happens here, in the single
writer process — the journal's crash-safety story is unchanged. A claim
that finds no work may wait for some: with ``"wait_s"`` in its body the
request is held, claiming again each time the store signals claimable
work (a submit, a release, a requeue), for at most ``wait_s`` capped at
:attr:`FaseService.stream_keepalive_s`, the longest the service holds
any connection silent.

Every response is JSON except ``/events`` (``application/x-ndjson``).
Unknown jobs/tenants are 404, malformed requests 400 — always with an
``{"error": ...}`` body.

**Event streaming.** A plain ``GET /jobs/{id}/events`` answers a
snapshot of every *complete* line from ``?offset=`` (default 0) with
the next resume offset in the ``X-Fase-Events-Offset`` header — a torn
final line (an append caught mid-write) is withheld until its newline
lands, never served as garbage. With ``?follow=1`` the response is a
chunked NDJSON live tail of envelopes::

    {"offset": 123, "event": {...}}   # one event; offset = resume point
    {"offset": 123}                   # keepalive (nothing new)
    {"offset": 456, "end": "completed"}  # job went terminal; stream done

Offsets are byte offsets into the job's events log, valid across
reconnects — pass the last seen ``offset`` back as ``?offset=`` to
resume without replay or loss. The tail does not poll: it sleeps on the
job store's change signal and wakes within one store write of a new
event, sending the end marker on the same pass that drains the terminal
event (at once for a job already terminal at connect).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.config import FaseConfig
from ..errors import ReproError, ServiceError
from ..journalutil import read_complete_lines
from ..survey.manifest import shard_result_from_dict
from ..survey.report import SHARD_ERROR
from ..survey.shards import shard_spec_to_dict
from .queue import CANCELLED, COMPLETED, JobStore
from .scheduler import FairShareScheduler
from .workers import WorkerFleet, start_reaper

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(FaseConfig)}


def config_from_request(data):
    """A :class:`FaseConfig` from a (possibly partial) JSON dict.

    Unknown fields are rejected loudly — a typo'd knob silently falling
    back to its default would corrupt a campaign without a trace.
    """
    if data is None:
        return None
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ServiceError(f"unknown config field(s): {', '.join(unknown)}")
    fields = dict(data)
    if "harmonics" in fields and fields["harmonics"] is not None:
        fields["harmonics"] = tuple(fields["harmonics"])
    return FaseConfig(**fields)


class FaseService:
    """The long-lived campaign service: store + scheduler + fleet + HTTP.

    ``tenants`` is an iterable of
    :class:`~repro.service.scheduler.TenantPolicy`; unregistered tenants
    are admitted with default policy. ``workers`` sizes the in-process
    fleet — ``workers=0`` runs a *hub-only* service with no local
    workers at all, for deployments where every shard runs on remote
    :class:`~repro.service.host.WorkerHost` processes. ``reap_after_s``
    arms the one stale-claim reaper, run by the fleet or, hub-only, by
    the service itself.
    ``shard_timeout_s`` arms the fleet's stall watchdog, ``shard_fn``
    swaps the shard body in tests. Use as a context manager or call
    :meth:`start`/:meth:`stop`.
    """

    #: The longest a connection stays silent: a follow stream writes a
    #: keepalive envelope after this long without events, and it caps a
    #: ``POST /claims`` long-poll. Events themselves wake the stream at
    #: once (the store's change signal), so there is no poll interval.
    stream_keepalive_s = 2.0

    def __init__(
        self,
        root,
        tenants=(),
        workers=2,
        shard_timeout_s=None,
        shard_fn=None,
        aging_decisions=16,
        reap_after_s=None,
        server_name="fase-service",
    ):
        self.scheduler = FairShareScheduler(tenants, aging_decisions=aging_decisions)
        self.store = JobStore(root, scheduler=self.scheduler)
        self.fleet = None
        if workers:
            self.fleet = WorkerFleet(
                self.store,
                workers=workers,
                shard_fn=shard_fn,
                shard_timeout_s=shard_timeout_s,
                reap_after_s=reap_after_s,
            )
        self.reap_after_s = reap_after_s
        self.server_name = server_name
        self._httpd = None
        self._http_thread = None
        self._reaper_thread = None
        # Set on stop(), which also wakes every store waiter: follow
        # streams and claim long-polls check it, and the hub reaper
        # sleeps on it, so a shutdown does not hang on an open request.
        self._stopping = threading.Event()

    # -- lifecycle ----------------------------------------------------

    def start(self, host="127.0.0.1", port=0):
        """Open (or resume) the store, start the fleet, bind the API.

        Returns ``(host, port)`` with the actual bound port — pass
        ``port=0`` to let the OS choose (the test tier does).
        """
        self._stopping.clear()
        self.store.open(server_name=self.server_name)
        if self.fleet is not None:
            self.fleet.start()
        elif self.reap_after_s is not None:
            # Hub-only service: no fleet runs the reaper, so the service
            # runs it itself over the remote hosts' claims.
            self._reaper_thread = start_reaper(self.store, self.reap_after_s, self._stopping)
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="fase-http", daemon=True
        )
        self._http_thread.start()
        return self._httpd.server_address[:2]

    def stop(self):
        self._stopping.set()
        self.store._signal()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
            self._http_thread = None
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=10.0)
            self._reaper_thread = None
        if self.fleet is not None:
            self.fleet.stop()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    @property
    def address(self):
        if self._httpd is None:
            raise ServiceError("the service is not serving")
        return self._httpd.server_address[:2]

    # -- request handlers (called by the HTTP layer) ------------------

    def submit_job(self, body):
        pairs = None
        if body.get("pairs") is not None:
            pairs = tuple(tuple(pair) for pair in body["pairs"])
        job_id = self.store.submit(
            tenant=body.get("tenant"),
            machines=body.get("machines"),
            pairs=pairs,
            config=config_from_request(body.get("config")),
            bands=body.get("bands"),
            seed=int(body.get("seed", 0)),
            max_shard_retries=int(body.get("max_shard_retries", 2)),
        )
        return {"job_id": job_id}

    def job_result_json(self, job_id):
        return self.store.job_report(job_id).to_dict()

    def claim_shard(self, body):
        """One remote claim: heartbeat the host, pick a shard, wire it.

        With ``wait_s`` in the body an empty queue holds the request and
        claims again each time claimable work may have appeared, until
        one succeeds or ``min(wait_s, stream_keepalive_s)`` has passed
        (a stopping service answers at once). The claim request doubles as a liveness beat —
        a host that keeps asking for work is by definition alive, even
        between shards.
        """
        worker = _worker_name(body, "a claim")
        wait_s = min(max(float(body.get("wait_s") or 0.0), 0.0), self.stream_keepalive_s)
        self.store.worker_heartbeat(worker)
        claimed, _ = self.store._claim_after(worker, None, wait_s, stop=self._stopping)
        if claimed is None:
            return {"claim": None}
        return {
            "claim": {
                "job_id": claimed.job_id,
                "tenant": claimed.tenant,
                "max_shard_retries": claimed.max_shard_retries,
                "spec": shard_spec_to_dict(claimed.spec),
            }
        }

    def report_result(self, job_id, shard_id, body):
        worker = _worker_name(body, "a shard report")
        data = body.get("result")
        if not isinstance(data, dict):
            raise ServiceError("a shard result report needs a 'result' object")
        if data.get("shard_id") != shard_id:
            raise ServiceError(
                f"result is for shard {data.get('shard_id')!r}, "
                f"not the addressed {shard_id!r}"
            )
        self.store.shard_spec(job_id, shard_id)  # 404 before any mutation
        elapsed_s = body.get("elapsed_s")
        self.store.complete_shard(
            job_id,
            shard_id,
            shard_result_from_dict(data),
            worker,
            elapsed_s=None if elapsed_s is None else float(elapsed_s),
        )
        return {"job_id": job_id, "shard_id": shard_id, "state": self.store.job_state(job_id)}

    def report_failure(self, job_id, shard_id, body):
        worker = _worker_name(body, "a shard report")
        self.store.shard_spec(job_id, shard_id)
        self.store.fail_shard(
            job_id,
            shard_id,
            str(body.get("kind") or SHARD_ERROR),
            str(body.get("detail") or "remote worker reported a failure"),
            worker,
        )
        return {"job_id": job_id, "shard_id": shard_id, "state": self.store.job_state(job_id)}

    def release_claim(self, job_id, shard_id, body):
        worker = _worker_name(body, "a release")
        self.store.shard_spec(job_id, shard_id)
        self.store.release_shard(
            job_id,
            shard_id,
            worker,
            str(body.get("detail") or "released by its worker host"),
        )
        return {"job_id": job_id, "shard_id": shard_id, "state": self.store.job_state(job_id)}


def _worker_name(body, what):
    """The request's ``worker`` field; ``what`` names the request in the error."""
    worker = body.get("worker")
    if not worker or not isinstance(worker, str):
        raise ServiceError(f"{what} needs a non-empty worker name")
    return worker


def _make_handler(service):
    """A request-handler class closed over one :class:`FaseService`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "fase-service"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # the job store journal is the audit trail, not stderr

        # -- plumbing -------------------------------------------------

        def _send_json(self, payload, status=200):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_error(self, message, status):
            self._send_json({"error": message}, status=status)

        def _read_body(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw or b"{}")
            except ValueError as exc:
                raise ServiceError(f"request body is not valid JSON: {exc}") from exc
            if not isinstance(body, dict):
                raise ServiceError("request body must be a JSON object")
            return body

        def _route(self):
            path = urllib.parse.urlsplit(self.path).path
            return [urllib.parse.unquote(part) for part in path.split("/") if part]

        def _query(self):
            return urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)

        # -- verbs ----------------------------------------------------

        def do_GET(self):
            parts = self._route()
            try:
                if parts == ["jobs"]:
                    return self._send_json(
                        {
                            "jobs": [
                                service.store.job_status(job_id)
                                for job_id in service.store.job_ids()
                            ]
                        }
                    )
                if len(parts) == 2 and parts[0] == "jobs":
                    return self._send_json(service.store.job_status(parts[1]))
                if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                    return self._send_json(service.job_result_json(parts[1]))
                if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                    return self._send_events(parts[1])
                if parts == ["workers"]:
                    return self._send_json({"workers": service.store.worker_stats()})
                if len(parts) == 2 and parts[0] == "tenants":
                    return self._send_json(service.store.tenant_usage(parts[1]))
                self._send_error(f"no such resource: {self.path}", 404)
            except ServiceError as exc:
                self._send_error(str(exc), 404 if _is_missing(exc) else 400)
            except ReproError as exc:
                self._send_error(str(exc), 400)
            except (ValueError, TypeError) as exc:
                self._send_error(f"malformed request: {exc}", 400)

        def do_POST(self):
            parts = self._route()
            try:
                if parts == ["jobs"]:
                    return self._send_json(service.submit_job(self._read_body()), status=201)
                if parts == ["claims"]:
                    return self._send_json(service.claim_shard(self._read_body()))
                if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                    state = service.store.cancel(parts[1])
                    return self._send_json({"job_id": parts[1], "state": state})
                if len(parts) == 5 and parts[0] == "jobs" and parts[2] == "shards":
                    job_id, shard_id, action = parts[1], parts[3], parts[4]
                    body = self._read_body()
                    if action == "result":
                        return self._send_json(service.report_result(job_id, shard_id, body))
                    if action == "fail":
                        return self._send_json(service.report_failure(job_id, shard_id, body))
                    if action == "release":
                        return self._send_json(service.release_claim(job_id, shard_id, body))
                self._send_error(f"no such resource: {self.path}", 404)
            except ServiceError as exc:
                self._send_error(str(exc), 404 if _is_missing(exc) else 400)
            except ReproError as exc:
                self._send_error(str(exc), 400)
            except (ValueError, TypeError) as exc:
                # Malformed scalars in an otherwise-JSON body ("seed":
                # "abc", a non-list "pairs", ...) must answer 400, never
                # drop the connection with a server-side traceback.
                self._send_error(f"malformed request: {exc}", 400)

        def do_PUT(self):
            parts = self._route()
            try:
                if len(parts) == 3 and parts[0] == "workers" and parts[2] == "heartbeat":
                    service.store.worker_heartbeat(parts[1])
                    return self._send_json({"worker": parts[1], "ok": True})
                self._send_error(f"no such resource: {self.path}", 404)
            except ReproError as exc:
                self._send_error(str(exc), 400)

        # -- the events stream ----------------------------------------

        def _send_events(self, job_id):
            query = self._query()
            try:
                offset = int(query.get("offset", ["0"])[0])
            except ValueError as exc:
                raise ServiceError(f"offset must be an integer: {exc}") from exc
            follow = query.get("follow", ["0"])[0] not in ("", "0", "false")
            path = service.store.events_path(job_id)  # 404s before headers
            if not follow:
                return self._send_events_snapshot(path, offset)
            self._stream_events(job_id, path, offset)

        def _send_events_snapshot(self, path, offset):
            lines, next_offset = read_complete_lines(path, offset)
            body = b"".join(line + b"\n" for line in lines)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Fase-Events-Offset", str(next_offset))
            self.end_headers()
            self.wfile.write(body)

        def _chunk(self, payload):
            self.wfile.write(f"{len(payload):x}\r\n".encode("ascii") + payload + b"\r\n")
            self.wfile.flush()

        def _envelope(self, **fields):
            self._chunk(json.dumps(fields, sort_keys=True).encode("utf-8") + b"\n")

        def _stream_events(self, job_id, path, offset):
            """Chunked NDJSON live tail; ends when the job goes terminal.

            Each event rides an envelope carrying the byte offset *after*
            its line — the client's resume token. Unparseable lines (a
            sealed fragment, interior damage) are skipped but still
            advance the offset, so a bad line can never wedge the tail.
            Between passes the tail sleeps on the store's change signal,
            at most until the next keepalive is due.
            """
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            store = service.store
            pos = max(0, int(offset))
            last_sent = time.monotonic()
            try:
                while True:
                    # Event count, then state, then batch: the terminal
                    # transition and its final event are written under
                    # one store lock, so a post-terminal read drains
                    # everything, and any event after this read moves
                    # the count the wait below watches.
                    seen = store._event_count(job_id)
                    state = store.job_state(job_id)
                    lines, next_pos = read_complete_lines(path, pos)
                    for line in lines:
                        pos += len(line) + 1
                        try:
                            event = json.loads(line)
                        except ValueError:
                            continue
                        self._envelope(offset=pos, event=event)
                    pos = next_pos
                    now = time.monotonic()
                    if lines:
                        last_sent = now
                    if state in (COMPLETED, CANCELLED):
                        self._envelope(offset=pos, end=state)
                        break
                    if service._stopping.is_set():
                        break
                    if now - last_sent >= service.stream_keepalive_s:
                        self._envelope(offset=pos)
                        last_sent = now
                    store._await(
                        lambda: store._event_count(job_id) != seen
                        or service._stopping.is_set(),
                        service.stream_keepalive_s - (now - last_sent),
                    )
                self._chunk(b"")  # the chunked-encoding terminator
            except OSError:
                return  # the client went away; nothing to clean up

    return Handler


def _is_missing(exc):
    text = str(exc)
    return "unknown job" in text or "has no shard" in text

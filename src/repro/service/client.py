"""A typed, stdlib-only Python client for the campaign service API.

Thin by design: every method is one HTTP round trip mapping 1:1 onto
:mod:`repro.service.api`'s endpoints, errors surface as
:class:`~repro.errors.ServiceError` with the server's message, and
:meth:`ServiceClient.result` revives the full
:class:`~repro.survey.SurveyReport` through its JSON codec — the wire
never carries a pickle.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request

from ..errors import ServiceError
from ..io import _config_to_dict
from ..survey.manifest import shard_result_to_dict
from ..survey.report import SurveyReport
from ..survey.shards import shard_spec_from_dict
from .queue import ClaimedShard

#: Job states a client treats as final.
TERMINAL_STATES = ("completed", "cancelled")


def _quote(segment):
    """A value as one URL path segment (shard ids carry ``:``)."""
    return urllib.parse.quote(segment, safe="")


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://127.0.0.1:8321")``."""

    def __init__(self, base_url, timeout_s=30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- plumbing -----------------------------------------------------

    def _request(self, method, path, body=None):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            error = ServiceError(f"{method} {path} failed ({exc.code}): {detail}")
            error.status = exc.code  # callers distinguish 4xx from outages
            raise error from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"{method} {path} failed: {exc.reason}") from exc

    def _json(self, method, path, body=None):
        return json.loads(self._request(method, path, body))

    # -- the API ------------------------------------------------------

    def submit(
        self,
        tenant,
        machines=None,
        pairs=None,
        config=None,
        bands=None,
        seed=0,
        max_shard_retries=2,
    ):
        """Submit one campaign; returns its job id.

        ``config`` may be a :class:`~repro.core.FaseConfig` (serialized
        for the wire) or a plain dict of config fields; ``pairs`` are
        micro-op name pairs like ``[("LDM", "LDL1")]``.
        """
        if config is not None and not isinstance(config, dict):
            config = _config_to_dict(config)
        body = {
            "tenant": tenant,
            "machines": list(machines) if machines else None,
            "pairs": [list(pair) for pair in pairs] if pairs else None,
            "config": config,
            "bands": bands,
            "seed": seed,
            "max_shard_retries": max_shard_retries,
        }
        return self._json("POST", "/jobs", body)["job_id"]

    def jobs(self):
        return self._json("GET", "/jobs")["jobs"]

    def job(self, job_id):
        return self._json("GET", f"/jobs/{job_id}")

    def result(self, job_id):
        """The job's aggregated report, revived as a :class:`SurveyReport`."""
        return SurveyReport.from_json(self._request("GET", f"/jobs/{job_id}/result"))

    def cancel(self, job_id):
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def tenant(self, tenant):
        return self._json("GET", f"/tenants/{tenant}")

    def events(self, job_id, offset=0):
        """The job's event snapshot from ``offset``, parsed.

        The server only serves *complete* lines (a torn tail is
        withheld, not mangled); unparseable interior lines are skipped.
        """
        raw = self._request("GET", f"/jobs/{job_id}/events?offset={int(offset)}")
        records = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        return records

    def stream_events(self, job_id, offset=0, reconnects=3):
        """Live-tail a job's events: yields each event dict as it lands.

        A generator over the chunked ``?follow=1`` stream. Keepalive
        envelopes are consumed internally; the generator ends when the
        job reaches a terminal state (its return value is that state,
        e.g. ``"completed"``). A dropped connection reconnects from the
        last seen byte offset — no events replayed, none lost — up to
        ``reconnects`` consecutive failures before raising.
        """
        for envelope in self._follow(job_id, offset, reconnects):
            if "end" in envelope:
                return envelope["end"]
            event = envelope.get("event")
            if event is not None:
                yield event

    def _follow(self, job_id, offset=0, reconnects=3, deadline=None):
        """Every envelope of the follow stream, keepalives included.

        Ends after the ``end`` envelope, or — with a ``deadline`` (in
        ``time.monotonic()`` seconds) — once it passes: no read then
        blocks beyond it.
        """
        pos = int(offset)
        failures = 0
        while True:
            url = f"{self.base_url}/jobs/{job_id}/events?offset={pos}&follow=1"
            request = urllib.request.Request(
                url, headers={"Accept": "application/x-ndjson"}
            )
            timeout_s = self.timeout_s
            if deadline is not None:
                timeout_s = min(timeout_s, max(deadline - time.monotonic(), 0.001))
            try:
                with urllib.request.urlopen(request, timeout=timeout_s) as response:
                    for raw in response:
                        if not raw.strip():
                            continue
                        try:
                            envelope = json.loads(raw)
                        except ValueError:
                            continue
                        failures = 0
                        pos = int(envelope.get("offset", pos))
                        yield envelope
                        if "end" in envelope:
                            return
            except urllib.error.HTTPError as exc:
                detail = exc.read().decode("utf-8", "replace")
                try:
                    detail = json.loads(detail).get("error", detail)
                except ValueError:
                    pass
                raise ServiceError(
                    f"GET /jobs/{job_id}/events failed ({exc.code}): {detail}"
                ) from exc
            except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
                if deadline is not None and time.monotonic() >= deadline:
                    return
                failures += 1
                if failures > reconnects:
                    raise ServiceError(
                        f"event stream for {job_id!r} failed: {exc}"
                    ) from exc
                time.sleep(0.2)
                continue
            # The server ended the stream without a terminal marker
            # (service shutdown mid-tail): resume from the last offset.
            failures += 1
            if failures > reconnects:
                raise ServiceError(
                    f"event stream for {job_id!r} ended before the job did"
                )
            time.sleep(0.2)

    # -- the worker-host wire (used by repro.service.host) ------------

    def claim(self, worker, wait_s=0.0):
        """Claim one funded shard; ``None`` when no work is available.

        With ``wait_s`` the service holds an empty claim until work may
        have appeared, at most that long (a long-poll, capped by the
        service). The revived :class:`~repro.service.queue.ClaimedShard`
        carries a real :class:`~repro.survey.shards.ShardSpec` —
        host-local fields (heartbeat path, checkpoint dir) are unset;
        the host fills in its own.
        """
        payload = self._json("POST", "/claims", {"worker": worker, "wait_s": wait_s})
        claim = payload.get("claim")
        if claim is None:
            return None
        return ClaimedShard(
            job_id=claim["job_id"],
            tenant=claim["tenant"],
            spec=shard_spec_from_dict(claim["spec"]),
            max_shard_retries=int(claim["max_shard_retries"]),
        )

    def report_result(self, job_id, shard_id, result, worker, elapsed_s=None):
        """Report a finished shard; the result travels as JSON."""
        if not isinstance(result, dict):
            result = shard_result_to_dict(result)
        body = {"worker": worker, "result": result, "elapsed_s": elapsed_s}
        return self._json(
            "POST", f"/jobs/{job_id}/shards/{_quote(shard_id)}/result", body
        )

    def report_failure(self, job_id, shard_id, kind, detail, worker):
        body = {"worker": worker, "kind": kind, "detail": detail}
        return self._json(
            "POST", f"/jobs/{job_id}/shards/{_quote(shard_id)}/fail", body
        )

    def release(self, job_id, shard_id, worker, detail):
        body = {"worker": worker, "detail": detail}
        return self._json(
            "POST", f"/jobs/{job_id}/shards/{_quote(shard_id)}/release", body
        )

    def heartbeat(self, worker):
        return self._json("PUT", f"/workers/{_quote(worker)}/heartbeat")

    def workers(self):
        """Per-worker lifecycle counters and liveness, fleet and hosts."""
        return self._json("GET", "/workers")["workers"]

    def wait(self, job_id, timeout_s=60.0):
        """Follow the job's event stream to its end; returns its final status.

        Raises :class:`ServiceError` once ``timeout_s`` passes — a
        service that lost its fleet should fail the caller, not hang it.
        """
        deadline = time.monotonic() + timeout_s
        for envelope in self._follow(job_id, deadline=deadline):
            if "end" in envelope:
                return self.job(job_id)
            if time.monotonic() >= deadline:
                break
        state = self.job(job_id)["state"]
        raise ServiceError(f"job {job_id!r} still {state!r} after {timeout_s:g}s")

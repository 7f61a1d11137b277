"""repro.service: survey-as-a-service — a durable multi-tenant campaign
scheduler with an HTTP job API.

The ROADMAP's top open item composed: PR 8's crash-safe manifests, the
engine's shard purity and attributable retries, and the telemetry
layer's mergeable snapshots become a *long-lived service* that accepts
campaign jobs from many tenants and survives being SIGKILLed at any
point.

* :mod:`~repro.service.queue` — :class:`JobStore`, the durable job
  queue: every submit/claim/progress/release/skip/cancel/complete
  transition rides the same append-only, checksummed, fsync'd journal
  discipline as the survey manifest (:mod:`repro.journalutil`), with one
  per-job :class:`~repro.survey.SurveyManifest` holding shard results;
* :mod:`~repro.service.scheduler` — :class:`TenantPolicy` and
  :class:`FairShareScheduler`: weighted fair share, strict priorities
  with aging (starvation-freedom), concurrency quotas, and capture
  ceilings — every decision a pure, replayable function of the journal;
* :mod:`~repro.service.workers` — :class:`WorkerFleet`: N worker-host
  loops on threads over the store, plus the one stale-claim reaper;
* :mod:`~repro.service.api` — :class:`FaseService`, the stdlib-only
  ``ThreadingHTTPServer`` JSON API, including the worker-host
  claim/report endpoints and the live ``/events`` tail;
* :mod:`~repro.service.host` — :class:`WorkerHost`, the one
  claim → run → report loop; standalone, it claims shards over HTTP and
  reports results as JSON — the service stays the single store writer;
* :mod:`~repro.service.client` — :class:`ServiceClient`, the typed
  Python client (including :meth:`~ServiceClient.stream_events`, a
  resumable live-tail generator).

Entry points: ``repro serve`` / ``worker`` / ``submit`` / ``jobs`` /
``watch`` / ``cancel`` on the command line, or :class:`FaseService` +
:class:`ServiceClient` in code::

    with FaseService(root, tenants=[TenantPolicy("alice", weight=2.0)]) as svc:
        host, port = svc.start()
        client = ServiceClient(f"http://{host}:{port}")
        job_id = client.submit("alice", machines=["corei7_desktop"])
        client.wait(job_id)
        report = client.result(job_id)
"""

from .api import FaseService, config_from_request
from .client import TERMINAL_STATES, ServiceClient
from .host import WorkerHost, run_worker_host
from .queue import (
    CANCELLED,
    CANCELLING,
    COMPLETED,
    QUEUED,
    RUNNING,
    STORE_FORMAT,
    ClaimedShard,
    JobSpec,
    JobStore,
)
from .scheduler import FairShareScheduler, TenantPolicy
from .workers import WorkerFleet

__all__ = [
    "CANCELLED",
    "CANCELLING",
    "COMPLETED",
    "ClaimedShard",
    "FairShareScheduler",
    "FaseService",
    "JobSpec",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "STORE_FORMAT",
    "ServiceClient",
    "TERMINAL_STATES",
    "TenantPolicy",
    "WorkerFleet",
    "WorkerHost",
    "config_from_request",
    "run_worker_host",
]

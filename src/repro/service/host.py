"""Worker hosts: the one claim → run → report loop of the service.

A :class:`WorkerHost` drains shards from a
:class:`~repro.service.api.FaseService`'s job store:

* **claim** — one funded :class:`~repro.survey.shards.ShardSpec`; the
  host fills in its own local plumbing (a stall-watchdog heartbeat file
  under its scratch dir, namespaced by job and shard id);
* **run** — :func:`~repro.survey.engine.execute_shard`, the executor
  every survey route uses: the shard runs inline, or in a killable
  single-worker ``fork`` pool under the heartbeat-extended stall
  watchdog when ``shard_timeout_s`` is armed;
* **report** — the result, or a failure in the ledger vocabulary
  (``shard-error`` / ``shard-stalled`` / ``worker-death``); a background
  thread heartbeats so the store can reap the claims of a host that
  dies mid-shard, and never those of a live one.

An idle host never sleeps on a cadence: each claim is a bounded wait
for work (``POST /claims`` long-polls over HTTP; in process the store's
change signal wakes it), so a submit reaches an idle host at once.
``poll_interval_s`` is only the cap on one such wait, the least time
between two empty claims (a service that answers at once is not asked
in a tight loop) and the backoff after a service error or an
undeliverable report.

The loop runs over two transports. Out of process it speaks plain HTTP
through :class:`~repro.service.client.ServiceClient` (``fase worker
--connect URL``); the service stays the **single store writer**, so
every crash-safety invariant the store proves in-process carries over
to a fleet of remote hosts. In process,
:class:`~repro.service.workers.WorkerFleet` runs N of these loops on
threads over a thin store adapter. Shard purity does the rest — a host
SIGKILLed mid-shard loses nothing, its claim is reaped, another host
adopts the shard, and the re-run is byte-identical; a report from a
host that no longer holds the claim is ignored.

Entry points: ``fase worker --connect URL`` on the command line, or
:func:`run_worker_host` / :class:`WorkerHost` in code.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

from ..errors import ServiceError
from ..journalutil import journal_dirname
from ..survey.engine import execute_shard
from ..survey.shards import run_shard
from .client import ServiceClient


def default_host_name():
    """A host identity unique per (machine, process): claims key on it."""
    return f"host-{socket.gethostname()}-{os.getpid()}"


def shard_heartbeat_path(workdir, claimed):
    """The stall-watchdog heartbeat file for one claim under ``workdir``.

    Namespaced by **job id and shard id**: two jobs covering the same
    (machine, pair, band) plan identical shard ids, and a shared
    per-shard-id file would let one job's beats extend the other job's
    hung shard past its stall deadline forever.
    """
    name = journal_dirname(f"{claimed.job_id}:{claimed.spec.shard_id}")
    return Path(workdir) / f"{name}.shard.hb"


class WorkerHost:
    """One worker loop draining shards from a service's job store.

    ``base_url`` is the service's URL; an object with the
    :class:`~repro.service.client.ServiceClient`'s ``claim`` /
    ``heartbeat`` / ``report_result`` / ``report_failure`` methods is
    used as the client directly (the in-process fleet passes a store
    adapter). ``shard_fn`` swaps the shard body in tests (module-level,
    picklable). ``shard_timeout_s`` arms the stall watchdog (shards
    then run in killable single-worker pools). ``poll_interval_s``
    caps one idle claim wait and paces retries after service errors.
    ``idle_exit_s`` makes the host exit after that long with no
    claimable work — the natural shutdown for batch campaigns;
    ``max_shards`` bounds the host's lifetime by work instead.
    ``workdir`` holds the host's scratch (heartbeat files); a temp dir
    is created (and removed) when unset.
    """

    def __init__(
        self,
        base_url,
        name=None,
        workdir=None,
        shard_fn=None,
        shard_timeout_s=None,
        poll_interval_s=0.25,
        heartbeat_interval_s=1.0,
        idle_exit_s=None,
        max_shards=None,
        timeout_s=30.0,
        max_consecutive_errors=30,
        verbose=False,
    ):
        self.client = (
            ServiceClient(base_url, timeout_s=timeout_s)
            if isinstance(base_url, str)
            else base_url
        )
        self.name = name or default_host_name()
        self.workdir = None if workdir is None else Path(workdir)
        self.shard_fn = shard_fn or run_shard
        self.shard_timeout_s = shard_timeout_s
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.idle_exit_s = idle_exit_s
        self.max_shards = max_shards
        self.max_consecutive_errors = max_consecutive_errors
        self.verbose = verbose
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------

    def stop(self):
        """Cooperative: the in-flight shard finishes, then the loop exits."""
        self._stop.set()

    def run(self):
        """The host's whole life; returns its counters when it exits.

        Transient service errors (a restarting hub, a network blip) are
        retried every ``poll_interval_s``; ``max_consecutive_errors`` in a
        row raise — a host that can never reach its service should die
        loudly, not spin forever. A :meth:`stop` that lands before the
        loop starts still stops it.
        """
        own_workdir = self.workdir is None
        if own_workdir:
            self.workdir = Path(tempfile.mkdtemp(prefix="fase-host-"))
        else:
            self.workdir.mkdir(parents=True, exist_ok=True)
        beats = threading.Thread(
            target=self._beat_loop, name=f"{self.name}-hb", daemon=True
        )
        beats.start()
        idle_since = time.monotonic()
        errors = 0
        try:
            while not self._stop.is_set():
                if (
                    self.max_shards is not None
                    and self.completed + self.failed >= self.max_shards
                ):
                    break
                asked = time.monotonic()
                try:
                    # Blocks until work may be claimable, at most one
                    # poll interval: no sleep between empty claims.
                    claimed = self.client.claim(self.name, wait_s=self.poll_interval_s)
                except ServiceError as exc:
                    errors += 1
                    if errors > self.max_consecutive_errors:
                        raise ServiceError(
                            f"host {self.name!r} gave up after "
                            f"{errors} consecutive service errors: {exc}"
                        ) from exc
                    self._stop.wait(self.poll_interval_s)
                    continue
                errors = 0
                if claimed is None:
                    if (
                        self.idle_exit_s is not None
                        and time.monotonic() - idle_since >= self.idle_exit_s
                    ):
                        break
                    # A service that answers an empty claim at once (one
                    # without the long-poll, or one that is stopping) is
                    # not re-asked in a tight loop: wait out the interval.
                    # After a held claim nothing of it is left.
                    self._stop.wait(max(asked + self.poll_interval_s - time.monotonic(), 0.0))
                    continue
                self._run_claim(claimed)
                idle_since = time.monotonic()
        finally:
            self._stop.set()
            beats.join(timeout=5.0)
            self._stop.clear()
            if own_workdir:
                shutil.rmtree(self.workdir, ignore_errors=True)
                self.workdir = None
        return {"host": self.name, "completed": self.completed, "failed": self.failed}

    def _beat_loop(self):
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                self.client.heartbeat(self.name)
            except ServiceError:
                pass  # liveness is advisory; the claim loop owns give-up

    # -- one claim ----------------------------------------------------

    def _localize(self, claimed):
        """Fill in this host's local plumbing on a wire-revived spec."""
        if self.shard_timeout_s is None:
            return claimed.spec
        return replace(
            claimed.spec,
            heartbeat_path=str(shard_heartbeat_path(self.workdir, claimed)),
        )

    def _run_claim(self, claimed):
        job_id, shard_id = claimed.job_id, claimed.spec.shard_id
        started = time.monotonic()
        result, failure = execute_shard(
            self.shard_fn, self._localize(claimed), shard_timeout_s=self.shard_timeout_s
        )
        if failure is None:
            elapsed_s = time.monotonic() - started
            sent = self._report(
                self.client.report_result, job_id, shard_id, result, self.name, elapsed_s=elapsed_s
            )
            if sent:
                self.completed += 1
                self._say(f"{job_id} {shard_id}: completed in {elapsed_s:.2f}s")
        else:
            kind, detail = failure
            if self._report(self.client.report_failure, job_id, shard_id, kind, detail, self.name):
                self.failed += 1
                self._say(f"{job_id} {shard_id}: {kind} ({detail})")

    # -- reporting ----------------------------------------------------

    def _report(self, send, *args, **kwargs):
        """``send(*args, **kwargs)``, with retries; ``False`` when undeliverable.

        A report the service never hears is not data loss: the claim
        goes silent, the reaper releases it, and the re-run is
        byte-identical (shard purity). The host just moves on.
        """
        attempts = 3
        for attempt in range(attempts):
            try:
                send(*args, **kwargs)
                return True
            except ServiceError as exc:
                status = getattr(exc, "status", None)
                if status is not None and 400 <= status < 500:
                    # A 4xx is the service *rejecting* the report (the
                    # job is gone, the payload is malformed) — final,
                    # not retryable.
                    self._say(f"report rejected: {exc}")
                    return False
                if attempt + 1 < attempts:
                    self._stop.wait(self.poll_interval_s)
        self._say(f"report undeliverable after {attempts} attempts; moving on")
        return False

    def _say(self, message):
        if self.verbose:
            print(f"[{self.name}] {message}", flush=True)


def run_worker_host(base_url, **kwargs):
    """Run one :class:`WorkerHost` to completion; returns its counters."""
    return WorkerHost(base_url, **kwargs).run()

"""The worker fleet: N worker-host loops on threads over one job store.

The fleet has no claim loop of its own: each thread runs a
:class:`~repro.service.host.WorkerHost` loop — the claim → run → report
step a remote ``fase worker`` runs — against the
:class:`~repro.service.queue.JobStore` through a thin in-process adapter
instead of HTTP. Shards are pure ``(seed, shard_id)`` functions run by
the survey engine's :func:`~repro.survey.engine.execute_shard`, so a
re-run after a crash, a reap or a duplicated adoption is byte-identical.

Idle hosts do not poll: the adapter waits on the store's change signal
until claimable work may have appeared (a submit, a release, a requeue,
or a transition that leaves pending work behind) and only then claims,
so an empty queue costs no claims at all; :meth:`WorkerFleet.stop`
wakes them to exit. ``poll_interval_s`` only caps one such wait and
paces retries after a store error. :meth:`WorkerFleet.drain` waits on
the same signal.

Each host's beat thread keeps its claims alive at an interval well
under ``reap_after_s``, so a worker busy with a long shard is never
reaped. One reaper (:func:`start_reaper`, shared with the hub-only
:class:`~repro.service.api.FaseService`) releases the claims of workers
that stopped beating, for adoption by their peers.
"""

from __future__ import annotations

import threading

from ..errors import ServiceError
from ..survey.shards import run_shard
from .host import WorkerHost, shard_heartbeat_path


def start_reaper(store, reap_after_s, stop):
    """The one stale-claim reaper: a daemon thread sweeping the store.

    Every ``reap_after_s / 2`` seconds until ``stop`` (an Event) is set,
    claims whose worker has not beaten within ``reap_after_s`` go back
    to pending. One sweep per interval however many workers there are:
    reaping takes the store lock, so it must not scale with poll rate.
    """

    def sweep():
        while not stop.wait(reap_after_s / 2.0):
            store.reap_stale_claims(reap_after_s)

    thread = threading.Thread(target=sweep, name="fase-reaper", daemon=True)
    thread.start()
    return thread


class _StoreClient:
    """The worker side of the service API, in process: calls go to the store."""

    def __init__(self, store):
        self.store = store
        self.stop = None  # the host's stop Event: ends an idle wait early
        self._seen = None  # the store's work version after this host's last claim

    def claim(self, worker, wait_s=0.0):
        """Claim once claimable work may have appeared since the last claim.

        Waits up to ``wait_s`` for the store's work signal; ``None`` if
        it stays quiet, without spending a claim on an unchanged queue.
        """
        claimed, self._seen = self.store._claim_after(worker, self._seen, wait_s, self.stop)
        return claimed

    def heartbeat(self, worker):
        self.store.worker_heartbeat(worker)

    def report_result(self, job_id, shard_id, result, worker, elapsed_s=None):
        self._report(self.store.complete_shard, job_id, shard_id, result, worker, elapsed_s)

    def report_failure(self, job_id, shard_id, kind, detail, worker):
        self._report(self.store.fail_shard, job_id, shard_id, kind, detail, worker)

    def _report(self, send, *args):
        # A report is how this host hears of work its claim left pending;
        # when one fails, look at the queue again instead.
        try:
            send(*args)
        except ServiceError:
            self._seen = None
            raise


class _FleetHost(WorkerHost):
    """One fleet thread's loop; it runs the fleet's current ``shard_fn``."""

    def __init__(self, fleet, name, **kwargs):
        super().__init__(_StoreClient(fleet.store), name=name, **kwargs)
        self.client.stop = self._stop
        self.fleet = fleet

    def _run_claim(self, claimed):
        # Read per claim, so a shard_fn rebound on a running fleet (a
        # tracer's wrapper, say) takes effect from the next shard on.
        self.shard_fn = self.fleet.shard_fn
        super()._run_claim(claimed)


class WorkerFleet:
    """A pool of claim-driven worker threads over one :class:`JobStore`.

    ``shard_fn`` replaces :func:`~repro.survey.shards.run_shard` in
    tests (module-level, picklable). ``poll_interval_s`` caps one idle
    wait and is the backoff after a store error; work wakes idle workers
    at once. ``reap_after_s`` arms the stale-
    claim reaper: the fleet releases claims whose owner has not
    heartbeated within that window, sweeping once per
    ``reap_after_s / 2``; its workers beat every ``reap_after_s / 4``.
    """

    def __init__(
        self,
        store,
        workers=2,
        shard_fn=None,
        shard_timeout_s=None,
        poll_interval_s=0.05,
        reap_after_s=None,
        name_prefix="worker",
    ):
        if workers < 1:
            raise ServiceError("the fleet needs at least one worker")
        self.store = store
        self.n_workers = workers
        self.shard_fn = shard_fn or run_shard
        self.shard_timeout_s = shard_timeout_s
        self.poll_interval_s = poll_interval_s
        self.reap_after_s = reap_after_s
        self.name_prefix = name_prefix
        self._hosts = []
        self._threads = []
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------

    def start(self):
        if self._threads:
            raise ServiceError("the fleet is already running")
        self._stop.clear()
        beat_s = 1.0 if self.reap_after_s is None else self.reap_after_s / 4.0
        for index in range(self.n_workers):
            host = _FleetHost(
                self,
                f"{self.name_prefix}-{index}",
                workdir=self.store.root / "workers",
                shard_timeout_s=self.shard_timeout_s,
                poll_interval_s=self.poll_interval_s,
                heartbeat_interval_s=beat_s,
            )
            thread = threading.Thread(target=host.run, name=host.name, daemon=True)
            thread.start()
            self._hosts.append(host)
            self._threads.append(thread)
        if self.reap_after_s is not None:
            self._threads.append(start_reaper(self.store, self.reap_after_s, self._stop))
        return self

    def stop(self, timeout_s=30.0):
        """Cooperative shutdown: workers finish their in-flight shard."""
        self._stop.set()
        for host in self._hosts:
            host.stop()
        self.store._signal()  # idle hosts see their stop now, not at the wait cap
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._hosts = []
        self._threads = []

    def drain(self, timeout_s=60.0):
        """Block until every job is terminal (or the deadline passes).

        A store with no jobs at all is *already* drained: an idle but
        healthy service answers ``True`` immediately — draining promises
        "no unfinished work", not "work happened". (``all_settled`` is
        vacuously true for an empty store, and that is the semantics a
        shutdown path wants: nothing in flight, safe to stop.)
        """
        return self.store._await(self.store.all_settled, timeout_s)

    def shard_heartbeat_path(self, claimed):
        """The stall-watchdog heartbeat file the fleet uses for one claim."""
        return shard_heartbeat_path(self.store.root / "workers", claimed)

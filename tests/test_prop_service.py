"""Properties of the fair-share scheduler, driven by Hypothesis.

The scheduler's contract is that every decision is a pure function of
the store snapshot — which the store derives entirely from journaled
transitions. That purity is what makes the properties here checkable on
an in-memory simulation of the claim/complete loop (no filesystem, no
fleet): the simulator feeds :meth:`FairShareScheduler.select` exactly
the snapshot shape :meth:`JobStore.snapshot` produces, so anything
proved here holds for the real store decision-for-decision.

Three invariant families back the service's scheduling claims:

* **Quota safety** — no interleaving of claims and completions ever
  leaves a tenant with more live claims than ``max_concurrent_shards``.
* **Weighted fairness** — with continuous backlog and equal priorities,
  each tenant's normalized charge ``charged / weight`` never drifts
  from any other's by more than ``max(1/weight)``.
* **Replay determinism** — the same snapshot sequence reproduces the
  same decision sequence, across calls and across scheduler instances;
  aging guarantees every backlogged tenant is served in bounded time.

One property runs the real :class:`JobStore` instead: after any random
schedule of submits, claims, completions, failures, releases, cancels
and reaps, a copy of the store's directory replayed from its journals
alone must show the same job statuses, worker counters, fairness
charges, decision clock and ledgers as the live store that wrote them.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaseConfig, MicroOp
from repro.service import FairShareScheduler, JobStore, TenantPolicy
from repro.survey.chaos import stub_result
from repro.survey.report import _ledger_to_dict

pytestmark = pytest.mark.service

NAMES = ("ada", "bob", "cyd", "dee")


class Simulator:
    """The store's claim accounting, minus the store.

    Mirrors :meth:`JobStore.snapshot`/:meth:`JobStore.claim` bookkeeping:
    claims advance the decision clock and the tenant's fairness charge;
    completions free a live slot. One synthetic job per tenant.
    """

    def __init__(self, backlogs):
        self.backlog = dict(backlogs)
        self.live = {name: 0 for name in self.backlog}
        self.charged = {name: 0 for name in self.backlog}
        self.last_claim = {name: 0 for name in self.backlog}
        self.decision = 0

    def snapshot(self):
        return {
            "decision": self.decision,
            "tenants": {
                name: {
                    "live_claims": self.live[name],
                    "charged": self.charged[name],
                    "last_claim_decision": self.last_claim[name],
                    "jobs": [{"job_id": f"job-{name}", "has_pending": self.backlog[name] > 0}],
                }
                for name in self.backlog
            },
        }

    def claim(self, scheduler):
        """One scheduling decision; the chosen tenant or ``None``."""
        job_id = scheduler.select(self.snapshot())
        if job_id is None:
            return None
        name = job_id[len("job-"):]
        assert self.backlog[name] > 0  # never hands out absent work
        self.backlog[name] -= 1
        self.live[name] += 1
        self.decision += 1
        self.charged[name] += 1
        self.last_claim[name] = self.decision
        return name

    def complete_one(self, name):
        if self.live[name] > 0:
            self.live[name] -= 1


def policies(names, weights=None, caps=None, priorities=None):
    return tuple(
        TenantPolicy(
            name,
            weight=1.0 if weights is None else weights[i],
            priority=0 if priorities is None else priorities[i],
            max_concurrent_shards=None if caps is None else caps[i],
        )
        for i, name in enumerate(names)
    )


# ----------------------------------------------------------------------
# Quota safety.


@settings(deadline=None, max_examples=60)
@given(
    caps=st.tuples(*[st.one_of(st.none(), st.integers(1, 3)) for _ in NAMES]),
    backlogs=st.tuples(*[st.integers(0, 12) for _ in NAMES]),
    schedule=st.lists(st.integers(0, len(NAMES)), min_size=1, max_size=120),
)
def test_quota_never_exceeded(caps, backlogs, schedule):
    """No interleaving of claims and completions breaches a tenant's
    ``max_concurrent_shards`` — and capped-out tenants are skipped, not
    queued-behind, so the cap never wedges the others."""
    scheduler = FairShareScheduler(policies(NAMES, caps=caps))
    sim = Simulator(dict(zip(NAMES, backlogs)))
    for step in schedule:
        if step == 0:  # a claim attempt
            sim.claim(scheduler)
        else:  # a completion for tenant step-1
            sim.complete_one(NAMES[step - 1])
        for name, cap in zip(NAMES, caps):
            if cap is not None:
                assert sim.live[name] <= cap
    # With everything completed, remaining backlog is always claimable.
    for name in NAMES:
        while sim.live[name]:
            sim.complete_one(name)
    while sim.claim(scheduler) is not None:
        for name in NAMES:
            sim.complete_one(name)
    assert all(sim.backlog[name] == 0 for name in NAMES)


# ----------------------------------------------------------------------
# Weighted fairness.


@settings(deadline=None, max_examples=60)
@given(
    weights=st.tuples(
        *[st.floats(0.25, 8.0, allow_nan=False, allow_infinity=False) for _ in NAMES]
    ),
    n_decisions=st.integers(1, 200),
)
def test_fair_share_drift_is_bounded(weights, n_decisions):
    """Continuous backlog, equal priorities: the spread of normalized
    charges ``charged / weight`` never exceeds ``max(1/weight)`` — the
    classic weighted-fair-share bound, here with aging disabled so the
    fairness term alone decides."""
    scheduler = FairShareScheduler(policies(NAMES, weights=weights), aging_decisions=None)
    sim = Simulator({name: n_decisions for name in NAMES})  # never runs dry
    bound = max(1.0 / w for w in weights) + 1e-9
    for _ in range(n_decisions):
        assert sim.claim(scheduler) is not None
        normalized = [sim.charged[name] / w for name, w in zip(NAMES, weights)]
        assert max(normalized) - min(normalized) <= bound


@settings(deadline=None, max_examples=40)
@given(weight=st.floats(1.5, 4.0, allow_nan=False))
def test_heavier_tenant_gets_proportionally_more(weight):
    """Over a long window a weight-w tenant collects ~w times the claims
    of a weight-1 peer (within one decision of the ideal split)."""
    names = ("heavy", "light")
    scheduler = FairShareScheduler(
        (TenantPolicy("heavy", weight=weight), TenantPolicy("light")),
        aging_decisions=None,
    )
    total = 120
    sim = Simulator({name: total for name in names})
    for _ in range(total):
        sim.claim(scheduler)
    ideal = total * weight / (weight + 1.0)
    assert abs(sim.charged["heavy"] - ideal) <= max(1.0, weight)


# ----------------------------------------------------------------------
# Determinism and starvation-freedom.


@settings(deadline=None, max_examples=60)
@given(
    weights=st.tuples(*[st.floats(0.5, 4.0, allow_nan=False) for _ in NAMES]),
    priorities=st.tuples(*[st.integers(0, 3) for _ in NAMES]),
    backlogs=st.tuples(*[st.integers(0, 10) for _ in NAMES]),
    schedule=st.lists(st.integers(0, len(NAMES)), min_size=1, max_size=80),
)
def test_replay_reproduces_every_decision(weights, priorities, backlogs, schedule):
    """Two independent scheduler instances fed the same transition
    sequence make identical choices at every step — the property that
    makes the journal a complete explanation of what ran when."""

    def run():
        scheduler = FairShareScheduler(
            policies(NAMES, weights=weights, priorities=priorities), aging_decisions=4
        )
        sim = Simulator(dict(zip(NAMES, backlogs)))
        decisions = []
        for step in schedule:
            if step == 0:
                decisions.append(sim.claim(scheduler))
            else:
                sim.complete_one(NAMES[step - 1])
        return decisions

    assert run() == run()


@settings(deadline=None, max_examples=40)
@given(
    priorities=st.tuples(*[st.integers(0, 3) for _ in NAMES]),
    aging=st.integers(1, 8),
)
def test_aging_prevents_starvation(priorities, aging):
    """With continuous backlog, every tenant is served within a bounded
    window no matter how the static priorities are stacked: waiting
    raises effective priority past any finite static gap."""
    scheduler = FairShareScheduler(
        policies(NAMES, priorities=priorities), aging_decisions=aging
    )
    window = aging * (max(priorities) + 2) * len(NAMES)
    sim = Simulator({name: 10 * window for name in NAMES})
    served_at = {name: [] for name in NAMES}
    for step in range(3 * window):
        name = sim.claim(scheduler)
        served_at[name].append(step)
    for name in NAMES:
        times = served_at[name]
        assert times, f"{name} starved for the whole run"
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps, default=0) <= window


def test_select_does_not_mutate_the_snapshot():
    scheduler = FairShareScheduler(policies(NAMES))
    sim = Simulator({name: 2 for name in NAMES})
    snapshot = sim.snapshot()
    frozen = copy.deepcopy(snapshot)
    scheduler.select(snapshot)
    assert snapshot == frozen


# ----------------------------------------------------------------------
# Live equals replay, on the real store.

STORE_MACHINES = ("corei7_desktop", "turionx2_laptop")
STORE_CONFIG = FaseConfig(
    span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name="live vs replay"
)
STORE_TENANTS = ("ada", "bob", "cyd")
#: ``cyd``'s capture ceiling funds two shards, so longer schedules skip.
STORE_POLICIES = (TenantPolicy("cyd", max_captures=2 * len(STORE_CONFIG.falts())),)
WORKERS = ("w0", "w1", "w2")

#: One schedule step: ``(kind draw, argument)``. Kinds are picked by
#: range below, weighted towards claims and completions so that jobs get
#: to finish; the argument picks the tenant, worker, claim or job. Every
#: schedule opens with a submit.
_step = st.tuples(st.integers(0, 99), st.integers(0, 35))
store_ops = st.builds(
    lambda first, rest: [(0, first)] + rest,
    st.integers(0, 35),
    st.lists(_step, min_size=20, max_size=60),
)
_KINDS = (
    (5, "submit"), (40, "claim"), (72, "complete"), (82, "fail"),
    (88, "release"), (93, "cancel"), (100, "reap"),
)


def _store(root):
    return JobStore(root, scheduler=FairShareScheduler(STORE_POLICIES))


def _run_schedule(store, ops):
    """Apply ``ops`` to ``store``; reports come only from claim holders."""
    jobs = []
    for draw, arg in ops:
        kind = next(name for bound, name in _KINDS if draw < bound)
        if kind == "submit":
            n_machines, n_bands, retries = 1 + arg % 2, 1 + arg // 2 % 2, arg // 4 % 3
            step = STORE_CONFIG.span_high / n_bands
            jobs.append(store.submit(
                tenant=STORE_TENANTS[arg // 12],
                machines=STORE_MACHINES[:n_machines],
                pairs=((MicroOp.LDM, MicroOp.LDL1),),
                config=STORE_CONFIG,
                bands=tuple((i * step, (i + 1) * step) for i in range(n_bands)),
                max_shard_retries=retries,
            ))
        elif kind == "claim":
            store.claim(WORKERS[arg % len(WORKERS)])
        elif kind == "cancel":
            if jobs:
                store.cancel(jobs[arg % len(jobs)])
        elif kind == "reap":
            store.reap_stale_claims(max_age_s=3600.0, now=time.monotonic() + 7200.0)
        else:
            claims = sorted(
                (job_id, shard_id, worker)
                for job_id in jobs
                for shard_id, worker in store.jobs[job_id].claims.items()
            )
            if not claims:
                continue
            job_id, shard_id, worker = claims[arg % len(claims)]
            if kind == "complete":
                spec = store.shard_spec(job_id, shard_id)
                store.complete_shard(job_id, shard_id, stub_result(spec), worker)
            elif kind == "fail":
                store.fail_shard(job_id, shard_id, "error", f"boom {arg}", worker)
            else:
                store.release_shard(job_id, shard_id, worker, "worker shutting down")
    return jobs


def _observed(store, jobs):
    liveness = ("last_heartbeat_unix", "heartbeat_age_s")
    stats = {
        worker: {key: value for key, value in counts.items() if key not in liveness}
        for worker, counts in store.worker_stats().items()
    }
    return {
        "status": {job_id: store.job_status(job_id) for job_id in jobs},
        "ledgers": {job_id: _ledger_to_dict(store.job_report(job_id).ledger) for job_id in jobs},
        "workers": stats,
        "charged": dict(store.charged),
        "decision": store.decision,
    }


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(ops=store_ops)
def test_replayed_store_equals_the_live_store(ops):
    """Every transition the live store makes, its journal replays to the
    same state: one apply path, so live and replay cannot drift apart."""
    with tempfile.TemporaryDirectory() as scratch:
        live_root, copy_root = Path(scratch) / "live", Path(scratch) / "copy"
        live = _store(live_root).open(server_name="live")
        jobs = _run_schedule(live, ops)
        shutil.copytree(live_root, copy_root)
        replayed = _store(copy_root)
        replayed._replay()  # may append a finalize record; opens no claims
        assert _observed(replayed, jobs) == _observed(live, jobs)

"""The process-parallel survey engine.

The campaign-level parallel paths (``FaseConfig.n_workers``,
``run_fase``'s pair pool) are thread pools: numpy's kernels release the
GIL, so they overlap some work (``run_fase(n_workers=2)`` ran 1.1–1.2x
faster than an in-thread map on a 2-vCPU VM), but much of capture
synthesis and scoring still holds it. A survey is embarrassingly
parallel at a coarser grain: the
(machine, pair, band) shards share nothing, so this engine fans
:class:`~repro.survey.shards.ShardSpec` units across a
``ProcessPoolExecutor`` and merges the picklable results.

Fault model
-----------

A worker *process* can die mid-shard (OOM kill, segfaulting native code,
an operator's ``kill -9``). ``ProcessPoolExecutor`` then fails **every**
in-flight future with ``BrokenProcessPool`` and the pool is unusable —
the innocent shards' failures say nothing about who killed the worker.
The engine therefore runs in rounds:

1. a shared pool round submits all pending shards with ``workers``
   processes; shards that raise ordinary exceptions are charged a
   failure and requeued (bounded by ``max_shard_retries``);
2. if the pool breaks, only the shards *in flight at the break* become
   suspects — they are requeued *uncharged* (ledgered as ``pool-break``)
   into an isolation queue, where each runs alone in a fresh
   single-worker pool so a worker death is attributable: *that* shard is
   charged, retried in isolation while budget remains, and finally
   abandoned with the failure recorded in the
   :class:`~repro.survey.report.SurveyLedger`. Shards that were not in
   flight return to the shared pool in the next round — one bad shard no
   longer collapses the whole survey to single-worker throughput;
3. shared-pool breaks themselves are budgeted survey-wide by
   ``max_pool_breaks``: once spent, shards still waiting for a shared
   pool are abandoned with the distinct ``pool-break-cap`` ledger kind
   (suspects keep their isolated runs — those are attributable), so a
   systematically hostile environment terminates instead of cycling
   break/requeue forever.

One drain picks the route for exhaustive and adaptive surveys alike:
inline at ``workers=1``, isolated single-worker pools when the stall
watchdog is armed there, the shared pool above. Outside the shared pool
every shard runs through one executor, :func:`execute_shard`, which the
service's worker loops call too.

Every pool — a shared round, an isolated suspect, a watched shard — is
one loop, :func:`_pool_round`: it submits in a window of ``workers``,
runs the heartbeat-extended stall sweep (killing the pool when a shard
stalls), salvages the window after a break, and hands each shard's fate
to its caller's ``settle`` the moment it is known. The shared round maps
those fates onto the retry ledger; :func:`execute_shard` maps them onto
its ``(result, failure)`` pair.

A shard result is a pure function of ``(seed, shard_id)`` (see
:mod:`~repro.survey.shards`), so ``workers=1`` — which runs shards
inline, no pool — produces detections identical to any process-parallel
run of the same plan, and re-running a requeued shard is always safe.

With ``keep_spectra=True`` each shard also returns its campaign's trace
rows in :attr:`~repro.survey.shards.ShardResult.spectra`, and the engine
hands them to the caller in ``report.spectra``; a shard that never
completes contributes no rows.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

from ..core.classify import classify_sources
from ..core.config import campaign_low_band
from ..core.pipeline import pair_label
from ..core.report import FaseReport
from ..errors import ManifestError, SurveyError
from ..faults import FAULT_CLASSES
from ..runner import journal_dirname
from ..system import ALL_PRESETS
from ..telemetry import (
    MetricsSnapshot,
    current_telemetry,
    record_planner_ledger,
    record_survey_resume,
    use_telemetry,
)
from ..uarch.isa import MicroOp
from .manifest import (
    JournaledLedger,
    SurveyManifest,
    plan_fingerprint,
    replay_ledger,
)
from .report import (
    DURABILITY_DEGRADED,
    POOL_BREAK,
    POOL_BREAK_CAP,
    SHARD_ERROR,
    SHARD_STALLED,
    WORKER_DEATH,
    SurveyLedger,
    SurveyReport,
)

from .shards import ShardSpec, run_shard

#: Ledger detail for shards a cooperative cancellation reached first.
_CANCEL_DETAIL = "survey cancelled before this shard started"

#: The two pairs the paper's survey focuses on: memory modulation
#: (Figure 11) and on-chip modulation (Figure 13).
DEFAULT_PAIRS = ((MicroOp.LDM, MicroOp.LDL1), (MicroOp.LDL2, MicroOp.LDL1))

#: Named band splits accepted by ``--bands`` and :func:`parse_bands`.
BAND_PRESETS = {
    "full": 1,
    "halves": 2,
    "quarters": 4,
    "eighths": 8,
    "sixteenths": 16,
}


def parse_bands(text):
    """Parse a ``--bands`` value into what :func:`plan_shards` accepts.

    Accepts an integer count (``"8"``), a preset name (``"quarters"``),
    or comma-separated MHz ranges (``"0-2,2-4"``). ``None``/empty means
    no banding. Errors name the valid presets, mirroring the micro-op
    pair parser.
    """
    if text is None:
        return None
    if isinstance(text, int):
        return text
    value = str(text).strip()
    if not value:
        return None
    if value.lower() in BAND_PRESETS:
        return BAND_PRESETS[value.lower()]
    try:
        return int(value)
    except ValueError:
        pass
    spans = []
    try:
        for part in value.split(","):
            low, sep, high = part.partition("-")
            if not sep:
                raise ValueError(part)
            spans.append((float(low) * 1e6, float(high) * 1e6))
    except ValueError:
        presets = ", ".join(sorted(BAND_PRESETS))
        raise SurveyError(
            f"invalid bands value {text!r}; use a band count, one of the presets "
            f"({presets}), or comma-separated MHz ranges like '0-2,2-4'"
        ) from None
    return tuple(spans)


def _coerce_pair(pair):
    try:
        op_x, op_y = pair
        return (MicroOp(getattr(op_x, "value", op_x)), MicroOp(getattr(op_y, "value", op_y)))
    except (TypeError, ValueError) as exc:
        valid = ", ".join(sorted(op.value for op in MicroOp))
        raise SurveyError(f"invalid activity pair {pair!r}; each op must be one of: {valid}") from exc


def _band_spans(config, bands):
    """Normalize ``bands`` into labeled (low, high) spans.

    ``None`` → the config's full span as one band; an int ``n`` → ``n``
    equal contiguous sub-spans; otherwise an iterable of (low, high)
    pairs. Labels are human-readable MHz ranges and double as shard-id
    components.
    """
    if bands is None:
        spans = [(config.span_low, config.span_high)]
    elif isinstance(bands, int):
        if bands < 1:
            raise SurveyError("bands must be >= 1")
        width = (config.span_high - config.span_low) / bands
        spans = [
            (config.span_low + i * width, config.span_low + (i + 1) * width)
            for i in range(bands)
        ]
    else:
        spans = [(float(low), float(high)) for low, high in bands]
        if not spans:
            raise SurveyError("bands must be non-empty")
    for low, high in spans:
        if high <= low:
            raise SurveyError(f"band ({low:g}, {high:g}) has non-positive width")
    return [(f"{low / 1e6:g}-{high / 1e6:g}MHz", (low, high)) for low, high in spans]


def _normalize_fault_classes(fault_classes):
    """``None`` → clean run; ``"all"`` → every class; else validated names."""
    if fault_classes is None:
        return None
    if isinstance(fault_classes, str):
        if fault_classes.strip().lower() in ("all", ""):
            return tuple(FAULT_CLASSES)
        fault_classes = [name.strip() for name in fault_classes.split(",") if name.strip()]
    classes = tuple(fault_classes)
    unknown = [name for name in classes if name not in FAULT_CLASSES]
    if unknown:
        raise SurveyError(f"unknown fault classes {unknown}; choose from {sorted(FAULT_CLASSES)}")
    return classes


def plan_shards(
    machines=None,
    pairs=DEFAULT_PAIRS,
    config=None,
    bands=None,
    seed=0,
    fault_classes=None,
    telemetry_dir=None,
):
    """The survey's work plan: one :class:`ShardSpec` per (machine, pair, band).

    Deterministic in its inputs — the plan order is the aggregation order,
    so reports read the same regardless of which shard finished first.
    """
    config = config or campaign_low_band()
    if machines is None:
        machines = sorted(ALL_PRESETS)
    machines = tuple(machines)
    if not machines:
        raise SurveyError("survey needs at least one machine")
    unknown = [name for name in machines if name not in ALL_PRESETS]
    if unknown:
        raise SurveyError(f"unknown preset machines {unknown}; choose from {sorted(ALL_PRESETS)}")
    pairs = tuple(_coerce_pair(pair) for pair in pairs)
    if not pairs:
        raise SurveyError("survey needs at least one activity pair")
    classes = _normalize_fault_classes(fault_classes)
    spans = _band_spans(config, bands)
    specs = []
    for machine in machines:
        for op_x, op_y in pairs:
            for band_label, (low, high) in spans:
                shard_id = f"{machine}:{pair_label(op_x, op_y)}:{band_label}"
                shard_config = replace(
                    config,
                    span_low=low,
                    span_high=high,
                    n_workers=1,
                    name=config.name or "survey",
                )
                telemetry_jsonl = None
                if telemetry_dir is not None:
                    telemetry_jsonl = str(
                        Path(telemetry_dir) / f"{journal_dirname(shard_id)}.jsonl"
                    )
                specs.append(
                    ShardSpec(
                        shard_id=shard_id,
                        machine=machine,
                        pair=(op_x.value, op_y.value),
                        config=shard_config,
                        band=band_label,
                        seed=seed,
                        fault_classes=classes,
                        telemetry_jsonl=telemetry_jsonl,
                    )
                )
    return tuple(specs)


def refuse_repeated_shards(specs):
    """Raise :class:`SurveyError` naming the first shard id ``specs`` repeats.

    A repeated machine, pair or band, or two band labels that collide
    under ``:g``, would run one shard id twice and count it twice.
    Admission calls this; replay does not, so a journal that already
    holds such a plan still loads.
    """
    seen = set()
    for spec in specs:
        if spec.shard_id in seen:
            raise SurveyError(
                f"the plan repeats shard {spec.shard_id}; "
                "list each machine, pair and band once"
            )
        seen.add(spec.shard_id)


class _ShardQueue:
    """Pending + suspect specs plus the per-shard failure accounting.

    ``pending`` holds shards eligible for shared-pool rounds; ``suspects``
    holds shards that were in flight when a shared pool broke — they run
    alone (attributably) before the shared pool resumes. ``pool_breaks``
    counts shared-pool breaks against the survey-wide ``max_pool_breaks``
    budget.
    """

    def __init__(self, specs, max_shard_retries, ledger, telemetry):
        self.pending = list(specs)
        self.suspects = []
        # A resumed survey's charged failures carry over: a shard that
        # burned retries before the crash gets no fresh budget.
        carried = ledger.charged_failures()
        self.failures = {spec.shard_id: carried.get(spec.shard_id, 0) for spec in specs}
        self.max_shard_retries = max_shard_retries
        self.pool_breaks = 0
        self.ledger = ledger
        self.telemetry = telemetry

    def charge(self, spec, kind, detail, isolate=False):
        """Charge a failure; requeue while budget remains, else abandon.

        ``isolate=True`` sends the requeue back to the suspect queue (the
        shard already proved fatal once, so it keeps running alone);
        otherwise it returns to the shared-pool rounds.
        """
        self.failures[spec.shard_id] += 1
        n = self.failures[spec.shard_id]
        if self.ledger.charge(spec.shard_id, kind, detail, n, self.max_shard_retries):
            (self.suspects if isolate else self.pending).append(spec)
            self.telemetry.event("shard-requeued", shard=spec.shard_id, kind=kind, failures=n)
        else:
            self.telemetry.event("shard-abandoned", shard=spec.shard_id, kind=kind, failures=n)

    def requeue_uncharged(self, spec, detail, isolate=False):
        """Pool-break collateral: requeue without consuming budget."""
        self.ledger.record_failure(
            spec.shard_id,
            POOL_BREAK,
            detail,
            failures=self.failures[spec.shard_id],
            charged=False,
        )
        self.ledger.record_requeue(spec.shard_id)
        (self.suspects if isolate else self.pending).append(spec)
        self.telemetry.event("shard-requeued", shard=spec.shard_id, kind=POOL_BREAK)

    def cancel_remaining(self, detail=_CANCEL_DETAIL):
        """Cooperative cancellation: ledger every not-yet-started shard.

        Cancellation is checked *between* shard executions only — an
        in-flight shard always finishes (and persists to the manifest),
        so completed-shard results stay byte-identical to an
        uninterrupted run. Cancelled shards spend no retry budget and
        re-run normally when the plan is resumed without the
        cancellation.
        """
        remaining, self.pending, self.suspects = self.pending + self.suspects, [], []
        for spec in remaining:
            self.ledger.record_cancelled(spec.shard_id, detail)
            self.telemetry.event("shard-cancelled", shard=spec.shard_id)
        return len(remaining)

    def abandon_for_pool_break_cap(self, max_pool_breaks):
        """Abandon every shard still waiting on a shared pool.

        Called when the survey-wide shared-pool break budget is spent.
        Suspects are *not* abandoned here — their isolated runs are
        attributable and individually bounded by ``max_shard_retries``.
        """
        abandoned, self.pending = self.pending, []
        for spec in abandoned:
            detail = (
                f"survey hit its shared-pool break budget "
                f"(max_pool_breaks={max_pool_breaks}) before this shard could run"
            )
            self.ledger.record_failure(
                spec.shard_id,
                POOL_BREAK_CAP,
                detail,
                failures=self.failures[spec.shard_id],
                charged=False,
            )
            self.ledger.record_abandoned(spec.shard_id, detail)
            self.telemetry.event("shard-abandoned", shard=spec.shard_id, kind=POOL_BREAK_CAP)
        return len(abandoned)


class _ManifestResults(dict):
    """The results sink of a durable survey: completion implies a record.

    Dropping in for the plain results dict keeps every scheduler path
    (serial, shared-pool, isolation, planner rounds) manifest-aware
    without threading a journal through their signatures: the first time
    a shard's result lands here it is appended to the manifest before it
    is visible in memory, so the in-memory state never runs ahead of the
    durable state.
    """

    def __init__(self, manifest):
        super().__init__()
        self.manifest = manifest

    def __setitem__(self, key, value):
        if key not in self:
            self.manifest.append_shard(value)
        super().__setitem__(key, value)

    def restore(self, mapping):
        """Pre-populate restored results without re-appending them."""
        for key, value in mapping.items():
            dict.__setitem__(self, key, value)


# ----------------------------------------------------------------------
# The one pool loop. A *hung* worker (SIGSTOP, a wedged syscall, an NFS
# stall) never breaks a pool, so without deadlines it wedges the survey
# forever — only worker *death* raises BrokenProcessPool.

#: Fates :func:`_pool_round` hands to ``settle`` beside the ledger's
#: ``SHARD_ERROR`` and ``SHARD_STALLED``: finished, in flight at a worker
#: death, in flight at a stall kill.
_OK, _BROKE, _COLLATERAL = "ok", "broke", "collateral"


def _shard_deadline(spec, started_at, shard_timeout_s):
    """Epoch deadline: ``shard_timeout_s`` past the latest heartbeat.

    Workers touch ``spec.heartbeat_path`` as they make progress (shard
    start, campaign publication), so a slow-but-alive shard keeps
    extending its own deadline; a hung one stops beating and expires.
    """
    base = started_at
    if spec.heartbeat_path is not None:
        try:
            base = max(base, os.path.getmtime(spec.heartbeat_path))
        except OSError:
            pass
    return base + shard_timeout_s


def _kill_pool_workers(pool):
    """SIGKILL every worker process of a pool.

    SIGKILL works on a SIGSTOP'd process where cancellation cannot, and
    deliberately breaks the pool — :func:`_pool_round` then salvages the
    finished futures and hands the innocent in-flight shards back.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.kill()
        except Exception:  # noqa: BLE001 - already-reaped workers are fine
            pass


def _is_cancelled(cancel_event):
    return cancel_event is not None and cancel_event.is_set()


def _pool_round(shard_fn, batch, workers, settle, shard_timeout_s, cancel_event):
    """Run ``batch`` on one fresh pool of ``workers`` processes.

    Submission is windowed to ``workers``, so every outstanding shard is
    executing and carries a live deadline, and a break only touches the
    shards actually running. Cancellation lands between submissions,
    never mid-shard. With ``shard_timeout_s`` the stall sweep kills the
    pool once a shard outlives its heartbeat-extended deadline.

    Each shard leaving the pool goes to ``settle(spec, kind, value)`` as
    soon as its fate is known: ``_OK`` (value: the result),
    ``SHARD_ERROR`` (the message), ``SHARD_STALLED`` (the detail), or —
    value ``None`` — ``_BROKE`` (in flight at a worker death) or
    ``_COLLATERAL`` (in flight at a stall kill). Returns ``(unsubmitted,
    cause)``: the specs never submitted, and ``None``, ``_BROKE`` or
    ``SHARD_STALLED`` for how the pool ended.
    """
    batch = list(batch)
    outstanding = {}  # future -> (spec, submit epoch)
    cause = None

    def settle_future(future, spec, broken):
        nonlocal cause
        try:
            result = future.result()
        except BrokenProcessPool:
            cause = cause or _BROKE
            settle(spec, broken, None)
        except Exception as exc:  # noqa: BLE001 - every shard error is ledgered
            settle(spec, SHARD_ERROR, str(exc))
        else:
            settle(spec, _OK, result)

    # fork keeps worker startup cheap and lets test-injected shard
    # functions resolve in the children without re-import; the children
    # inherit numpy.ma instead of each importing it at its first np.median.
    import numpy.ma  # noqa: F401

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        while cause is None:
            now = time.time()
            deadlines = {}
            if shard_timeout_s is not None:
                deadlines = {
                    future: _shard_deadline(spec, started, shard_timeout_s)
                    for future, (spec, started) in outstanding.items()
                }
            expired = [f for f, due in deadlines.items() if due <= now and not f.done()]
            if expired:
                # A hung worker never breaks the pool on its own, so the
                # sweep forces the break; unlike a worker death's, the
                # culprits are known.
                for future in expired:
                    spec, _ = outstanding.pop(future)
                    settle(
                        spec,
                        SHARD_STALLED,
                        f"no heartbeat within the {shard_timeout_s:g}s shard deadline; "
                        "worker killed",
                    )
                _kill_pool_workers(pool)
                cause = SHARD_STALLED
                break
            while batch and len(outstanding) < workers and not _is_cancelled(cancel_event):
                try:
                    future = pool.submit(shard_fn, batch[0])
                except BrokenProcessPool:
                    cause = _BROKE
                    break
                outstanding[future] = (batch.pop(0), time.time())
            if cause is not None or not outstanding:
                break
            timeout = None
            if shard_timeout_s is not None:
                # A shard submitted after ``now`` is due no earlier than this.
                timeout = max(0.0, min(deadlines.values(), default=now + shard_timeout_s) - now)
            done, _ = wait(outstanding, return_when=FIRST_COMPLETED, timeout=timeout)
            for future in done:
                settle_future(future, outstanding.pop(future)[0], _BROKE)
        # After a break the rest of the window is already failed; salvage
        # any that completed first.
        broken = _COLLATERAL if cause == SHARD_STALLED else _BROKE
        for future, (spec, _) in outstanding.items():
            settle_future(future, spec, broken)
    return batch, cause


def execute_shard(shard_fn, spec, isolated=False, shard_timeout_s=None):
    """Run one shard; returns ``(result, None)`` or ``(None, (kind, detail))``.

    Inline by default; ``isolated=True`` runs it alone in a fresh
    single-worker ``fork`` pool, so a worker death is attributable. A
    ``shard_timeout_s`` implies isolation (an inline call cannot be
    killed) and arms the stall watchdog. ``kind`` is the ledger's
    ``shard-error``, ``shard-stalled`` or ``worker-death``.
    """
    outcome = (None, (WORKER_DEATH, "worker process died running this shard"))

    def settle(_, kind, value):
        nonlocal outcome
        if kind == _OK:
            outcome = (value, None)
        elif kind != _BROKE:
            outcome = (None, (kind, value))

    try:
        if not isolated and shard_timeout_s is None:
            return shard_fn(spec), None
        _pool_round(shard_fn, [spec], 1, settle, shard_timeout_s, None)
    except Exception as exc:  # noqa: BLE001 - every shard error is ledgered
        return None, (SHARD_ERROR, str(exc))
    return outcome


def _drain(
    specs,
    shard_fn,
    results,
    ledger,
    telemetry,
    workers,
    max_shard_retries,
    max_pool_breaks,
    shard_timeout_s=None,
    cancel_event=None,
):
    """Run every spec to a result or a ledgered failure, on the right route.

    ``workers > 1`` runs shared-pool rounds; ``workers == 1`` runs
    inline, or isolated when the watchdog is armed (an inline call
    cannot be killed). Suspects — the shards in flight at a shared-pool
    break — run alone first, so guilt is attributable before the shared
    pool resumes: an isolated death is charged and requeued back into
    isolation until its retry budget runs out.
    """
    queue = _ShardQueue(specs, max_shard_retries, ledger, telemetry)
    if workers == 1 and shard_timeout_s is not None:
        queue.suspects, queue.pending = queue.pending, []

    def charge(spec, kind, detail, isolate):
        queue.charge(spec, kind, detail, isolate=isolate)
        if kind == SHARD_STALLED:
            telemetry.count("shards_stalled")
            telemetry.event("shard-stalled", shard=spec.shard_id, isolated=True)

    def settle(spec, kind, value):
        if kind == _OK:
            results[spec.shard_id] = value
            telemetry.event("shard-finished", shard=spec.shard_id)
        elif kind == _BROKE:
            # Guilt is unattributable in a shared pool: the shard becomes
            # a suspect and re-runs alone.
            queue.requeue_uncharged(
                spec, "a worker process died while this shard was in flight", isolate=True
            )
        elif kind == _COLLATERAL:
            # The stalled culprit was charged; this shard merely shared
            # the killed pool, so it returns to the shared rounds.
            queue.requeue_uncharged(
                spec,
                "the survey killed a stalled worker's pool; this shard was innocent collateral",
            )
        else:
            charge(spec, kind, value, isolate=kind == SHARD_STALLED)

    def run_alone(line, isolated):
        while line:
            if _is_cancelled(cancel_event):
                queue.cancel_remaining()
                return
            spec = line.pop(0)
            result, failure = execute_shard(
                shard_fn, spec, isolated=isolated, shard_timeout_s=shard_timeout_s
            )
            if failure is None:
                settle(spec, _OK, result)
            else:
                charge(spec, *failure, isolate=isolated)

    while queue.pending or queue.suspects:
        if _is_cancelled(cancel_event):
            queue.cancel_remaining()
            return
        run_alone(queue.suspects, isolated=True)
        if workers == 1:
            run_alone(queue.pending, isolated=False)
            continue
        if not queue.pending:
            continue
        batch, queue.pending = queue.pending, []
        unsubmitted, cause = _pool_round(
            shard_fn, batch, workers, settle, shard_timeout_s, cancel_event
        )
        if _is_cancelled(cancel_event):
            for spec in unsubmitted:
                ledger.record_cancelled(spec.shard_id, _CANCEL_DETAIL)
                telemetry.event("shard-cancelled", shard=spec.shard_id)
            unsubmitted = []
        for spec in unsubmitted:
            # Never submitted, so not a suspect: back to the shared pool.
            queue.requeue_uncharged(spec, "the pool broke before this shard was submitted")
        if cause == SHARD_STALLED:
            # A stall kill is the survey's own doing, charged to the
            # stalled shard's retry budget: it does not spend the
            # environment-hostility budget.
            telemetry.event("survey-stall-kill")
        elif cause == _BROKE:
            queue.pool_breaks += 1
            telemetry.event(
                "survey-pool-broke",
                pool_breaks=queue.pool_breaks,
                max_pool_breaks=max_pool_breaks,
            )
            if queue.pool_breaks > max_pool_breaks:
                n = queue.abandon_for_pool_break_cap(max_pool_breaks)
                telemetry.event("survey-pool-break-cap", n_abandoned=n)


def _aggregate(specs, results, ledger, base_description):
    """Merge shard results into one :class:`SurveyReport`, in plan order."""
    report = SurveyReport(
        config_description=base_description,
        ledger=ledger,
        n_shards=len(specs),
        n_completed=len(results),
    )
    per_machine = {}  # preset key -> (FaseReport, sets_by_activity, memory, onchip)
    merged_metrics = MetricsSnapshot(counters={}, gauges={}, histograms={})
    multi_band = len({spec.band for spec in specs}) > 1
    for spec in specs:
        shard = results.get(spec.shard_id)
        if shard is None:
            continue
        merged_metrics = merged_metrics.merge(MetricsSnapshot.from_dict(shard.metrics))
        entry = per_machine.get(shard.machine)
        if entry is None:
            fase = FaseReport(
                machine_name=shard.machine_name, config_description=base_description
            )
            entry = per_machine[shard.machine] = (fase, {}, [], [])
        fase, sets_by_activity, memory_labels, onchip_labels = entry
        label = f"{shard.pair_label} [{shard.band}]" if multi_band else shard.pair_label
        activity = shard.activity
        activity.activity_label = label
        fase.activities[label] = activity
        sets_by_activity[label] = activity.harmonic_sets
        (memory_labels if shard.is_memory_pair else onchip_labels).append(label)
    for fase, sets_by_activity, memory_labels, onchip_labels in per_machine.values():
        fase.sources = classify_sources(
            sets_by_activity,
            memory_labels=tuple(memory_labels),
            onchip_labels=tuple(onchip_labels),
        )
        report.machines[fase.machine_name] = fase
    if report.machines:
        # Section 5's cross-machine view: one pseudo-activity per machine;
        # a source's modulating_labels become the machines sharing it.
        report.comparison = classify_sources(
            {name: fase.all_harmonic_sets() for name, fase in report.machines.items()},
            memory_labels=(),
            onchip_labels=(),
        )
    report.telemetry = merged_metrics.to_dict()
    return report, merged_metrics


def run_survey(
    machines=None,
    pairs=DEFAULT_PAIRS,
    config=None,
    bands=None,
    seed=0,
    workers=1,
    fault_classes=None,
    resume=True,
    telemetry_dir=None,
    telemetry=None,
    max_shard_retries=2,
    max_pool_breaks=3,
    keep_spectra=False,
    shard_fn=None,
    planner=None,
    manifest_dir=None,
    shard_timeout_s=None,
    cancel_event=None,
):
    """Survey many machines with process-level parallelism.

    ``machines`` are preset keys (default: all four of the paper's test
    systems); ``pairs`` X/Y micro-op pairs; ``bands`` optionally splits
    the config's span (int → equal sub-bands, or explicit (low, high)
    pairs). ``workers`` > 1 fans shards across that many *processes*;
    ``workers=1`` runs them inline — detections are identical either way
    for the same plan and seed.

    ``fault_classes`` (``"all"`` or names) runs every shard degraded;
    ``telemetry_dir`` streams each shard's records to
    ``<dir>/<shard>.jsonl``, and every shard's metrics snapshot is merged
    into ``report.telemetry``.
    ``telemetry`` (a parent-side :class:`~repro.telemetry.Telemetry`)
    additionally receives survey lifecycle events and the merged
    snapshot. A shard whose worker process dies is requeued at most
    ``max_shard_retries`` times, then abandoned with the failure in
    ``report.ledger``; shared-pool breaks are additionally budgeted
    survey-wide by ``max_pool_breaks`` — once spent, shards still
    waiting for a shared pool are abandoned with the ``pool-break-cap``
    ledger kind instead of cycling break/requeue forever.

    ``keep_spectra=True`` keeps the raw spectra: every shard returns its
    campaign's trace rows with its result, and the report carries them
    as ``report.spectra[shard_id]``
    (:class:`~repro.survey.shards.ShardSpectra`). Shards restored from a
    manifest return no rows.

    ``shard_fn`` replaces :func:`~repro.survey.shards.run_shard` in
    tests; it must be a module-level (picklable) callable.

    ``planner`` (an :class:`~repro.survey.planner.AdaptivePlanner`)
    switches the survey onto the budgeted adaptive schedule: every shard
    is pre-scanned at low resolution, full-resolution captures go to
    high-promise shards first under the planner's budget, and funded
    shards early-stop as soon as their Eq. 1 evidence provably cannot
    reach the detection threshold. The returned report carries the
    reconciled :class:`~repro.survey.planner.PlanAccounting` in
    ``report.planning`` and one ledger decision per shard the planner
    cut short. Adaptive surveys support clean runs only —
    ``fault_classes``, ``keep_spectra``, ``shard_fn`` and
    ``cancel_event`` are incompatible with a planner — but they are
    durable through ``manifest_dir``, which journals the planner's
    pre-scan promises and per-shard budget accounting alongside the
    results.

    ``manifest_dir`` is the one way a survey resumes: every shard
    outcome, ledger event, and planner decision is appended to a
    checksummed journal (:mod:`~repro.survey.manifest`) as it happens,
    and re-running the same plan with ``resume=True`` skips completed
    shards byte-identically, replays the ledger, and resumes an adaptive
    plan's budget mid-round. A manifest that stops being writable
    (``ENOSPC``) degrades the survey to non-durable execution — ledgered
    as ``durability-degraded`` — instead of crashing it.

    ``shard_timeout_s`` arms the stall watchdog: each shard must either
    finish or touch its heartbeat file within that many seconds, or its
    worker is killed, the shard is charged a ``shard-stalled`` failure
    against ``max_shard_retries``, and it retries in isolation. Stall
    kills are the survey's own doing and never spend ``max_pool_breaks``;
    innocent shards sharing the killed pool are requeued uncharged. With
    ``workers=1`` the watchdog routes shards through single-worker pools
    (an inline call cannot be killed).

    ``cancel_event`` (a ``threading.Event`` or ``multiprocessing.Event``)
    arms cooperative cancellation: the engine checks it between shard
    submissions — never mid-shard — so in-flight shards finish (and
    persist to the manifest) while every not-yet-started shard is
    ledgered as ``cancelled``. A cancelled survey returns a normal
    report with the coverage gap in ``n_completed``; re-running the same
    plan with ``manifest_dir``/``resume=True`` and no cancellation
    completes exactly the remaining shards.
    """
    if workers < 1:
        raise SurveyError("workers must be >= 1")
    if planner is not None:
        incompatible = {
            "fault_classes": fault_classes is not None,
            "keep_spectra": keep_spectra,
            "shard_fn": shard_fn is not None,
            "cancel_event": cancel_event is not None,
        }
        clashes = [name for name, clash in incompatible.items() if clash]
        if clashes:
            raise SurveyError(
                f"adaptive planning supports clean, non-durable surveys only; "
                f"incompatible with: {', '.join(clashes)}"
            )
    if max_shard_retries < 0:
        raise SurveyError("max_shard_retries must be >= 0")
    if max_pool_breaks < 0:
        raise SurveyError("max_pool_breaks must be >= 0")
    if shard_timeout_s is not None:
        try:
            shard_timeout_s = float(shard_timeout_s)
        except (TypeError, ValueError):
            shard_timeout_s = -1.0
        if shard_timeout_s <= 0:
            raise SurveyError(
                "shard_timeout_s must be a positive number of seconds "
                "(or None to disable the stall watchdog)"
            )
    config = config or campaign_low_band()
    specs = plan_shards(
        machines=machines,
        pairs=pairs,
        config=config,
        bands=bands,
        seed=seed,
        fault_classes=fault_classes,
        telemetry_dir=telemetry_dir,
    )
    refuse_repeated_shards(specs)
    if telemetry_dir is not None:
        Path(telemetry_dir).mkdir(parents=True, exist_ok=True)
    shard_fn = shard_fn or run_shard
    manifest = None
    state = None
    if manifest_dir is not None:
        manifest = SurveyManifest(manifest_dir)
        fingerprint = plan_fingerprint(specs, planner=planner)
        if manifest.exists():
            if not resume:
                raise ManifestError(
                    f"a survey manifest already exists at {str(manifest_dir)!r}; "
                    "pass resume=True to continue it or remove the directory"
                )
            manifest.open(fingerprint)
            state = manifest.load()
        else:
            manifest.create(fingerprint, specs, description=config.describe())
    heartbeat_tmp = None
    if shard_timeout_s is not None:
        # Heartbeat files live next to the manifest when there is one
        # (same lifetime as the survey's durable state), else in a
        # private temporary directory cleaned up on exit.
        if manifest_dir is not None:
            heartbeat_dir = Path(manifest_dir) / "heartbeats"
        else:
            heartbeat_tmp = tempfile.TemporaryDirectory(prefix="fase-heartbeats-")
            heartbeat_dir = Path(heartbeat_tmp.name)
        heartbeat_dir.mkdir(parents=True, exist_ok=True)
        specs = tuple(
            replace(
                spec,
                heartbeat_path=str(heartbeat_dir / f"{journal_dirname(spec.shard_id)}.hb"),
            )
            for spec in specs
        )
    results = _ManifestResults(manifest) if manifest is not None else {}
    ledger = JournaledLedger(manifest) if manifest is not None else SurveyLedger()
    try:
        with ExitStack() as stack:
            if telemetry is not None:
                stack.enter_context(use_telemetry(telemetry))
            tel = current_telemetry()
            if manifest is not None:

                def _on_degrade(reason):
                    ledger.record_note(
                        None,
                        DURABILITY_DEGRADED,
                        f"{reason}; the survey continues non-durably",
                    )
                    tel.event("survey-durability-degraded", reason=reason)

                manifest.on_degrade = _on_degrade
                if manifest.degraded is not None:
                    # create() failed before the hook was attached.
                    _on_degrade(manifest.degraded)
            restored_promises = {}
            restored_outcomes = {}
            if state is not None:
                replay_ledger(ledger, state.ledger_events)
                results.restore(state.results)
                restored_promises = state.promises
                restored_outcomes = state.outcomes
                record_survey_resume(tel, len(state.results), len(ledger.abandoned))
                tel.event(
                    "survey-resumed",
                    n_restored=len(state.results),
                    n_abandoned=len(ledger.abandoned),
                    torn_tail=state.torn_tail,
                    n_damaged=state.n_damaged,
                )
            done = set(results) | set(ledger.abandoned)
            # A prior run's cancellations are not terminal state: the
            # resumed run re-runs those shards, so their replayed ledger
            # entries would be stale the moment they complete.
            for shard_id in list(ledger.cancelled):
                if shard_id not in done:
                    ledger.cancelled.pop(shard_id)
            if keep_spectra:
                specs = tuple(replace(spec, keep_spectra=True) for spec in specs)
            pending = [spec for spec in specs if spec.shard_id not in done]
            with tel.span("run_survey", n_shards=len(specs), workers=workers):
                if planner is not None:
                    from .planner import run_planned

                    accounting = run_planned(
                        specs,
                        planner,
                        workers=workers,
                        telemetry=tel,
                        ledger=ledger,
                        results=results,
                        max_shard_retries=max_shard_retries,
                        max_pool_breaks=max_pool_breaks,
                        manifest=manifest,
                        restored_promises=restored_promises,
                        restored_outcomes=restored_outcomes,
                        shard_timeout_s=shard_timeout_s,
                    )
                else:
                    _drain(
                        pending,
                        shard_fn,
                        results,
                        ledger,
                        tel,
                        workers,
                        max_shard_retries,
                        max_pool_breaks,
                        shard_timeout_s=shard_timeout_s,
                        cancel_event=cancel_event,
                    )
                report, merged = _aggregate(specs, results, ledger, config.describe())
                if planner is not None:
                    report.planning = accounting
                    record_planner_ledger(tel, accounting)
            if telemetry is not None and telemetry.enabled:
                telemetry.emit_external_snapshot(merged, label="survey-metrics")
        if keep_spectra:
            for spec in specs:
                shard = results.get(spec.shard_id)
                if shard is not None and shard.spectra is not None:
                    report.spectra[spec.shard_id] = shard.spectra
        return report
    finally:
        if heartbeat_tmp is not None:
            heartbeat_tmp.cleanup()

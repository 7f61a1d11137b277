"""Chaos injectors for the survey's crash-safety guarantees.

The durable-orchestration contract — any kill point resumes to identical
detections, a hung worker never wedges a survey, degraded modes finish
with the downgrade ledgered — is only worth stating if something hostile
exercises it. This module is that something: picklable shard functions
that kill or hang their own worker, manifest mutilators that reproduce
kill-mid-write damage, and a context manager that injects full-disk
manifest failures. The ``chaos`` test tier
(``tests/test_chaos.py``) drives them.

Everything here follows the survey test idiom: shard functions are
module-level (pool workers pickle them by reference), the victim is the
``corei7_desktop`` shard, and the scratch directory rides into the
worker through ``config.name`` — the one free-form string on a
:class:`~repro.survey.shards.ShardSpec`.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from pathlib import Path

from ..core.report import ActivityReport
from ..runner import journal_dirname
from .shards import ShardResult, beat_heartbeat

#: The machine whose shards misbehave in every chaos scenario.
VICTIM_MACHINE = "corei7_desktop"


def is_victim(spec):
    return spec.machine == VICTIM_MACHINE


def _scratch(spec):
    return Path(spec.config.name)


def log_attempt(spec):
    """Durably count one execution attempt of this shard."""
    path = _scratch(spec) / f"{journal_dirname(spec.shard_id)}.attempts"
    with open(path, "a") as handle:
        handle.write("attempt\n")
        handle.flush()
        os.fsync(handle.fileno())


def count_attempts(base, shard_id):
    path = Path(base) / f"{journal_dirname(shard_id)}.attempts"
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())


def stub_result(spec):
    """A minimal, deterministic :class:`ShardResult` for stub shards."""
    return ShardResult(
        shard_id=spec.shard_id,
        machine=spec.machine,
        machine_name=spec.machine,
        config_description=spec.config.describe(),
        pair_label="/".join(spec.pair),
        band=spec.band,
        is_memory_pair=True,
        activity=ActivityReport(
            activity_label="/".join(spec.pair), detections=[], harmonic_sets=[]
        ),
        metrics={"counters": {"captures_total": 5}, "gauges": {}, "histograms": {}},
    )


# ----------------------------------------------------------------------
# Hostile shard functions (module-level: picklable by reference).


def well_behaved_shard(spec):
    log_attempt(spec)
    return stub_result(spec)


def kill_worker_once_shard(spec):
    """The victim SIGKILLs its worker on the first attempt only."""
    log_attempt(spec)
    if is_victim(spec):
        sentinel = _scratch(spec) / "killed-once"
        if not sentinel.exists():
            sentinel.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return stub_result(spec)


def hang_worker_once_shard(spec):
    """The victim SIGSTOPs its worker on the first attempt only.

    A stopped process neither finishes nor dies, so nothing but the
    stall watchdog can unwedge the survey — SIGSTOP cannot be caught,
    and the pool never breaks on its own. The heartbeat is beaten once
    *before* stopping, proving the watchdog acts on silence after a
    beat, not just on shards that never started.
    """
    beat_heartbeat(spec.heartbeat_path)
    log_attempt(spec)
    if is_victim(spec):
        sentinel = _scratch(spec) / "hung-once"
        if not sentinel.exists():
            sentinel.touch()
            os.kill(os.getpid(), signal.SIGSTOP)
    return stub_result(spec)


def hang_worker_always_shard(spec):
    """The victim SIGSTOPs its worker on every attempt (never recovers)."""
    beat_heartbeat(spec.heartbeat_path)
    log_attempt(spec)
    if is_victim(spec):
        os.kill(os.getpid(), signal.SIGSTOP)
    return stub_result(spec)


# ----------------------------------------------------------------------
# Manifest mutilators: reproduce kill-mid-write damage byte for byte.


def _log_path(manifest_dir):
    return Path(manifest_dir) / "manifest.jsonl"


def count_records(manifest_dir):
    """Lines currently in the manifest log (0 when absent)."""
    path = _log_path(manifest_dir)
    if not path.exists():
        return 0
    return len([line for line in path.read_bytes().split(b"\n") if line.strip()])


def truncate_manifest(manifest_dir, keep_records):
    """Keep only the first ``keep_records`` lines of the manifest log.

    Simulates a parent killed after exactly that many durable appends —
    any kill point leaves some record prefix, so sweeping
    ``keep_records`` over the full range enumerates every kill point.
    """
    path = _log_path(manifest_dir)
    lines = [line for line in path.read_bytes().split(b"\n") if line.strip()]
    kept = lines[: int(keep_records)]
    data = b"".join(line + b"\n" for line in kept)
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return len(kept)


def torn_manifest_tail(manifest_dir, garbage=b'{"record": {"kind": "shard", "sha'):
    """Append a torn (half-written, unterminated) line to the log.

    The on-disk signature of a kill mid-``write``: the loader must drop
    exactly this tail, report ``torn_tail``, and trust everything before
    it.
    """
    path = _log_path(manifest_dir)
    with open(path, "ab") as handle:
        handle.write(garbage)
        handle.flush()
        os.fsync(handle.fileno())


# ----------------------------------------------------------------------
# Resource-failure injectors.


@contextmanager
def manifest_disk_full(after=0):
    """Make manifest appends fail after ``after`` successful records.

    Reproduces the full-disk end state — the manifest degrades on the
    first failed append — without actually filling a filesystem.
    """
    from .manifest import SurveyManifest

    real_append = SurveyManifest._append
    state = {"appends": 0}

    def failing_append(self, record):
        if self.degraded is not None:
            return False
        if state["appends"] >= after:
            self._degrade(
                "appending to the manifest failed: "
                "[Errno 28] No space left on device (chaos-injected)"
            )
            return False
        state["appends"] += 1
        return real_append(self, record)

    SurveyManifest._append = failing_append
    try:
        yield state
    finally:
        SurveyManifest._append = real_append

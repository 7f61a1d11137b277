"""Survey shards: one (machine, pair, band) work unit per process.

A shard is the survey engine's unit of distribution. Each shard runs the
*entire* existing pipeline — campaign → heuristic → detection → harmonic
grouping — via :func:`~repro.core.run_fase` in its own interpreter, and
every input it needs travels in one picklable :class:`ShardSpec`:

* the machine is named by its preset key and rebuilt inside the worker
  from a seed-derived generator keyed by the machine name alone, so every
  shard of the same machine measures the *same* system model;
* the campaign draws from a child generator keyed by the shard id, so
  shards are statistically independent and each one's result is a pure
  function of ``(seed, shard_id)`` — which is exactly why a process-pool
  run and a serial run of the same plan produce identical detections;
* fault plans are named by class (rebuilt in-process), and telemetry
  streams to a per-shard JSONL whose final
  :class:`~repro.telemetry.MetricsSnapshot` rides back to the parent in
  :attr:`ShardResult.metrics` (the ``to_dict`` form — the cross-process
  snapshot protocol).

A shard is also the survey's unit of resume: it either has a record in
the survey manifest (:mod:`~repro.survey.manifest`) or re-runs whole, so
shards keep no per-capture journals of their own.

:func:`_shard_setup` is the preamble every shard runner shares
(:func:`run_shard` here, the planner's pre-scan and adaptive shards).
:func:`run_shard` is a module-level function so a
``ProcessPoolExecutor`` can pickle it by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.pipeline import is_memory_pair, pair_label, run_fase
from ..errors import SurveyError
from .dataplane import pickle_campaign, publish_campaign
from ..faults import FaultPlan
from ..io import _config_from_dict, _config_to_dict
from ..rng import child_rng, make_rng
from ..system import ALL_PRESETS
from ..telemetry import JsonlSink, Telemetry
from ..uarch.isa import MicroOp


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker process needs to run one survey shard.

    ``pair`` holds micro-op *names* (e.g. ``("LDM", "LDL1")``) and
    ``fault_classes`` fault-class names — plain strings travel across the
    process boundary; the worker rebuilds the real objects. ``config``
    already carries this shard's band as its span.
    """

    shard_id: str
    machine: str  # ALL_PRESETS key
    pair: tuple  # (op_x.value, op_y.value)
    config: object  # FaseConfig narrowed to this shard's band
    band: str  # human-readable band label, e.g. "0-2 MHz"
    seed: int
    fault_classes: object = None  # tuple of names | None (clean run)
    telemetry_jsonl: object = None  # per-shard JSONL path | None
    block: object = None  # BlockRef into the parent's TraceArena | None
    keep_spectra: bool = False  # ship spectra by pickle when no block (shm fallback)
    heartbeat_path: object = None  # stall-watchdog heartbeat file | None


@dataclass(frozen=True)
class ShardResult:
    """What a finished shard sends back to the survey engine.

    ``activity`` is the shard's full
    :class:`~repro.core.report.ActivityReport` (detections, harmonic
    sets, robustness); ``metrics`` is the shard pipeline's final metrics
    snapshot in :meth:`~repro.telemetry.MetricsSnapshot.to_dict` form,
    revived and merged by the parent.

    Everything here is compact — O(detections), never O(bins). When the
    shard was given a shared-memory ``block``, the campaign's spectra
    were written into it in place and ``spectra`` carries only the
    :class:`~repro.survey.dataplane.SpectraMeta` describing the rows;
    the trace bytes themselves never ride the pickle stream.
    """

    shard_id: str
    machine: str
    machine_name: str
    config_description: str
    pair_label: str
    band: str
    is_memory_pair: bool
    activity: object
    metrics: dict
    spectra: object = None  # SpectraMeta (block) | PickledSpectra (shm fallback) | None


def shard_spec_to_dict(spec):
    """The JSON wire form of a :class:`ShardSpec` for remote workers.

    Only the *portable* fields travel — the ones that make the shard a
    pure function of ``(seed, shard_id)``. Host-local plumbing
    (``telemetry_jsonl``, ``heartbeat_path``, the shared-memory
    ``block``) is deliberately dropped: those are paths
    and handles in the *sender's* filesystem/address space, and a
    worker host re-derives its own.
    """
    return {
        "shard_id": spec.shard_id,
        "machine": spec.machine,
        "pair": list(spec.pair),
        "config": _config_to_dict(spec.config),
        "band": spec.band,
        "seed": int(spec.seed),
        "fault_classes": (
            None if spec.fault_classes is None else list(spec.fault_classes)
        ),
    }


def shard_spec_from_dict(data):
    """Revive a wire-form shard spec (see :func:`shard_spec_to_dict`)."""
    fault_classes = data.get("fault_classes")
    return ShardSpec(
        shard_id=data["shard_id"],
        machine=data["machine"],
        pair=tuple(data["pair"]),
        config=_config_from_dict(dict(data["config"])),
        band=data["band"],
        seed=int(data.get("seed", 0)),
        fault_classes=None if fault_classes is None else tuple(fault_classes),
    )


def beat_heartbeat(path):
    """Bump the shard's heartbeat file mtime (advisory, never fails).

    The engine's stall watchdog extends a shard's wall-clock deadline
    from the latest heartbeat, so a slow-but-alive worker is not killed
    as hung. Heartbeats are best effort: a worker that cannot touch the
    file just falls back to the submit-time deadline.
    """
    if path is None:
        return
    try:
        Path(path).touch()
    except OSError:
        pass


def _shard_setup(spec):
    """The shard preamble: ``(preset, root stream, op_x, op_y, label)``."""
    preset = ALL_PRESETS.get(spec.machine)
    if preset is None:
        raise SurveyError(
            f"unknown preset machine {spec.machine!r}; choose from {sorted(ALL_PRESETS)}"
        )
    op_x, op_y = (MicroOp(value) for value in spec.pair)
    return preset, make_rng(spec.seed), op_x, op_y, pair_label(op_x, op_y)


def run_shard(spec):
    """Run one survey shard end to end; returns a :class:`ShardResult`.

    Pure function of the spec: no ambient state flows in (the worker
    builds its own machine, RNG streams, fault plan, and telemetry
    pipeline), so results are identical whether this runs inline in the
    parent or in a pool worker, and re-running a requeued shard is safe.
    """
    preset, root, op_x, op_y, label = _shard_setup(spec)
    # Keyed by machine name only: every shard of this machine rebuilds the
    # identical system model, so per-machine results merge coherently.
    machine = preset(rng=child_rng(root, f"machine:{spec.machine}"))
    fault_plan = None
    if spec.fault_classes is not None:
        fault_plan = FaultPlan.default(tuple(spec.fault_classes))
    sinks = [JsonlSink(spec.telemetry_jsonl)] if spec.telemetry_jsonl else []
    telemetry = Telemetry(sinks=sinks)
    beat_heartbeat(spec.heartbeat_path)
    published = {}
    campaign_hook = None
    if spec.block is not None:
        # Zero-copy data plane: write the campaign's trace rows straight
        # into the parent-owned shared block while they are still alive;
        # only the compact SpectraMeta rides back in the pickled result.
        def campaign_hook(label, result):
            published["meta"] = publish_campaign(spec.block, result)
            beat_heartbeat(spec.heartbeat_path)

    elif spec.keep_spectra:
        # Degraded data plane: the parent could not allocate this shard's
        # shared block (/dev/shm exhausted), so the rows ride the pickle
        # stream instead of failing the shard.
        def campaign_hook(label, result):
            published["meta"] = pickle_campaign(result)
            beat_heartbeat(spec.heartbeat_path)

    try:
        report = run_fase(
            machine,
            pairs=((op_x, op_y),),
            config=spec.config,
            rng=child_rng(root, f"shard:{spec.shard_id}"),
            n_workers=1,  # parallelism lives at the process level
            fault_plan=fault_plan,
            telemetry=telemetry,
            campaign_hook=campaign_hook,
        )
    finally:
        telemetry.close()
    return ShardResult(
        shard_id=spec.shard_id,
        machine=spec.machine,
        machine_name=machine.name,
        config_description=spec.config.describe(),
        pair_label=label,
        band=spec.band,
        is_memory_pair=is_memory_pair(op_x, op_y),
        activity=report.activities[label],
        metrics=telemetry.snapshot().to_dict(),
        spectra=published.get("meta"),
    )

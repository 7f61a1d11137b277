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

import numpy as np

from ..core.pipeline import is_memory_pair, pair_label, run_fase
from ..errors import SurveyError
from ..faults import FaultPlan
from ..io import _config_from_dict, _config_to_dict
from ..rng import child_rng, make_rng
from ..spectrum.trace import SpectrumTrace
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
    keep_spectra: bool = False  # return the campaign's trace rows in the result
    heartbeat_path: object = None  # stall-watchdog heartbeat file | None


@dataclass(frozen=True, eq=False)
class ShardSpectra:
    """One shard's raw spectra: the campaign's trace rows on its grid.

    ``power`` is a ``(n_rows, n_bins)`` float64 array, one row per
    measured ``falt`` in campaign order, with that row's ``falts``,
    ``labels`` and ``flagged`` entries alongside; :meth:`trace` wraps one
    row as a :class:`~repro.spectrum.SpectrumTrace` for the ordinary
    analysis APIs. A ``keep_spectra`` worker builds it and it rides home
    in :attr:`ShardResult.spectra` like any other result field.
    """

    grid: object  # FrequencyGrid
    power: object  # np.ndarray of shape (n_rows, n_bins)
    falts: tuple
    labels: tuple
    flagged: tuple

    @classmethod
    def from_campaign(cls, grid, result):
        """Pack a :class:`~repro.core.campaign.CampaignResult`'s rows."""
        measurements = result.measurements
        return cls(
            grid=grid,
            power=np.stack(
                [np.asarray(m.trace.power_mw, dtype=np.float64) for m in measurements]
            ),
            falts=tuple(float(m.falt) for m in measurements),
            labels=tuple(m.trace.label for m in measurements),
            flagged=tuple(bool(m.flagged) for m in measurements),
        )

    @property
    def n_rows(self):
        return self.power.shape[0]

    def trace(self, i):
        """Row ``i`` as a :class:`SpectrumTrace` (a view, not a copy)."""
        return SpectrumTrace(self.grid, self.power[i], label=self.labels[i])


@dataclass(frozen=True)
class ShardResult:
    """What a finished shard sends back to the survey engine.

    ``activity`` is the shard's full
    :class:`~repro.core.report.ActivityReport` (detections, harmonic
    sets, robustness); ``metrics`` is the shard pipeline's final metrics
    snapshot in :meth:`~repro.telemetry.MetricsSnapshot.to_dict` form,
    revived and merged by the parent.

    Everything here is compact — O(detections), never O(bins) — except
    ``spectra``: a ``keep_spectra`` shard returns its campaign's
    :class:`ShardSpectra` there, which the engine hands to the caller
    unchanged in :attr:`~repro.survey.SurveyReport.spectra`.
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
    spectra: object = None  # ShardSpectra | None


def shard_spec_to_dict(spec):
    """The JSON wire form of a :class:`ShardSpec` for remote workers.

    Only the *portable* fields travel — the ones that make the shard a
    pure function of ``(seed, shard_id)``. Host-local plumbing
    (``telemetry_jsonl``, ``heartbeat_path``) and ``keep_spectra`` are
    deliberately dropped: the paths belong to the *sender's*
    filesystem, and a worker host re-derives its own.
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


def _shard_result(spec, machine, activity, telemetry, spectra=None):
    """The :class:`ShardResult` of a finished shard, exhaustive or adaptive.

    Every identity field is derived here, from the spec and the machine
    the shard built; ``metrics`` is the shard's closed telemetry snapshot.
    """
    op_x, op_y = (MicroOp(value) for value in spec.pair)
    return ShardResult(
        shard_id=spec.shard_id,
        machine=spec.machine,
        machine_name=machine.name,
        config_description=spec.config.describe(),
        pair_label=pair_label(op_x, op_y),
        band=spec.band,
        is_memory_pair=is_memory_pair(op_x, op_y),
        activity=activity,
        metrics=telemetry.snapshot().to_dict(),
        spectra=spectra,
    )


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
    if spec.keep_spectra:

        def campaign_hook(label, result):
            published["spectra"] = ShardSpectra.from_campaign(spec.config.grid(), result)
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
    return _shard_result(
        spec, machine, report.activities[label], telemetry, spectra=published.get("spectra")
    )

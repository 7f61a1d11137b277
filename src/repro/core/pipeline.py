"""End-to-end FASE runs: campaign → heuristic → detection → classification.

``run_fase`` is the one-call public API: give it a system model, an X/Y
micro-op pair (or several), and a campaign configuration; it returns a
:class:`~repro.core.report.FaseReport` with every activity-modulated
carrier, grouped into harmonic sets and classified by which activities
modulate them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path

from ..rng import child_rng, ensure_rng
from ..runner import DurableCampaign, journal_dirname
from ..telemetry import adopt_telemetry, current_telemetry, use_thread_telemetry
from ..uarch.isa import MicroOp
from .campaign import MeasurementCampaign
from .classify import classify_sources
from .config import campaign_low_band
from .detect import CarrierDetector
from .harmonics import group_harmonics
from .report import ActivityReport, FaseReport

#: Micro-ops whose loop bodies travel to DRAM (Section 4 fingerprinting).
_MEMORY_OPS = (MicroOp.LDM, MicroOp.STM)


def pair_label(op_x, op_y):
    """The paper's pair notation, e.g. ``"LDM/LDL1"``."""
    return f"{op_x.value}/{op_y.value}"


def is_memory_pair(op_x, op_y):
    """Whether exactly one side of an X/Y pair is memory traffic.

    Such a pair alternates DRAM activity on and off, so carriers it
    modulates carry the paper's "memory-side" fingerprint; pairs where
    both or neither side hits DRAM fingerprint on-chip mechanisms
    instead. Shared by :func:`run_fase` and the survey engine so both
    classify with the same rule.
    """
    return (op_x in _MEMORY_OPS) != (op_y in _MEMORY_OPS)


def run_fase(
    machine,
    pairs=((MicroOp.LDM, MicroOp.LDL1), (MicroOp.LDL2, MicroOp.LDL1)),
    config=None,
    detector=None,
    latency_model=None,
    rng=None,
    n_workers=None,
    fault_plan=None,
    checkpoint_dir=None,
    resume=True,
    telemetry=None,
    campaign_hook=None,
):
    """Run FASE on a machine for one or more X/Y activity pairs.

    Returns a :class:`FaseReport`. The default pairs are the two the paper
    focuses on: LDM/LDL1 (memory modulation, Figure 11) and LDL2/LDL1
    (on-chip modulation, Figure 13).

    ``n_workers`` (default: the config's ``n_workers``) > 1 fans the
    independent activity pairs across a thread pool; each pair's campaign
    draws from its own seed-derived random stream, so parallel runs are
    reproducible per seed but differ from the serial shared-stream run.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) runs every
    campaign on the degraded-mode path: captures are corrupted per the
    plan, screened, retried up to ``config.max_capture_retries`` times,
    and scored leave-one-out with flagged falt indices excluded. Each
    activity's :class:`~repro.faults.RobustnessReport` lands on its
    :class:`ActivityReport`, including the naive-vs-degraded detection
    delta whenever a capture was actually excluded.

    ``checkpoint_dir`` switches every campaign onto the durable execution
    path (:class:`~repro.runner.DurableCampaign`): each pair checkpoints
    completed captures to a journal under this directory, captures run
    under ``config.capture_timeout_s`` watchdog deadlines, and a killed
    run re-invoked with the same arguments resumes from the journals
    (``resume=False`` refuses an existing journal instead). Durable
    captures use the per-measurement derived streams, so a checkpointed
    run equals a clean ``n_workers > 1`` run trace-for-trace, not the
    serial shared-stream run.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry`) is installed as
    the ambient pipeline for the duration of the run: every campaign,
    capture, scoring, and detection stage below emits spans, events, and
    counters into it, and the final metrics snapshot lands on
    ``report.telemetry``. ``None`` (the default) leaves the ambient
    telemetry untouched — the no-op default adds no overhead.

    ``campaign_hook`` is called once per pair as ``hook(label, result)``
    with the pair's finished :class:`~repro.core.campaign.CampaignResult`
    after detection — the one window where campaign spectra are still
    alive. The report itself stays compact (detections and harmonic sets
    only); a ``keep_spectra`` survey shard uses this hook to pack its
    trace rows without ``run_fase`` ever exposing whole campaigns. A
    hook exception fails the pair's run.
    """
    rng = ensure_rng(rng)
    config = config or campaign_low_band()
    detector = detector or CarrierDetector()
    if n_workers is None:
        n_workers = config.n_workers
    report = FaseReport(machine_name=machine.name, config_description=config.describe())
    sets_by_activity = {}
    memory_labels = []
    onchip_labels = []
    pairs = tuple(pairs)

    def build_campaign(label, pair_rng):
        if checkpoint_dir is not None:
            return DurableCampaign(
                machine,
                config,
                journal_dir=Path(checkpoint_dir) / journal_dirname(label),
                latency_model=latency_model,
                rng=pair_rng,
                fault_plan=fault_plan,
                resume=resume,
            )
        return MeasurementCampaign(
            machine, config, latency_model=latency_model, rng=pair_rng, fault_plan=fault_plan
        )

    def scan_pair(op_x, op_y, pair_rng):
        label = pair_label(op_x, op_y)
        tel = current_telemetry()
        with tel.span("pair", label=label):
            campaign = build_campaign(label, pair_rng)
            result = campaign.run(op_x, op_y, label=label)
            resumed = getattr(campaign, "resumed_indices", ())
            if resumed:
                tel.event(
                    "campaign-resumed",
                    label=label,
                    n_resumed=len(resumed),
                    indices=list(resumed),
                )
            detections = detector.detect(result)
            robustness = result.robustness
            if robustness is not None and result.excluded_indices:
                # What did excluding the flagged captures change? Score the
                # same spectra once more with flags ignored and diff the
                # carrier lists into the ledger.
                naive = detector.detect(result.with_flags_cleared())
                robustness.record_detection_delta(naive, detections)
            if campaign_hook is not None:
                campaign_hook(label, result)
            return label, detections, group_harmonics(detections), robustness

    with ExitStack() as stack:
        if telemetry is not None:
            # Thread-scoped: concurrent pipelines in sibling threads (the
            # service worker fleet) must not clobber each other's ambient
            # install. Pool threads below adopt this thread's pipeline.
            stack.enter_context(use_thread_telemetry(telemetry))
        tel = current_telemetry()
        with tel.span("run_fase", machine=machine.name, n_pairs=len(pairs)):
            if n_workers > 1 and len(pairs) > 1:
                pair_rngs = [
                    child_rng(rng, f"pair:{pair_label(op_x, op_y)}") for op_x, op_y in pairs
                ]
                with ThreadPoolExecutor(
                    max_workers=min(n_workers, len(pairs)),
                    initializer=adopt_telemetry,
                    initargs=(tel,),
                ) as pool:
                    outcomes = list(
                        pool.map(
                            lambda item: scan_pair(item[0][0], item[0][1], item[1]),
                            zip(pairs, pair_rngs),
                        )
                    )
            else:
                outcomes = [scan_pair(op_x, op_y, rng) for op_x, op_y in pairs]

            for (op_x, op_y), (label, detections, harmonic_sets, robustness) in zip(
                pairs, outcomes
            ):
                report.activities[label] = ActivityReport(
                    activity_label=label,
                    detections=detections,
                    harmonic_sets=harmonic_sets,
                    robustness=robustness,
                )
                sets_by_activity[label] = harmonic_sets
                (memory_labels if is_memory_pair(op_x, op_y) else onchip_labels).append(label)
            report.sources = classify_sources(
                sets_by_activity,
                memory_labels=tuple(memory_labels),
                onchip_labels=tuple(onchip_labels),
            )
        if telemetry is not None and telemetry.enabled:
            report.telemetry = telemetry.snapshot().to_dict()
            telemetry.emit_snapshot()
    return report

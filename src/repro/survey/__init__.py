"""repro.survey: the sharded, process-parallel survey engine.

The paper's results are a *survey* — the same FASE procedure over four
test systems, two activity pairs, and three bands (Figure 10), compared
across machines (Figure 17). This package scales that workload past the
GIL: the plan is decomposed into (machine, pair, band) **shards**, each
shard runs the full existing pipeline (campaign → heuristic → detection
→ grouping) in its own worker process, and the engine survives worker
death with bounded, ledgered requeues.

* :mod:`~repro.survey.shards` — :class:`ShardSpec`/:class:`ShardResult`
  and the pure per-process worker :func:`run_shard`; a
  ``run_survey(keep_spectra=True)`` shard returns its raw trace rows as
  a :class:`ShardSpectra` inside its result;
* :mod:`~repro.survey.engine` — :func:`run_survey` (and
  :func:`plan_shards`), the round-based process-pool scheduler with the
  stall watchdog (``shard_timeout_s``);
* :mod:`~repro.survey.planner` — the budgeted adaptive scheduler
  (:class:`AdaptivePlanner`): low-resolution pre-scan promise scoring,
  promise-ordered capture budgeting with per-machine quotas, and
  provable per-shard early stopping
  (``run_survey(planner=AdaptivePlanner(...))``);
* :mod:`~repro.survey.manifest` — the survey-level crash-safe journal
  (:class:`SurveyManifest`): ``run_survey(manifest_dir=...,
  resume=True)`` skips completed shards byte-identically and
  :func:`recover_survey_report` rebuilds a report offline;
* :mod:`~repro.survey.chaos` — kill/hang/torn-tail/disk-full injectors
  behind the ``chaos`` test tier;
* :mod:`~repro.survey.report` — :class:`SurveyReport`,
  :class:`SurveyLedger`, :class:`ShardFailure`.

Entry points: :func:`run_survey` directly, or ``repro survey`` on the
command line (``--machines``, ``--workers``, ``--bands``,
``--manifest-dir``, ``--shard-timeout``, plus the standard
campaign/fault/telemetry flags).
"""

from .engine import BAND_PRESETS, DEFAULT_PAIRS, parse_bands, plan_shards, run_survey
from .manifest import (
    MANIFEST_FORMAT,
    ManifestState,
    SurveyManifest,
    plan_fingerprint,
    recover_survey_report,
    replay_ledger,
)
from .planner import (
    AdaptivePlanner,
    AdaptiveShardOutcome,
    CaptureBudget,
    PlanAccounting,
    ShardPromise,
    prescan_shard,
    run_planned,
    run_shard_adaptive,
)
from .report import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    DURABILITY_DEGRADED,
    EARLY_STOPPED,
    POOL_BREAK,
    POOL_BREAK_CAP,
    PRESCAN_SKIPPED,
    REPORT_JSON_FORMAT,
    SHARD_ERROR,
    SHARD_STALLED,
    WORKER_DEATH,
    ShardFailure,
    SurveyLedger,
    SurveyReport,
)
from .shards import ShardResult, ShardSpec, ShardSpectra, beat_heartbeat, run_shard

__all__ = [
    "AdaptivePlanner",
    "AdaptiveShardOutcome",
    "BAND_PRESETS",
    "BUDGET_EXHAUSTED",
    "CANCELLED",
    "CaptureBudget",
    "DEFAULT_PAIRS",
    "DURABILITY_DEGRADED",
    "EARLY_STOPPED",
    "MANIFEST_FORMAT",
    "ManifestState",
    "POOL_BREAK",
    "POOL_BREAK_CAP",
    "PRESCAN_SKIPPED",
    "PlanAccounting",
    "REPORT_JSON_FORMAT",
    "SHARD_ERROR",
    "SHARD_STALLED",
    "ShardFailure",
    "ShardPromise",
    "ShardResult",
    "ShardSpec",
    "ShardSpectra",
    "SurveyLedger",
    "SurveyManifest",
    "SurveyReport",
    "WORKER_DEATH",
    "beat_heartbeat",
    "parse_bands",
    "plan_fingerprint",
    "plan_shards",
    "prescan_shard",
    "recover_survey_report",
    "replay_ledger",
    "run_planned",
    "run_shard",
    "run_shard_adaptive",
    "run_survey",
]

"""The process-parallel survey engine: sharding, determinism, worker death.

Two kinds of tests share this file. The real-pipeline tests run actual
(small) campaigns through ``run_survey`` and pin the headline guarantee:
a process-pool run produces detections identical to the inline serial run
for the same plan and seed. The fault-tolerance tests swap in stub shard
functions (module-level, so the pool can pickle them by reference) that
kill their own worker process — ``SIGKILL``, the unhandleable kind — and
assert the engine's bounded-requeue/ledger contract. Stub shards smuggle
their scratch directory through ``config.name``, the one free-form string
that rides the :class:`~repro.survey.ShardSpec` into the worker.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
from pathlib import Path

import pytest

from repro import FaseConfig, MicroOp, run_survey
from repro.cli import main
from repro.core.report import ActivityReport
from repro.errors import CampaignError, SurveyError
from repro.runner import journal_dirname
from repro.survey import (
    DEFAULT_PAIRS,
    SurveyLedger,
    SurveyReport,
    plan_shards,
    run_shard,
)
from repro.survey.report import POOL_BREAK, SHARD_ERROR, WORKER_DEATH
from repro.survey.shards import ShardResult
from repro.telemetry import Recorder, Telemetry, read_jsonl

pytestmark = pytest.mark.survey

#: Small but real: 2000-bin grid, the paper's falt1, a wider f_delta so
#: fres can be coarse.
SMALL = FaseConfig(
    span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3, name="survey test"
)
MACHINES = ("corei7_desktop", "turionx2_laptop")
ONE_PAIR = ((MicroOp.LDM, MicroOp.LDL1),)


# ----------------------------------------------------------------------
# Stub shard functions (module-level: pool workers pickle them by name).


def _stub_result(spec):
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


def _is_victim(spec):
    return spec.machine == "corei7_desktop"


def _log_attempt(spec):
    base = Path(spec.config.name)
    with open(base / f"{journal_dirname(spec.shard_id)}.attempts", "a") as handle:
        handle.write("attempt\n")
        handle.flush()
        os.fsync(handle.fileno())


def _stub_shard(spec):
    _log_attempt(spec)
    return _stub_result(spec)


def _kill_always_shard(spec):
    """The victim shard SIGKILLs its worker on every attempt."""
    _log_attempt(spec)
    if _is_victim(spec):
        os.kill(os.getpid(), signal.SIGKILL)
    return _stub_result(spec)


def _kill_once_shard(spec):
    """The victim shard SIGKILLs its worker once, then behaves."""
    _log_attempt(spec)
    if _is_victim(spec):
        sentinel = Path(spec.config.name) / "killed-once"
        if not sentinel.exists():
            sentinel.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return _stub_result(spec)


def _error_shard(spec):
    """The victim shard raises an ordinary exception in the worker."""
    _log_attempt(spec)
    if _is_victim(spec):
        raise CampaignError(f"synthetic shard error in {spec.shard_id}")
    return _stub_result(spec)


def _attempts(base, shard_id):
    path = Path(base) / f"{journal_dirname(shard_id)}.attempts"
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())


def _scratch_config(base):
    """A tiny config whose ``name`` smuggles the scratch dir to stubs."""
    return FaseConfig(
        span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name=str(base)
    )


# ----------------------------------------------------------------------
# Work planning.


class TestPlanShards:
    def test_one_shard_per_machine_pair_band(self):
        specs = plan_shards(machines=MACHINES, pairs=DEFAULT_PAIRS, config=SMALL, bands=2)
        assert len(specs) == 2 * 2 * 2
        assert len({spec.shard_id for spec in specs}) == len(specs)

    def test_int_bands_tile_the_span(self):
        specs = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL, bands=4)
        spans = [(spec.config.span_low, spec.config.span_high) for spec in specs]
        assert spans[0][0] == SMALL.span_low
        assert spans[-1][1] == SMALL.span_high
        for (_, high), (low, _) in zip(spans, spans[1:]):
            assert high == low

    def test_shard_configs_force_single_worker(self):
        specs = plan_shards(machines=MACHINES, config=dataclasses.replace(SMALL, n_workers=4))
        assert all(spec.config.n_workers == 1 for spec in specs)

    def test_unknown_machine_rejected(self):
        with pytest.raises(SurveyError, match="unknown preset machines"):
            plan_shards(machines=("bogus_machine",), config=SMALL)

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(SurveyError, match="unknown fault classes"):
            plan_shards(machines=MACHINES, config=SMALL, fault_classes=("not-a-fault",))

    def test_invalid_pair_rejected(self):
        with pytest.raises(SurveyError, match="invalid activity pair"):
            plan_shards(machines=MACHINES, pairs=(("LDM", "BOGUS"),), config=SMALL)

    def test_empty_plan_rejected(self):
        with pytest.raises(SurveyError):
            plan_shards(machines=(), config=SMALL)
        with pytest.raises(SurveyError):
            plan_shards(machines=MACHINES, pairs=(), config=SMALL)

    def test_telemetry_and_checkpoint_paths_derived(self, tmp_path):
        specs = plan_shards(
            machines=("corei7_desktop",),
            pairs=ONE_PAIR,
            config=SMALL,
            telemetry_dir=tmp_path / "telemetry",
        )
        [spec] = specs
        assert spec.telemetry_jsonl.endswith(".jsonl")
        assert str(tmp_path / "telemetry") in spec.telemetry_jsonl


class TestRunSurveyValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(SurveyError, match="workers"):
            run_survey(machines=MACHINES, config=SMALL, workers=0)

    def test_bad_retry_budget_rejected(self):
        with pytest.raises(SurveyError, match="max_shard_retries"):
            run_survey(machines=MACHINES, config=SMALL, max_shard_retries=-1)


# ----------------------------------------------------------------------
# The real pipeline: serial == process-parallel, structure, telemetry.


@pytest.fixture(scope="module")
def survey_runs(tmp_path_factory):
    """One serial and one 2-process run of the same small survey plan."""
    base = tmp_path_factory.mktemp("survey-runs")
    recorder = Recorder()
    telemetry = Telemetry(sinks=[recorder])
    serial = run_survey(
        machines=MACHINES,
        config=SMALL,
        seed=3,
        workers=1,
        telemetry_dir=base / "shards",
        telemetry=telemetry,
    )
    parallel = run_survey(machines=MACHINES, config=SMALL, seed=3, workers=2)
    return serial, parallel, recorder, base


class TestSurveyPipeline:
    def test_serial_and_parallel_detections_identical(self, survey_runs):
        serial, parallel, _, _ = survey_runs
        assert sorted(serial.machines) == sorted(parallel.machines)
        for name, fase in serial.machines.items():
            other = parallel.machines[name]
            assert sorted(fase.activities) == sorted(other.activities)
            for label, activity in fase.activities.items():
                assert activity.detections == other.activities[label].detections

    def test_serial_and_parallel_sources_identical(self, survey_runs):
        serial, parallel, _, _ = survey_runs
        for name, fase in serial.machines.items():
            ours = [source.describe() for source in fase.sources]
            theirs = [source.describe() for source in parallel.machines[name].sources]
            assert ours == theirs
        assert [s.describe() for s in serial.comparison] == [
            s.describe() for s in parallel.comparison
        ]

    def test_report_structure(self, survey_runs):
        serial, _, _, _ = survey_runs
        assert isinstance(serial, SurveyReport)
        assert serial.n_shards == len(MACHINES) * len(DEFAULT_PAIRS)
        assert serial.n_completed == serial.n_shards
        assert not serial.ledger.failures
        assert len(serial.machines) == len(MACHINES)
        for fase in serial.machines.values():
            assert sorted(fase.activities) == ["LDL2/LDL1", "LDM/LDL1"]
        # Cross-machine comparison labels machines, not activities.
        machine_names = set(serial.machines)
        for source in serial.comparison:
            assert set(source.modulating_labels) <= machine_names
        text = serial.to_text()
        assert "FASE survey over 2 machine(s)" in text
        assert "all shards completed cleanly" in text

    def test_shard_metrics_merge_into_survey_snapshot(self, survey_runs):
        serial, parallel, _, _ = survey_runs
        # Every shard's campaign contributes its captures to the merged
        # cross-process snapshot; serial and parallel agree exactly.
        captures = serial.telemetry["counters"]["captures_total"]
        assert captures > 0 and captures % serial.n_shards == 0
        assert parallel.telemetry["counters"] == serial.telemetry["counters"]
        assert "stage_score_seconds" in serial.telemetry["histograms"]

    def test_per_shard_jsonl_written(self, survey_runs):
        serial, _, _, base = survey_runs
        files = sorted((base / "shards").glob("*.jsonl"))
        assert len(files) == serial.n_shards
        for path in files:
            records = read_jsonl(path)
            assert any(record.get("kind") == "metrics" for record in records)

    def test_parent_telemetry_sees_lifecycle_and_merged_snapshot(self, survey_runs):
        serial, _, recorder, _ = survey_runs
        finished = [r for r in recorder.records if r.get("name") == "shard-finished"]
        assert len(finished) == serial.n_shards
        merged = [r for r in recorder.records if r.get("name") == "survey-metrics"]
        assert merged
        assert merged[-1]["counters"] == serial.telemetry["counters"]


class TestShardPurity:
    def test_run_shard_is_deterministic(self):
        [spec] = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL, seed=7)
        first = run_shard(spec)
        second = run_shard(spec)
        assert first.activity.detections == second.activity.detections

    def test_unknown_machine_in_spec_rejected(self):
        [spec] = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL)
        bad = dataclasses.replace(spec, machine="bogus")
        with pytest.raises(SurveyError, match="unknown preset machine"):
            run_shard(bad)


# ----------------------------------------------------------------------
# Worker death and shard failure: bounded requeue, ledger, completion.


class TestWorkerDeath:
    def _plan_args(self, base):
        return dict(machines=MACHINES, pairs=ONE_PAIR, config=_scratch_config(base))

    def test_killed_shard_is_abandoned_with_bounded_retries(self, tmp_path):
        retries = 1
        report = run_survey(
            **self._plan_args(tmp_path),
            workers=2,
            max_shard_retries=retries,
            shard_fn=_kill_always_shard,
        )
        [victim_id] = [
            spec.shard_id
            for spec in plan_shards(**self._plan_args(tmp_path))
            if _is_victim(spec)
        ]
        # The survey completed: the healthy shard's machine is present.
        assert report.n_completed == 1
        assert "turionx2_laptop" in report.machines
        # The victim was abandoned into the ledger with a worker-death trail.
        assert victim_id in report.ledger.abandoned
        kinds = {failure.kind for failure in report.ledger.failures_for(victim_id)}
        assert kinds <= {WORKER_DEATH, POOL_BREAK}
        assert WORKER_DEATH in kinds
        charged = [f for f in report.ledger.failures_for(victim_id) if f.charged]
        assert len(charged) == retries + 1
        # Bounded attempts: one shared-pool round plus the isolated retries.
        assert _attempts(tmp_path, victim_id) <= retries + 2

    def test_kill_once_shard_recovers_on_requeue(self, tmp_path):
        report = run_survey(
            **self._plan_args(tmp_path),
            workers=2,
            max_shard_retries=2,
            shard_fn=_kill_once_shard,
        )
        assert report.n_completed == report.n_shards == 2
        assert not report.ledger.abandoned
        [victim_id] = [
            spec.shard_id
            for spec in plan_shards(**self._plan_args(tmp_path))
            if _is_victim(spec)
        ]
        assert report.ledger.requeues.get(victim_id, 0) >= 1
        assert report.ledger.n_failures >= 1
        text = report.to_text()
        assert "survey ledger" in text

    def test_erroring_shard_charged_and_abandoned_serial(self, tmp_path):
        report = run_survey(
            **self._plan_args(tmp_path),
            workers=1,
            max_shard_retries=1,
            shard_fn=_error_shard,
        )
        [victim_id] = [
            spec.shard_id
            for spec in plan_shards(**self._plan_args(tmp_path))
            if _is_victim(spec)
        ]
        assert report.n_completed == 1
        assert victim_id in report.ledger.abandoned
        assert "synthetic shard error" in report.ledger.abandoned[victim_id]
        failures = report.ledger.failures_for(victim_id)
        assert [f.kind for f in failures] == [SHARD_ERROR, SHARD_ERROR]
        assert _attempts(tmp_path, victim_id) == 2  # initial + one requeue

    def test_erroring_shard_charged_in_pool_mode(self, tmp_path):
        report = run_survey(
            **self._plan_args(tmp_path),
            workers=2,
            max_shard_retries=0,
            shard_fn=_error_shard,
        )
        [victim_id] = [
            spec.shard_id
            for spec in plan_shards(**self._plan_args(tmp_path))
            if _is_victim(spec)
        ]
        assert victim_id in report.ledger.abandoned
        assert _attempts(tmp_path, victim_id) == 1


# ----------------------------------------------------------------------
# CLI integration.


class TestSurveyCli:
    def test_survey_command_runs_process_parallel(self, capsys):
        code = main(
            [
                "survey", "--machines", "corei7_desktop,turionx2_laptop",
                "--span-high", "1e6", "--fres", "500", "--f-delta", "2.5e3",
                "--pair", "LDM/LDL1", "--workers", "2", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FASE survey over 2 machine(s)" in out
        assert "Intel Core i7 desktop" in out
        assert "AMD Turion X2 laptop" in out
        assert "all shards completed cleanly" in out

    def test_unknown_machine_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--machines", "bogus_machine"])
        assert "unknown preset machines" in str(excinfo.value)

    def test_config_error_exits_cleanly(self):
        """Regression: a bad span config used to escape ``cmd_survey`` as a
        raw ``CampaignError`` traceback instead of a clean exit message."""
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--fres", "1000"])
        assert "f_delta" in str(excinfo.value)

    def test_failure_flushes_telemetry(self, tmp_path):
        """Regression: when the survey died, ``cmd_survey`` dropped the
        telemetry pipeline on the floor; like ``cmd_scan`` it must flush a
        metrics-at-failure snapshot so the JSONL stream explains itself."""
        jsonl = tmp_path / "survey.jsonl"
        with pytest.raises(SystemExit):
            main(
                ["survey", "--machines", "bogus_machine", "--telemetry-jsonl", str(jsonl)]
            )
        records = read_jsonl(jsonl)
        assert any(record.get("name") == "metrics-at-failure" for record in records)

    def test_manifest_flags_round_trip_through_cli(self, tmp_path, capsys):
        """``survey --manifest-dir`` journals the run; re-running with
        ``--resume`` restores it; ``analyze --manifest`` recovers the
        report offline — all without touching run_survey directly."""
        manifest_dir = tmp_path / "manifest"
        argv = [
            "survey", "--machines", "corei7_desktop",
            "--span-high", "1e6", "--fres", "500", "--f-delta", "2.5e3",
            "--pair", "LDM/LDL1", "--seed", "3",
            "--manifest-dir", str(manifest_dir), "--shard-timeout", "60",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "all shards completed cleanly" in first

        # The same plan without --resume must refuse the existing manifest.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert "pass resume=True" in str(excinfo.value)

        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "(1/1 shards)" in resumed

        assert main(["analyze", "--manifest", str(manifest_dir)]) == 0
        recovered = capsys.readouterr().out
        assert "(1/1 shards)" in recovered
        assert "all shards completed cleanly" in recovered

    def test_bad_shard_timeout_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--shard-timeout", "-5"])
        assert "positive number of seconds" in str(excinfo.value)

    def test_analyze_without_input_or_manifest_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])
        assert "--manifest DIR" in str(excinfo.value)

    def test_analyze_with_missing_manifest_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--manifest", str(tmp_path / "absent")])
        assert "no survey manifest" in str(excinfo.value)


# ----------------------------------------------------------------------
# _ShardQueue edge cases: the retry-budget boundary, uncharged collateral,
# and how the ledger narrates a mixed-outcome survey.


class TestShardQueueBudgetBoundary:
    def _queue(self, max_shard_retries):
        from repro.survey.engine import _ShardQueue

        specs = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL)
        return _ShardQueue(
            specs,
            max_shard_retries=max_shard_retries,
            ledger=SurveyLedger(),
            telemetry=Telemetry(),
        ), specs[0]

    def test_charge_at_exact_retry_budget_still_requeues(self):
        """The budget is *retries*: failure n is requeued while
        ``n <= max_shard_retries``; only failure max+1 abandons."""
        queue, spec = self._queue(max_shard_retries=2)
        queue.pending.clear()
        queue.charge(spec, WORKER_DEATH, "first death")
        queue.charge(spec, WORKER_DEATH, "second death")
        assert queue.failures[spec.shard_id] == 2
        assert [s.shard_id for s in queue.pending] == [spec.shard_id] * 2
        assert queue.ledger.requeues[spec.shard_id] == 2
        assert spec.shard_id not in queue.ledger.abandoned

    def test_charge_past_retry_budget_abandons(self):
        queue, spec = self._queue(max_shard_retries=2)
        queue.pending.clear()
        for _ in range(3):
            queue.charge(spec, WORKER_DEATH, "death")
        assert queue.failures[spec.shard_id] == 3
        assert len(queue.pending) == 2  # the third charge did not requeue
        assert "after 3 failure(s)" in queue.ledger.abandoned[spec.shard_id]

    def test_zero_retries_abandons_on_first_charge(self):
        queue, spec = self._queue(max_shard_retries=0)
        queue.pending.clear()
        queue.charge(spec, SHARD_ERROR, "boom")
        assert queue.pending == []
        assert spec.shard_id in queue.ledger.abandoned

    def test_uncharged_requeue_then_charged_isolation(self):
        """Pool-break collateral costs nothing; the subsequent isolated
        death is the first *charged* failure — and stays isolated."""
        queue, spec = self._queue(max_shard_retries=1)
        queue.pending.clear()
        queue.requeue_uncharged(spec, "shared pool broke", isolate=True)
        assert queue.failures[spec.shard_id] == 0
        assert [s.shard_id for s in queue.suspects] == [spec.shard_id]
        queue.suspects.clear()
        queue.charge(spec, WORKER_DEATH, "died alone", isolate=True)
        assert queue.failures[spec.shard_id] == 1
        assert [s.shard_id for s in queue.suspects] == [spec.shard_id]
        assert queue.pending == []
        first, second = queue.ledger.failures_for(spec.shard_id)
        assert (first.kind, first.charged, first.failures) == (POOL_BREAK, False, 0)
        assert (second.kind, second.charged, second.failures) == (WORKER_DEATH, True, 1)
        assert "not charged" in first.describe()
        assert "failure 1" in second.describe()


class TestLedgerText:
    def test_mixed_abandonment_kinds_and_planner_decisions(self):
        """One ledger can carry every way a shard ends short of clean
        completion; ``to_text`` must narrate all of them."""
        from repro.survey import BUDGET_EXHAUSTED, EARLY_STOPPED
        from repro.survey.report import POOL_BREAK_CAP

        ledger = SurveyLedger()
        ledger.record_failure("s-dead", WORKER_DEATH, "worker died", failures=2)
        ledger.record_abandoned("s-dead", "worker-death after 2 failure(s)")
        ledger.record_failure(
            "s-capped", POOL_BREAK_CAP, "break budget spent", failures=0, charged=False
        )
        ledger.record_abandoned("s-capped", "pool break budget spent")
        ledger.record_planned("s-stopped", EARLY_STOPPED, "stopped after 3/5 captures")
        ledger.record_planned("s-unfunded", BUDGET_EXHAUSTED, "no budget remained")
        text = ledger.to_text()
        assert "2 shard failure(s)" in text and "2 abandoned" in text
        assert "s-dead: worker-death (failure 2)" in text
        assert "s-capped: pool-break-cap (not charged)" in text
        assert "planner decisions: 2 shard(s)" in text
        assert "early-stopped s-stopped: stopped after 3/5 captures" in text
        assert "budget-exhausted s-unfunded: no budget remained" in text

    def test_clean_ledger_with_planner_decisions(self):
        from repro.survey import EARLY_STOPPED

        ledger = SurveyLedger()
        ledger.record_planned("s", EARLY_STOPPED, "stopped after 2/5 captures")
        text = ledger.to_text()
        assert "all shards completed cleanly" in text
        assert "planner decisions: 1 shard(s)" in text

    def test_cancelled_ledger_headline_is_not_clean(self):
        """A cancellation left shards unrun; the headline may not claim
        every shard completed."""
        ledger = SurveyLedger()
        ledger.record_cancelled("s", "cancelled before start")
        text = ledger.to_text()
        assert "cancelled with 1 shard(s) never run" in text
        assert "completed cleanly" not in text
        assert "cancelled s: cancelled before start" in text

    def test_degradation_kinds_are_narrated(self):
        """A survey that stalled a worker, lost /dev/shm, and then lost
        its manifest must say all three — shard-scoped notes name the
        shard, survey-wide notes say 'survey'."""
        from repro.survey import DURABILITY_DEGRADED, SHARD_STALLED, SHM_FALLBACK

        ledger = SurveyLedger()
        ledger.record_failure(
            "s-hung", SHARD_STALLED, "no heartbeat within the 30s shard deadline; "
            "worker killed", failures=1,
        )
        ledger.record_note(
            "s-shm", SHM_FALLBACK,
            "shared-memory allocation failed; this shard's spectra ride the pickle stream",
        )
        ledger.record_note(
            None, DURABILITY_DEGRADED,
            "appending to the manifest failed; the survey continues non-durably",
        )
        text = ledger.to_text()
        assert "s-hung: shard-stalled (failure 1)" in text
        assert "worker killed" in text
        assert "degradation notes: 2 event(s)" in text
        assert "shm-fallback s-shm: " in text
        assert "durability-degraded survey: " in text
        assert "continues non-durably" in text


# ----------------------------------------------------------------------
# --bands parsing: accepted spellings and the preset-naming error.


class TestParseBands:
    def test_none_and_empty_mean_unbanded(self):
        from repro.survey import parse_bands

        assert parse_bands(None) is None
        assert parse_bands("") is None
        assert parse_bands("  ") is None

    def test_counts_and_presets(self):
        from repro.survey import BAND_PRESETS, parse_bands

        assert parse_bands(8) == 8
        assert parse_bands("8") == 8
        assert parse_bands("quarters") == 4
        assert parse_bands("QUARTERS") == 4
        assert all(parse_bands(name) == n for name, n in BAND_PRESETS.items())

    def test_mhz_ranges(self):
        from repro.survey import parse_bands

        assert parse_bands("0-2,2-4") == ((0.0, 2e6), (2e6, 4e6))
        assert parse_bands("0.5-1.5") == ((0.5e6, 1.5e6),)

    def test_invalid_value_names_presets(self):
        from repro.survey import parse_bands

        with pytest.raises(SurveyError) as excinfo:
            parse_bands("bogus")
        message = str(excinfo.value)
        assert "'bogus'" in message
        for preset in ("full", "halves", "quarters", "eighths", "sixteenths"):
            assert preset in message

    def test_cli_bands_error_exits_cleanly(self):
        """Regression: a bad ``--bands`` used to escape ``cmd_survey`` as
        a raw traceback; it must exit cleanly and name the presets,
        mirroring the ``--pair`` parser's error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--bands", "bogus"])
        message = str(excinfo.value)
        assert "invalid bands value" in message
        assert "quarters" in message

    def test_cli_accepts_preset_bands(self, capsys):
        code = main(
            [
                "survey", "--machines", "corei7_desktop",
                "--span-high", "1e6", "--fres", "500", "--f-delta", "2.5e3",
                "--pair", "LDM/LDL1", "--bands", "halves", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[0-0.5MHz]" in out


# ----------------------------------------------------------------------
# Cooperative cancellation: stop now, lose nothing, resume later.


class TestCancellation:
    def _plan_args(self, base):
        return dict(machines=MACHINES, pairs=ONE_PAIR, config=_scratch_config(base))

    def test_preset_event_cancels_every_shard(self, tmp_path):
        event = threading.Event()
        event.set()
        report = run_survey(
            **self._plan_args(tmp_path), workers=1, shard_fn=_stub_result,
            cancel_event=event,
        )
        assert report.n_completed == 0
        assert report.n_shards == 2
        assert len(report.ledger.cancelled) == 2
        assert not report.ledger.failures  # cancellation is not a failure
        assert "cancelled" in report.to_text()

    def test_preset_event_cancels_in_pool_mode_too(self, tmp_path):
        event = threading.Event()
        event.set()
        report = run_survey(
            **self._plan_args(tmp_path), workers=2, shard_fn=_stub_result,
            cancel_event=event,
        )
        assert report.n_completed == 0
        assert len(report.ledger.cancelled) == 2

    def test_mid_run_cancel_keeps_finished_shards(self, tmp_path):
        """Serial mode runs shards in-process, so a shard body can flip
        the event deterministically between shards."""
        event = threading.Event()

        def first_then_cancel(spec):
            event.set()
            return _stub_result(spec)

        report = run_survey(
            **self._plan_args(tmp_path), workers=1, shard_fn=first_then_cancel,
            cancel_event=event,
        )
        assert report.n_completed == 1  # the in-flight shard finished
        assert len(report.ledger.cancelled) == 1

    def test_resume_after_cancel_reruns_cancelled_shards(self, tmp_path):
        """Regression for the service's cancel/resume path: a cancelled
        survey resumed from its manifest re-runs exactly the cancelled
        shards and converges to the uninterrupted report — stale
        cancellation ledger entries must not survive the resume."""
        golden = run_survey(**self._plan_args(tmp_path), workers=1, seed=3)

        event = threading.Event()

        def first_then_cancel(spec):
            event.set()
            return run_shard(spec)

        manifest_dir = tmp_path / "manifest"
        cancelled = run_survey(
            **self._plan_args(tmp_path), workers=1, seed=3,
            shard_fn=first_then_cancel, cancel_event=event,
            manifest_dir=manifest_dir,
        )
        assert cancelled.n_completed == 1
        assert len(cancelled.ledger.cancelled) == 1

        resumed = run_survey(
            **self._plan_args(tmp_path), workers=1, seed=3,
            manifest_dir=manifest_dir, resume=True,
        )
        assert resumed.n_completed == golden.n_completed == 2
        assert not resumed.ledger.cancelled  # the stale entry is gone
        for name, fase in golden.machines.items():
            other = resumed.machines[name]
            for label, activity in fase.activities.items():
                assert activity.detections == other.activities[label].detections

    def test_cancel_event_incompatible_with_planner(self, tmp_path):
        from repro.survey import AdaptivePlanner

        event = threading.Event()
        with pytest.raises(SurveyError, match="cancel_event"):
            run_survey(
                **self._plan_args(tmp_path),
                planner=AdaptivePlanner(capture_budget=10),
                cancel_event=event,
            )


# ----------------------------------------------------------------------
# The report's JSON codec: the service's wire format.


class TestReportJsonRoundTrip:
    def test_real_report_round_trips_detection_for_detection(self, survey_runs):
        serial, _, _, _ = survey_runs
        revived = SurveyReport.from_json(serial.to_json())
        assert sorted(revived.machines) == sorted(serial.machines)
        for name, fase in serial.machines.items():
            other = revived.machines[name]
            for label, activity in fase.activities.items():
                # Frozen-dataclass equality: every field of every
                # detection survives the JSON round trip exactly.
                assert other.activities[label].detections == activity.detections
                assert [
                    (s.fundamental, [(o, d.frequency) for o, d in s.members])
                    for s in other.activities[label].harmonic_sets
                ] == [
                    (s.fundamental, [(o, d.frequency) for o, d in s.members])
                    for s in activity.harmonic_sets
                ]
            assert [s.describe() for s in other.sources] == [
                s.describe() for s in fase.sources
            ]
        assert [s.describe() for s in revived.comparison] == [
            s.describe() for s in serial.comparison
        ]
        assert revived.n_shards == serial.n_shards
        assert revived.n_completed == serial.n_completed
        assert revived.telemetry == serial.telemetry
        # And the fixed point: dict -> report -> dict is the identity.
        assert revived.to_dict() == serial.to_dict()

    def test_harmonic_members_reference_shared_detections(self, survey_runs):
        """Harmonic-set members serialize as indices into the activity's
        detection list, so the revived objects share identity the way
        the originals do."""
        serial, _, _, _ = survey_runs
        revived = SurveyReport.from_json(serial.to_json())
        for fase in revived.machines.values():
            for activity in fase.activities.values():
                for harmonic_set in activity.harmonic_sets:
                    for _, detection in harmonic_set.members:
                        if detection in activity.detections:
                            index = activity.detections.index(detection)
                            assert activity.detections[index] is detection

    def test_ledger_and_format_survive(self, tmp_path):
        report = run_survey(
            machines=MACHINES, pairs=ONE_PAIR, config=_scratch_config(tmp_path),
            workers=2, max_shard_retries=1, shard_fn=_kill_always_shard,
        )
        assert report.ledger.abandoned  # fixture produced a damaged ledger
        payload = json.loads(report.to_json())
        assert payload["format"] == "fase-survey-report-v1"
        revived = SurveyReport.from_json(report.to_json())
        assert revived.ledger.abandoned == report.ledger.abandoned
        assert revived.ledger.requeues == report.ledger.requeues
        assert [dataclasses.asdict(f) for f in revived.ledger.failures] == [
            dataclasses.asdict(f) for f in report.ledger.failures
        ]
        assert revived.to_dict() == report.to_dict()

    def test_cancelled_shards_survive(self, tmp_path):
        event = threading.Event()
        event.set()
        report = run_survey(
            machines=MACHINES, pairs=ONE_PAIR, config=_scratch_config(tmp_path),
            workers=1, shard_fn=_stub_result, cancel_event=event,
        )
        revived = SurveyReport.from_json(report.to_json())
        assert revived.ledger.cancelled == report.ledger.cancelled

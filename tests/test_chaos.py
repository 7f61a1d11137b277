"""Chaos tier: the durable-orchestration contract under hostile conditions.

Every test here injects a failure the engine claims to survive — a
parent killed at an arbitrary journal prefix, a worker SIGSTOPped
mid-shard, a manifest on a full disk — and asserts the contract end to end: resume produces *identical*
detections, source grouping, and ledger totals; a hung worker costs one
bounded timeout, not the survey; degraded modes finish with the
downgrade ledgered. Stub-shard scenarios use the injectors in
:mod:`repro.survey.chaos`; the kill-point matrices also run the real
(small) pipeline so serialization fidelity is covered, not just
orchestration.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaseConfig, MicroOp, run_survey
from repro.survey import (
    AdaptivePlanner,
    SurveyManifest,
    plan_shards,
)
from repro.survey.chaos import (
    VICTIM_MACHINE,
    count_attempts,
    count_records,
    hang_worker_always_shard,
    hang_worker_once_shard,
    kill_worker_once_shard,
    torn_manifest_tail,
    truncate_manifest,
    well_behaved_shard,
)
from repro.survey.report import SHARD_STALLED
from repro.telemetry import Recorder, Telemetry

pytestmark = pytest.mark.chaos

#: Small but real: 2000-bin grid with a populated low band.
SMALL = FaseConfig(
    span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3,
    name="chaos test",
)
MACHINES = ("corei7_desktop", "turionx2_laptop")
ONE_PAIR = ((MicroOp.LDM, MicroOp.LDL1),)
REAL_PLAN = dict(machines=MACHINES, pairs=ONE_PAIR, config=SMALL, seed=3)


def _scratch_config(base):
    """A tiny config whose ``name`` smuggles the scratch dir to stubs."""
    return FaseConfig(
        span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name=str(base)
    )


def _stub_plan(base):
    return dict(machines=MACHINES, pairs=ONE_PAIR, config=_scratch_config(base))


def _victim_id(plan):
    return next(
        spec.shard_id for spec in plan_shards(**plan) if spec.machine == VICTIM_MACHINE
    )


def carrier_map(report):
    return {
        name: sorted(
            round(det.frequency, 3)
            for activity in fase.activities.values()
            for det in activity.detections
        )
        for name, fase in report.machines.items()
    }


def source_map(report):
    return {
        name: [source.describe() for source in fase.sources]
        for name, fase in report.machines.items()
    }


# ----------------------------------------------------------------------
# Kill at any point: the manifest prefix matrix, real pipeline.


class TestKillPointMatrix:
    def test_every_prefix_resumes_to_identical_report(self, tmp_path):
        """Truncating the journal to any record prefix — with or without
        a torn tail welded on — and resuming reproduces the uninterrupted
        survey: same detections, same source grouping, same ledger."""
        golden = tmp_path / "golden"
        baseline = run_survey(**REAL_PLAN, manifest_dir=golden)
        assert baseline.n_completed == 2
        assert any(carrier_map(baseline).values())  # fixture is non-trivial
        total = count_records(golden)
        assert total >= 2

        for keep in range(total):
            for tear in (False, True):
                work = tmp_path / f"kill-{keep}-{'torn' if tear else 'clean'}"
                shutil.copytree(golden, work)
                truncate_manifest(work, keep)
                if tear:
                    torn_manifest_tail(work)
                resumed = run_survey(**REAL_PLAN, manifest_dir=work)
                assert resumed.n_completed == baseline.n_completed, (keep, tear)
                assert carrier_map(resumed) == carrier_map(baseline), (keep, tear)
                assert source_map(resumed) == source_map(baseline), (keep, tear)
                assert resumed.ledger.to_text() == baseline.ledger.to_text(), (keep, tear)

    def test_worker_death_history_survives_the_kill(self, tmp_path):
        """A resume must replay ledgered failures from before the kill,
        not just the shard results: the final report still narrates the
        worker death the first run survived."""
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        first = run_survey(
            **plan,
            shard_fn=kill_worker_once_shard,
            workers=2,
            manifest_dir=manifest_dir,
            max_shard_retries=2,
        )
        assert first.n_completed == 2
        assert first.ledger.failures  # the death was ledgered (pool-break kind)
        truncate_manifest(manifest_dir, count_records(manifest_dir) - 1)
        resumed = run_survey(
            **plan, shard_fn=kill_worker_once_shard, workers=2,
            manifest_dir=manifest_dir, max_shard_retries=2,
        )
        assert resumed.n_completed == 2
        assert resumed.ledger.to_text() == first.ledger.to_text()


# ----------------------------------------------------------------------
# The stall watchdog: SIGSTOPped workers.


class TestStallWatchdog:
    TIMEOUT = 1.5

    def test_hung_worker_killed_retried_in_isolation(self, tmp_path):
        """The satellite contract: a SIGSTOPped worker costs one shard
        timeout, the stalled shard is charged and retried in isolation,
        and the kill is not accounted as a pool break."""
        plan = _stub_plan(tmp_path)
        recorder = Recorder()
        t0 = time.monotonic()
        report = run_survey(
            **plan,
            shard_fn=hang_worker_once_shard,
            workers=2,
            shard_timeout_s=self.TIMEOUT,
            max_shard_retries=2,
            telemetry=Telemetry(sinks=[recorder]),
        )
        elapsed = time.monotonic() - t0
        # One deadline for the hang plus the (instant) retries, bounded
        # well under the budget a second full deadline would cost.
        assert elapsed < 6 * self.TIMEOUT
        assert report.n_completed == 2 and not report.ledger.abandoned

        victim = _victim_id(plan)
        failures = report.ledger.failures_for(victim)
        assert [f.kind for f in failures] == [SHARD_STALLED]
        assert failures[0].charged and "worker killed" in failures[0].detail
        assert count_attempts(tmp_path, victim) == 2  # the hang, then the retry
        stalled = recorder.events("shard-stalled")
        assert len(stalled) == 1 and stalled[0]["attrs"]["isolated"] is True
        # A stall kill is the survey's own doing: it must never be
        # accounted as environment hostility.
        assert recorder.events("survey-stall-kill")
        assert not recorder.events("survey-pool-broke")

    def test_always_hanging_shard_abandoned_within_budget(self, tmp_path):
        plan = _stub_plan(tmp_path)
        t0 = time.monotonic()
        report = run_survey(
            **plan,
            shard_fn=hang_worker_always_shard,
            workers=2,
            shard_timeout_s=1.0,
            max_shard_retries=1,
        )
        elapsed = time.monotonic() - t0
        victim = _victim_id(plan)
        assert victim in report.ledger.abandoned
        assert report.n_completed == 1  # the innocent shard finished
        failures = report.ledger.failures_for(victim)
        assert [f.kind for f in failures] == [SHARD_STALLED] * 2  # initial + 1 retry
        # Two armed deadlines (shared round + isolated retry), nothing more.
        assert elapsed < 8.0

    def test_serial_survey_with_watchdog_routes_through_pools(self, tmp_path):
        """``workers=1`` plus a timeout must still be killable: shards go
        through single-worker pools instead of inline calls."""
        plan = _stub_plan(tmp_path)
        report = run_survey(
            **plan,
            shard_fn=hang_worker_once_shard,
            workers=1,
            shard_timeout_s=1.0,
            max_shard_retries=2,
        )
        assert report.n_completed == 2
        kinds = {f.kind for f in report.ledger.failures}
        assert kinds == {SHARD_STALLED}


# ----------------------------------------------------------------------
# Adaptive plans: budget accounting across kill points.


class TestAdaptiveKillPoints:
    PLAN = dict(machines=MACHINES, pairs=ONE_PAIR, config=SMALL, seed=3, bands=2)
    PLANNER = AdaptivePlanner(capture_budget=0.75)

    def test_resume_preserves_capture_accounting(self, tmp_path):
        golden = tmp_path / "golden"
        baseline = run_survey(**self.PLAN, planner=self.PLANNER, manifest_dir=golden)
        acc = baseline.planning
        assert acc.captures_used + acc.captures_saved == acc.exhaustive_captures
        total = count_records(golden)
        assert total >= 8  # promises + outcomes + shards + decisions

        # Sample prefixes spanning the journal: before the pre-scan is
        # durable, mid-round, and one record short of complete.
        for keep in sorted({0, 1, total // 3, total // 2, total - 2, total - 1}):
            work = tmp_path / f"adaptive-{keep}"
            shutil.copytree(golden, work)
            truncate_manifest(work, keep)
            resumed = run_survey(**self.PLAN, planner=self.PLANNER, manifest_dir=work)
            racc = resumed.planning
            assert racc.captures_used == acc.captures_used, keep
            assert racc.captures_saved == acc.captures_saved, keep
            assert racc.prescan_captures == acc.prescan_captures, keep
            assert (
                racc.captures_used + racc.captures_saved == racc.exhaustive_captures
            ), keep
            assert carrier_map(resumed) == carrier_map(baseline), keep
            assert resumed.ledger.planned == baseline.ledger.planned, keep


# ----------------------------------------------------------------------
# Property pinning: arbitrary prefixes and arbitrary byte truncation.


@pytest.fixture(scope="module")
def stub_golden(tmp_path_factory):
    """One completed stub survey's manifest, to be mutilated per example."""
    base = tmp_path_factory.mktemp("chaos-prop")
    plan = _stub_plan(base)
    golden = base / "golden"
    report = run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=golden)
    assert report.n_completed == 2
    return plan, golden, count_records(golden), base


class TestInterruptProperties:
    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    @given(data=st.data())
    def test_any_record_prefix_resumes_complete(self, stub_golden, data):
        """For *every* kill point — any record prefix, torn tail or not —
        resume finishes the survey with full coverage and a clean ledger."""
        plan, golden, total, base = stub_golden
        keep = data.draw(st.integers(min_value=0, max_value=total), label="keep")
        tear = data.draw(st.booleans(), label="torn_tail")
        work = Path(tempfile.mkdtemp(prefix="prefix-", dir=base)) / "manifest"
        shutil.copytree(golden, work)
        truncate_manifest(work, keep)
        if tear:
            torn_manifest_tail(work)
        resumed = run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=work)
        assert resumed.n_completed == 2
        assert not resumed.ledger.failures and not resumed.ledger.abandoned
        # Stub shards report their preset key as the machine name.
        assert set(resumed.machines) == {"corei7_desktop", "turionx2_laptop"}

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_loader_tolerates_any_byte_truncation(self, stub_golden, data):
        """``load()`` never raises on a log cut at an arbitrary *byte*:
        whatever decodes is a subset of the intact state, and at most the
        torn final line is lost."""
        _, golden, total, base = stub_golden
        intact_bytes = (golden / "manifest.jsonl").read_bytes()
        intact = SurveyManifest(golden).open().load()
        cut = data.draw(st.integers(min_value=0, max_value=len(intact_bytes)), label="cut")
        work = Path(tempfile.mkdtemp(prefix="bytes-", dir=base)) / "manifest"
        shutil.copytree(golden, work)
        (work / "manifest.jsonl").write_bytes(intact_bytes[:cut])
        state = SurveyManifest(work).open().load()
        assert set(state.results) <= set(intact.results)
        assert state.n_records <= intact.n_records
        assert state.n_records >= total - _full_lines_lost(intact_bytes, cut) - 1
        for shard_id, result in state.results.items():
            assert result.activity.detections == intact.results[shard_id].activity.detections


def _full_lines_lost(data, cut):
    """How many complete journal lines a byte-truncation at ``cut`` removed."""
    return data.count(b"\n") - data[:cut].count(b"\n")

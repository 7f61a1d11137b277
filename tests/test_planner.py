"""Planner tier: the budgeted adaptive survey matches exhaustive results.

The acceptance bar for the adaptive scheduler is *equivalence with a
measured saving*: on the paper-figure fixtures (Figure 11's i7 LDM/LDL1
sweep and Figure 17's cross-machine comparison) the adaptive survey must
detect the **identical carrier set** — same frequencies, same source
grouping, same cross-machine attribution — as the exhaustive survey of
the same shard plan, while spending at most half of its full-resolution
captures. Every capture is reconciled (used + saved == exhaustive) and
every shard the planner cut short carries a ledger decision saying why.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro import FaseConfig, MicroOp, run_survey
from repro.errors import SurveyError
import repro.survey.planner as planner_module
from repro.survey import (
    AdaptivePlanner,
    BUDGET_EXHAUSTED,
    CaptureBudget,
    EARLY_STOPPED,
    PRESCAN_SKIPPED,
    plan_shards,
    prescan_shard,
    run_shard,
    run_shard_adaptive,
)
from repro.telemetry import Recorder, Telemetry

pytestmark = pytest.mark.planner

#: Figure 11 fixture: the i7's 0-4 MHz LDM/LDL1 sweep, 32 bands. Eight
#: bands carry carriers (225/315/450/1024/1575/2048/2560/3072 kHz); a
#: budget of 64 of the 160 exhaustive captures funds them all with room
#: for a few empty-band early stops.
FIG11 = FaseConfig(
    span_low=0.0, span_high=4e6, fres=50.0, falt1=43.3e3, f_delta=0.5e3,
    name="fig11 planner fixture",
)
FIG11_PLAN = dict(
    machines=("corei7_desktop",),
    pairs=((MicroOp.LDM, MicroOp.LDL1),),
    config=FIG11,
    bands=32,
    seed=5,
)
FIG11_BUDGET = 64

#: Figure 17 fixture: desktop + laptop over 0-1.2 MHz, 8 bands each.
#: Half the 16 shards are populated; a budget of 40 of the 80 exhaustive
#: captures covers exactly those.
FIG17 = FaseConfig(
    span_low=0.0, span_high=1.2e6, fres=50.0, falt1=43.3e3, f_delta=0.5e3,
    name="fig17 planner fixture",
)
FIG17_PLAN = dict(
    machines=("corei7_desktop", "turionx2_laptop"),
    pairs=((MicroOp.LDM, MicroOp.LDL1),),
    config=FIG17,
    bands=8,
    seed=11,
)
FIG17_BUDGET = 40


def carrier_map(report):
    """machine -> sorted detected carrier frequencies across all bands."""
    return {
        name: sorted(
            round(det.frequency, 3)
            for activity in fase.activities.values()
            for det in activity.detections
        )
        for name, fase in report.machines.items()
    }


def source_map(report):
    """machine -> the classified source grouping, as describe() strings."""
    return {
        name: [source.describe() for source in fase.sources]
        for name, fase in report.machines.items()
    }


@pytest.fixture(scope="module")
def fig11_runs():
    exhaustive = run_survey(**FIG11_PLAN)
    recorder = Recorder()
    telemetry = Telemetry(sinks=[recorder])
    adaptive = run_survey(
        **FIG11_PLAN,
        planner=AdaptivePlanner(capture_budget=FIG11_BUDGET),
        telemetry=telemetry,
    )
    return exhaustive, adaptive, recorder, telemetry


@pytest.fixture(scope="module")
def fig17_runs():
    exhaustive = run_survey(**FIG17_PLAN)
    adaptive = run_survey(
        **FIG17_PLAN, planner=AdaptivePlanner(capture_budget=FIG17_BUDGET)
    )
    return exhaustive, adaptive


class TestFig11Equivalence:
    def test_identical_carrier_set(self, fig11_runs):
        exhaustive, adaptive, _, _ = fig11_runs
        assert carrier_map(adaptive) == carrier_map(exhaustive)
        assert any(carrier_map(exhaustive).values())  # fixture is non-trivial

    def test_identical_source_grouping(self, fig11_runs):
        exhaustive, adaptive, _, _ = fig11_runs
        assert source_map(adaptive) == source_map(exhaustive)

    def test_uses_at_most_half_the_captures(self, fig11_runs):
        _, adaptive, _, _ = fig11_runs
        acc = adaptive.planning
        assert acc.exhaustive_captures == 160
        assert acc.captures_used <= 0.5 * acc.exhaustive_captures

    def test_accounting_identity(self, fig11_runs):
        _, adaptive, _, _ = fig11_runs
        acc = adaptive.planning
        assert acc.captures_used + acc.captures_saved == acc.exhaustive_captures
        assert acc.n_shards == 32
        assert (
            acc.n_completed + acc.n_early_stopped + acc.n_budget_exhausted
            + acc.n_prescan_skipped
            == acc.n_shards
        )
        assert adaptive.n_completed == acc.n_completed + acc.n_early_stopped

    def test_ledger_carries_both_abandonment_kinds(self, fig11_runs):
        _, adaptive, _, _ = fig11_runs
        kinds = {kind for kind, _ in adaptive.ledger.planned.values()}
        assert EARLY_STOPPED in kinds
        assert BUDGET_EXHAUSTED in kinds
        text = adaptive.to_text()
        assert "adaptive plan:" in text
        assert "planner decisions:" in text

    def test_early_stops_are_sound(self, fig11_runs):
        """Every early-stopped shard, run exhaustively, detects nothing."""
        _, adaptive, _, _ = fig11_runs
        stopped = [
            shard_id
            for shard_id, (kind, _) in adaptive.ledger.planned.items()
            if kind == EARLY_STOPPED
        ]
        assert stopped
        specs = {spec.shard_id: spec for spec in plan_shards(**FIG11_PLAN)}
        for shard_id in stopped:
            truth = run_shard(specs[shard_id])
            assert truth.activity.detections == []

    def test_planner_telemetry(self, fig11_runs):
        _, adaptive, recorder, telemetry = fig11_runs
        acc = adaptive.planning
        spans = {r.get("name") for r in recorder.records if r.get("kind") == "span"}
        assert {"plan_survey", "prescan-sweep", "plan-round"} <= spans
        counters = telemetry.snapshot().to_dict()["counters"]
        assert counters["captures_saved"] == acc.captures_saved
        assert counters["prescan_captures"] == acc.prescan_captures
        assert counters["shards_early_stopped"] == acc.n_early_stopped
        assert counters["shards_budget_exhausted"] == acc.n_budget_exhausted
        # The shard-side registries merge the used-capture story into the
        # report's snapshot: every funded shard counted what it spent.
        assert adaptive.telemetry["counters"]["captures_total"] == acc.captures_used


class TestFig17CrossMachine:
    def test_identical_carrier_set_per_machine(self, fig17_runs):
        exhaustive, adaptive = fig17_runs
        assert carrier_map(adaptive) == carrier_map(exhaustive)
        assert len(adaptive.machines) == 2

    def test_identical_cross_machine_comparison(self, fig17_runs):
        exhaustive, adaptive = fig17_runs
        ours = [source.describe() for source in adaptive.comparison]
        theirs = [source.describe() for source in exhaustive.comparison]
        assert ours == theirs
        assert ours  # the fixture shares at least one source across machines

    def test_uses_at_most_half_the_captures(self, fig17_runs):
        _, adaptive = fig17_runs
        acc = adaptive.planning
        assert acc.exhaustive_captures == 80
        assert acc.captures_used <= 0.5 * acc.exhaustive_captures
        assert acc.captures_used + acc.captures_saved == acc.exhaustive_captures


class TestAdaptiveShard:
    def test_completed_shard_matches_run_shard(self):
        """A funded shard that runs to completion reproduces run_shard
        byte-for-byte: same serial analyzer stream, same detections."""
        specs = plan_shards(**FIG11_PLAN)
        populated = specs[2]  # 0.25-0.375MHz: carrier at 315 kHz
        truth = run_shard(populated)
        assert truth.activity.detections  # guard: the band is populated
        outcome = run_shard_adaptive(populated, AdaptivePlanner())
        assert outcome.status == "completed"
        assert outcome.captures_used == outcome.captures_total
        assert outcome.result.activity.detections == truth.activity.detections
        assert outcome.result.pair_label == truth.pair_label

    def test_early_stopped_shard_reports_zero_detections(self):
        specs = plan_shards(**FIG11_PLAN)
        empty = next(
            spec for spec in specs if spec.band == "2.125-2.25MHz"
        )  # early-stops after 3 captures on this fixture
        outcome = run_shard_adaptive(empty, AdaptivePlanner())
        assert outcome.status == EARLY_STOPPED
        assert outcome.captures_used < outcome.captures_total
        assert outcome.result.activity.detections == []
        assert outcome.evidence_bound < AdaptivePlanner().stop_threshold_decades

    def test_adaptive_shard_rejects_durable_and_faulty_specs(self):
        import dataclasses

        [spec] = plan_shards(
            machines=("corei7_desktop",),
            pairs=((MicroOp.LDM, MicroOp.LDL1),),
            config=FIG11,
        )
        faulty = dataclasses.replace(spec, fault_classes=("drop",))
        with pytest.raises(SurveyError, match="clean, non-durable"):
            run_shard_adaptive(faulty, AdaptivePlanner())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fault_classes", ("drop",)),
            ("keep_spectra", True),
        ],
    )
    def test_adaptive_shard_gate_names_the_triggering_flag(self, field, value):
        """Regression: the gate used to check ``fault_classes`` but blame
        a generic message; each incompatible spec field must be named so
        the caller knows which flag to drop."""
        import dataclasses

        [spec] = plan_shards(
            machines=("corei7_desktop",),
            pairs=((MicroOp.LDM, MicroOp.LDL1),),
            config=FIG11,
        )
        bad = dataclasses.replace(spec, **{field: value})
        with pytest.raises(SurveyError, match=f"incompatible with: {field}"):
            run_shard_adaptive(bad, AdaptivePlanner())

    def test_adaptive_shard_gate_lists_every_active_flag(self):
        import dataclasses

        [spec] = plan_shards(
            machines=("corei7_desktop",),
            pairs=((MicroOp.LDM, MicroOp.LDL1),),
            config=FIG11,
        )
        bad = dataclasses.replace(spec, fault_classes=("drop",), keep_spectra=True)
        with pytest.raises(
            SurveyError,
            match="incompatible with: fault_classes, keep_spectra",
        ):
            run_shard_adaptive(bad, AdaptivePlanner())


class TestPrescan:
    def test_prescan_is_pure_and_separate_from_full_run(self):
        """The pre-scan is deterministic and consumes its own streams:
        the full shard result is identical with or without a pre-scan
        having run first in the same process."""
        [spec] = plan_shards(
            machines=("corei7_desktop",),
            pairs=((MicroOp.LDM, MicroOp.LDL1),),
            config=FIG17,
            seed=11,
        )
        planner = AdaptivePlanner()
        first = prescan_shard(spec, planner)
        second = prescan_shard(spec, planner)
        assert first.promise == second.promise
        assert first.evidence == second.evidence
        truth = run_shard(spec)
        after = run_shard(spec)
        assert truth.activity.detections == after.activity.detections

    def test_prescan_config_is_coarser_and_valid(self):
        planner = AdaptivePlanner()
        pre = planner.prescan_config(FIG11)
        assert pre.fres == 5 * FIG11.fres
        assert pre.f_delta >= 4 * pre.fres
        assert "prescan" in pre.name
        # Dwell-based cost: coarser RBW means cheaper captures.
        assert planner.prescan_cost(FIG11) < FIG11.n_alternations

    def test_prescan_rbw_must_be_coarser(self):
        planner = AdaptivePlanner(prescan_rbw=10.0)
        with pytest.raises(SurveyError, match="finer than the campaign RBW"):
            planner.prescan_config(FIG11)


class TestPlannerConfig:
    def test_budget_fraction_and_absolute(self):
        specs = plan_shards(**FIG11_PLAN)
        assert AdaptivePlanner(capture_budget=0.5).budget_for(specs).total == 80
        assert AdaptivePlanner(capture_budget=64).budget_for(specs).total == 64
        assert math.isinf(AdaptivePlanner().budget_for(specs).total)

    def test_machine_quotas(self):
        budget = CaptureBudget(total=100, per_machine={"a": 5})
        assert budget.can_fund("a", 5)
        assert not budget.can_fund("a", 6)
        budget.charge("a", 5)
        assert not budget.can_fund("a", 1)
        assert budget.can_fund("b", 95)
        budget.refund("a", 3)
        assert budget.can_fund("a", 3)

    def test_overcharge_rejected(self):
        budget = CaptureBudget(total=4)
        with pytest.raises(SurveyError, match="cannot charge"):
            budget.charge("a", 5)

    def test_bad_planner_parameters_rejected(self):
        with pytest.raises(SurveyError, match="capture_budget"):
            AdaptivePlanner(capture_budget=0)
        with pytest.raises(SurveyError, match="min_prefix_falts"):
            AdaptivePlanner(min_prefix_falts=1)

    def test_min_promise_skips_shards(self):
        report = run_survey(
            **FIG17_PLAN, planner=AdaptivePlanner(min_promise=1e9)
        )
        acc = report.planning
        assert acc.n_prescan_skipped == acc.n_shards
        assert acc.captures_used == 0
        assert acc.captures_saved == acc.exhaustive_captures
        kinds = {kind for kind, _ in report.ledger.planned.values()}
        assert kinds == {PRESCAN_SKIPPED}

    def test_planner_incompatible_with_faults_and_durability(self, tmp_path):
        planner = AdaptivePlanner()
        with pytest.raises(SurveyError, match="incompatible with: fault_classes"):
            run_survey(
                **FIG17_PLAN, planner=planner, fault_classes="all"
            )
        with pytest.raises(SurveyError, match="keep_spectra"):
            run_survey(**FIG17_PLAN, planner=planner, keep_spectra=True)


# ----------------------------------------------------------------------
# Pre-scans run on the engine's drain: hung or dying pre-scan workers are
# ledgered like any shard, never waited on forever or retried in the parent.

#: A small 2-shard plan; the first shard's pre-scan is the one that misbehaves.
SMALL_PLAN = dict(
    machines=("corei7_desktop",),
    pairs=((MicroOp.LDM, MicroOp.LDL1),),
    config=FaseConfig(
        span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3,
        name="prescan drain fixture",
    ),
    bands=2,
    seed=3,
)
_REAL_PRESCAN = planner_module.prescan_shard
_PARENT_PID = os.getpid()
#: Filled per test; forked workers inherit it.
_MISBEHAVE = {}


def _misbehaving_prescan(spec, planner):
    """The real pre-scan, except for one shard when run in a forked worker."""
    if spec.shard_id == _MISBEHAVE.get("shard_id"):
        if _MISBEHAVE["mode"] == "hang" and os.getpid() != _PARENT_PID:
            time.sleep(20.0)
        elif _MISBEHAVE["mode"] == "die":
            if os.getpid() != _PARENT_PID:
                os._exit(9)
            # An inline retry in the parent would land here.
            with open(_MISBEHAVE["marker"], "w") as handle:
                handle.write("pre-scan retried in the parent\n")
            raise RuntimeError("pre-scan retried in the parent")
    return _REAL_PRESCAN(spec, planner)


class TestPrescanOnTheDrain:
    @pytest.fixture
    def victim(self, monkeypatch):
        monkeypatch.setattr(planner_module, "prescan_shard", _misbehaving_prescan)
        shard_id = plan_shards(**SMALL_PLAN)[0].shard_id
        monkeypatch.setitem(_MISBEHAVE, "shard_id", shard_id)
        return shard_id

    def test_hung_prescan_is_killed_by_the_watchdog(self, victim, monkeypatch):
        """Regression: the pre-scan pool had no watchdog, so one hung
        pre-scan wedged an armed ``--shard-timeout`` survey."""
        monkeypatch.setitem(_MISBEHAVE, "mode", "hang")
        started = time.monotonic()
        report = run_survey(
            **SMALL_PLAN,
            planner=AdaptivePlanner(),
            workers=2,
            shard_timeout_s=2,
            max_shard_retries=1,
        )
        assert time.monotonic() - started < 15.0
        kind, detail = report.ledger.planned[victim]
        assert kind == PRESCAN_SKIPPED
        assert "shard-stalled" in detail
        # The scratch pre-scan ledger spends none of the full run's budget.
        assert report.ledger.failures == []
        assert report.planning.n_prescan_skipped == 1
        assert report.n_completed == 1

    def test_dying_prescan_is_never_retried_in_the_parent(
        self, victim, monkeypatch, tmp_path
    ):
        """Regression: a pre-scan whose worker died was retried inline in
        the parent process, where a fatal shard takes the survey down."""
        marker = tmp_path / "parent-ran-prescan"
        monkeypatch.setitem(_MISBEHAVE, "mode", "die")
        monkeypatch.setitem(_MISBEHAVE, "marker", str(marker))
        report = run_survey(
            **SMALL_PLAN, planner=AdaptivePlanner(), workers=2, max_shard_retries=1
        )
        assert not marker.exists()
        kind, detail = report.ledger.planned[victim]
        assert kind == PRESCAN_SKIPPED
        assert "worker-death" in detail
        assert report.ledger.failures == []
        assert report.n_completed == 1

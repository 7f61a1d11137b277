"""Telemetry subsystem: spans, metrics, sinks, profiler, and campaign wiring.

The load-bearing invariant (the subsystem's acceptance criterion) is at
the bottom: a durable faulted campaign killed mid-run and resumed with a
JSONL sink attached produces a parseable event stream whose counter
totals exactly match the RobustnessReport ledger for the same run.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import DurableCampaign, FaseConfig, MeasurementCampaign, run_fase
from repro.errors import TelemetryError
from repro.faults import FaultPlan, RobustnessReport
from repro.faults.injectors import FaultEvent
from repro.spectrum.analyzer import StaticScene
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    JsonlSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    Recorder,
    StageProfiler,
    Telemetry,
    Tracer,
    current_telemetry,
    read_jsonl,
    record_campaign_ledger,
    set_telemetry,
    use_telemetry,
)
from repro.uarch.activity import AlternationActivity
from repro.uarch.isa import MicroOp

pytestmark = pytest.mark.telemetry

FALTS = (1000.0, 1250.0, 1500.0, 1750.0, 2000.0)


@pytest.fixture(autouse=True)
def _ambient_reset():
    """Never leak an installed pipeline into other tests."""
    yield
    set_telemetry(None)


def make_config(**overrides):
    # span_low excludes the DC bin so end-to-end tests never detect a
    # 0 Hz "carrier"; falt1/f_delta put the five falts inside the span.
    overrides.setdefault("span_low", 100.0)
    overrides.setdefault("span_high", 2e4)
    overrides.setdefault("fres", 100.0)
    overrides.setdefault("falt1", 1000.0)
    overrides.setdefault("f_delta", 250.0)
    overrides.setdefault("name", "telemetry test")
    return FaseConfig(**overrides)


def make_activities(falts=FALTS):
    return [AlternationActivity(falt=falt, levels_x={}, levels_y={}) for falt in falts]


class StubMachine:
    """Millisecond-cheap machine: one static line per activity's falt."""

    name = "stub machine"

    def scene(self, activity):
        def power(grid):
            out = np.full(grid.n_bins, 1e-12)
            out[grid.index_of(activity.falt)] += 1e-9
            return out

        return StaticScene(power)


class KillAfter:
    """Raise KeyboardInterrupt on the (n+1)-th scene build: a mid-run kill."""

    def __init__(self, machine, n):
        self._machine = machine
        self._n = n
        self.count = 0

    @property
    def name(self):
        return self._machine.name

    def scene(self, activity):
        if self.count >= self._n:
            raise KeyboardInterrupt("simulated kill")
        self.count += 1
        return self._machine.scene(activity)


def fake_clock(step=1.0):
    """A deterministic perf_counter stand-in: advances ``step`` per call."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


# ----------------------------------------------------------------------
# Ambient pipeline


class TestAmbient:
    def test_default_is_null(self):
        assert current_telemetry() is NULL_TELEMETRY
        assert not current_telemetry().enabled

    def test_use_telemetry_installs_and_restores(self):
        tel = Telemetry()
        with use_telemetry(tel):
            assert current_telemetry() is tel
        assert current_telemetry() is NULL_TELEMETRY

    def test_set_telemetry_none_means_off(self):
        previous = set_telemetry(Telemetry())
        assert previous is NULL_TELEMETRY
        set_telemetry(None)
        assert current_telemetry() is NULL_TELEMETRY

    def test_ambient_visible_from_worker_threads(self):
        # The pipeline is a module global, not a contextvar: campaign
        # thread pools must see the same instance as the installer.
        tel = Telemetry()
        seen = []
        with use_telemetry(tel):
            thread = threading.Thread(target=lambda: seen.append(current_telemetry()))
            thread.start()
            thread.join()
        assert seen == [tel]

    def test_concurrent_pipelines_do_not_clobber_each_other(self):
        # Regression: the service worker fleet runs whole run_fase
        # pipelines in sibling threads. Their per-pipeline installs used
        # to hit the shared global, and interleaved save/restores left a
        # stale pipeline installed process-wide; the thread-scoped
        # install must isolate each thread and leave the default alone
        # no matter how the lifetimes interleave.
        from repro.telemetry import use_thread_telemetry

        n_threads, rounds = 4, 25
        barrier = threading.Barrier(n_threads)
        mismatches = []

        def pipeline_thread(index):
            for _ in range(rounds):
                mine = Telemetry()
                barrier.wait()  # maximally interleave install/restore
                with use_thread_telemetry(mine):
                    if current_telemetry() is not mine:
                        mismatches.append(index)
                barrier.wait()

        threads = [
            threading.Thread(target=pipeline_thread, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches
        assert current_telemetry() is NULL_TELEMETRY

    def test_thread_install_shadows_then_restores_the_global(self):
        from repro.telemetry import use_thread_telemetry

        ambient, local = Telemetry(), Telemetry()
        with use_telemetry(ambient):
            with use_thread_telemetry(local):
                assert current_telemetry() is local
            assert current_telemetry() is ambient

    def test_parallel_captures_see_the_pipeline(self):
        # The pool-adoption path: run_fase(telemetry=...) with thread-
        # parallel pairs *and* captures must count every capture even
        # though the install is thread-scoped and pool workers are new
        # threads (they adopt the submitter's pipeline at pool creation).
        tel = Telemetry()
        run_fase(
            StubMachine(),
            pairs=[(MicroOp.LDM, MicroOp.LDL1), (MicroOp.LDL2, MicroOp.LDL1)],
            config=make_config(),
            rng=np.random.default_rng(1),
            n_workers=2,
            telemetry=tel,
        )
        snapshot = tel.metrics.snapshot()
        assert snapshot.counters["captures_total"] == 2 * len(FALTS)

    def test_null_telemetry_is_inert(self):
        with NULL_TELEMETRY.span("anything", stage="capture") as handle:
            handle.set(extra=1)
        NULL_TELEMETRY.event("anything")
        NULL_TELEMETRY.count("n")
        NULL_TELEMETRY.observe("h", 1.0)
        snap = NULL_TELEMETRY.snapshot()
        assert snap.counters == {} and snap.histograms == {}


# ----------------------------------------------------------------------
# Spans


class TestSpans:
    def test_nesting_sets_parent_ids(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with tel.span("outer") as outer:
            with tel.span("inner"):
                pass
        inner_rec, outer_rec = rec.spans("inner")[0], rec.spans("outer")[0]
        assert inner_rec["parent_id"] == outer.span_id
        assert outer_rec["parent_id"] is None

    def test_span_ids_are_seed_stable(self):
        def run():
            rec = Recorder()
            tel = Telemetry(sinks=[rec])
            for index in range(3):
                with tel.span("capture", index=index, attempt=0):
                    pass
                with tel.span("capture", index=index, attempt=0):
                    pass  # identical identity -> distinct occurrence
            return [r["span_id"] for r in rec.spans()]

        first, second = run(), run()
        assert first == second
        assert len(set(first)) == len(first)  # occurrence disambiguates repeats

    def test_error_status_on_exception(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with pytest.raises(RuntimeError):
            with tel.span("doomed"):
                raise RuntimeError("boom")
        assert rec.spans("doomed")[0]["status"] == "error"

    def test_set_attaches_attributes(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with tel.span("capture", index=2) as handle:
            handle.set(dropped=True)
        attrs = rec.spans("capture")[0]["attrs"]
        assert attrs == {"index": 2, "dropped": True}

    def test_events_parent_to_enclosing_span(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with tel.span("campaign") as campaign:
            tel.event("screen-rejection", index=4)
        event = rec.events("screen-rejection")[0]
        assert event["parent_id"] == campaign.span_id
        assert event["attrs"] == {"index": 4}

    def test_durations_from_injected_clock(self):
        records = []
        tracer = Tracer(records.append, clock=fake_clock())
        with tracer.span("work"):
            pass  # open at t=2, close at t=3
        assert records[0]["duration_s"] == pytest.approx(1.0)

    def test_exclusive_time_subtracts_children(self):
        closes = []
        tracer = Tracer(
            lambda record: None,
            on_close=lambda stage, dur, self_s: closes.append((stage, dur, self_s)),
            clock=fake_clock(),
        )
        with tracer.span("outer", stage="score"):
            with tracer.span("inner", stage="average"):
                pass
        (inner_stage, inner_dur, inner_self), (outer_stage, outer_dur, outer_self) = closes
        assert (inner_stage, outer_stage) == ("average", "score")
        assert inner_self == pytest.approx(inner_dur)
        assert outer_self == pytest.approx(outer_dur - inner_dur)


# ----------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.count("captures_total", 5)
        registry.count("captures_total")
        registry.gauge("workers", 4)
        registry.observe("stage_capture_seconds", 0.3)
        snap = registry.snapshot()
        assert snap.counter("captures_total") == 6
        assert snap.counter("missing", default=-1) == -1
        assert snap.gauges["workers"] == 4.0
        hist = snap.histograms["stage_capture_seconds"]
        assert hist.count == 1 and hist.sum == pytest.approx(0.3)
        assert hist.mean == pytest.approx(0.3)

    def test_histogram_bucket_placement_and_overflow(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.0, 2.0, 100.0):
            registry.observe("h", value, buckets=(1.0, 10.0))
        hist = registry.snapshot().histograms["h"]
        assert hist.buckets == (1.0, 10.0)
        assert hist.counts == (2, 1, 1)  # <=1, <=10, overflow

    def test_invalid_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.observe("h", 1.0, buckets=())
        with pytest.raises(TelemetryError):
            registry.observe("h", 1.0, buckets=(2.0, 1.0))

    def test_default_buckets_are_valid_and_increasing(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
        registry = MetricsRegistry()
        registry.observe("h", 0.02)
        assert registry.snapshot().histograms["h"].buckets == DEFAULT_TIME_BUCKETS

    def test_snapshot_is_frozen_against_later_updates(self):
        registry = MetricsRegistry()
        registry.count("n")
        snap = registry.snapshot()
        registry.count("n")
        assert snap.counter("n") == 1
        assert registry.snapshot().counter("n") == 2

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("n", 2)
        b.count("n", 3)
        b.count("only_b")
        a.gauge("g", 1.0)
        b.gauge("g", 2.0)
        a.observe("h", 0.5, buckets=(1.0, 10.0))
        b.observe("h", 5.0, buckets=(1.0, 10.0))
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counter("n") == 5
        assert merged.counter("only_b") == 1
        assert merged.gauges["g"] == 2.0  # last writer wins
        hist = merged.histograms["h"]
        assert hist.count == 2 and hist.counts == (1, 1, 0)
        assert hist.sum == pytest.approx(5.5)

    def test_merge_refuses_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 0.5, buckets=(2.0,))
        with pytest.raises(TelemetryError, match="bucket"):
            a.snapshot().merge(b.snapshot())

    def test_merge_refuses_torn_count_vectors(self):
        """Regression: a histogram with the right bucket bounds but a torn
        ``counts`` vector (a truncated foreign payload) merged positionally
        through ``zip``, silently dropping tail buckets and corrupting the
        totals of every later merge."""
        from repro.telemetry.metrics import HistogramSnapshot, MetricsSnapshot

        good = MetricsRegistry()
        good.observe("h", 0.5, buckets=(1.0, 10.0))
        torn = MetricsSnapshot(
            counters={},
            gauges={},
            histograms={
                "h": HistogramSnapshot(buckets=(1.0, 10.0), counts=(1,), count=1, sum=0.5)
            },
        )
        with pytest.raises(TelemetryError, match="count vectors"):
            good.snapshot().merge(torn)
        with pytest.raises(TelemetryError, match="count vectors"):
            torn.merge(good.snapshot())

    def test_from_dict_refuses_torn_count_vectors(self):
        """The cross-process revival path rejects the same tear at the
        boundary, so a torn shard payload is named at load, not at the
        first merge it would corrupt."""
        from repro.telemetry.metrics import MetricsSnapshot

        payload = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "h": {"buckets": [1.0, 10.0], "counts": [1, 2], "count": 3, "sum": 0.5}
            },
        }
        with pytest.raises(TelemetryError, match="overflow slot"):
            MetricsSnapshot.from_dict(payload)

    def test_from_dict_accepts_well_formed_histograms(self):
        from repro.telemetry.metrics import MetricsSnapshot

        registry = MetricsRegistry()
        registry.observe("h", 0.5, buckets=(1.0, 10.0))
        snap = registry.snapshot()
        revived = MetricsSnapshot.from_dict(snap.to_dict())
        assert revived.histograms["h"] == snap.histograms["h"]
        merged = revived.merge(snap)
        assert merged.histograms["h"].count == 2

    def test_registry_is_thread_safe(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.count("n")
                registry.observe("h", 0.01)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        assert snap.counter("n") == 8000
        assert snap.histograms["h"].count == 8000

    def test_to_dict_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.count("n", 2)
        registry.gauge("g", 1.5)
        registry.observe("h", 0.2)
        payload = json.dumps(registry.snapshot().to_dict())
        round_trip = json.loads(payload)
        assert round_trip["counters"] == {"n": 2}
        assert round_trip["histograms"]["h"]["count"] == 1


# ----------------------------------------------------------------------
# Sinks


class TestSinks:
    def test_recorder_filters(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with tel.span("a"):
            tel.event("e")
        assert len(rec.spans()) == 1 and len(rec.events()) == 1
        assert rec.spans("missing") == []

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "tel" / "run.jsonl"
        sink = JsonlSink(path)  # parent dir created on demand
        tel = Telemetry(sinks=[sink])
        with tel.span("capture", index=0):
            tel.event("fault-injected", fault="glitch")
        tel.emit_snapshot()
        tel.close()
        records = read_jsonl(path)
        assert [r["kind"] for r in records] == ["event", "span", "metrics"]
        assert records[1]["name"] == "capture"

    def test_jsonl_appends_across_reopens(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for run in range(2):
            sink = JsonlSink(path)
            sink.emit({"kind": "event", "run": run})
            sink.close()
        assert [r["run"] for r in read_jsonl(path)] == [0, 1]

    def test_emit_after_close_is_ignored(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.close()
        sink.emit({"kind": "event"})  # must not raise or resurrect the handle
        sink.close()
        assert read_jsonl(sink.path) == []

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "event", "n": 1}\n{"kind": "ev')
        assert read_jsonl(path) == [{"kind": "event", "n": 1}]

    def test_mid_file_damage_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "event", "n": 1}\ngarbage\n{"kind": "event", "n": 2}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_fsync_every_mode(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl", fsync_every=True)
        sink.emit({"kind": "event"})
        sink.close()
        assert len(read_jsonl(sink.path)) == 1


# ----------------------------------------------------------------------
# Profiler


class TestProfiler:
    def test_accumulates_calls_and_seconds(self):
        profiler = StageProfiler()
        profiler.add("capture", 1.0)
        profiler.add("capture", 2.0)
        profiler.add("score", 1.0)
        assert profiler.totals() == {"capture": (2, 3.0), "score": (1, 1.0)}
        assert profiler.total_seconds() == pytest.approx(4.0)

    def test_to_text_orders_by_time_and_sums_to_total(self):
        profiler = StageProfiler()
        profiler.add("score", 1.0)
        profiler.add("capture", 3.0)
        text = profiler.to_text()
        assert text.index("capture") < text.index("score")
        assert "100.0%" in text

    def test_empty_profile_text(self):
        assert "no instrumented stages" in StageProfiler().to_text()

    def test_pipeline_feeds_exclusive_time(self):
        tel = Telemetry(profile=True)
        tel.tracer = Tracer(tel._emit, on_close=tel._on_span_close, clock=fake_clock())
        with tel.span("score", stage="score"):
            with tel.span("average", stage="average"):
                pass
        totals = tel.profiler.totals()
        # score span lasted 3 ticks, its child 1 tick -> 2 exclusive.
        assert totals["average"] == (1, pytest.approx(1.0))
        assert totals["score"] == (1, pytest.approx(2.0))
        # The histogram keeps the inclusive duration.
        hist = tel.snapshot().histograms["stage_score_seconds"]
        assert hist.sum == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Campaign wiring


class TestCampaignWiring:
    def test_noop_default_leaves_results_identical(self):
        def run():
            campaign = MeasurementCampaign(
                StubMachine(), make_config(), rng=np.random.default_rng(1)
            )
            return campaign.run_with_activities(make_activities(), label="pair")

        clean = run()
        with use_telemetry(Telemetry(sinks=[Recorder()], profile=True)):
            instrumented = run()
        for ours, theirs in zip(instrumented.measurements, clean.measurements):
            np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)

    def test_campaign_emits_capture_spans_and_ledger(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with use_telemetry(tel):
            MeasurementCampaign(
                StubMachine(), make_config(), rng=np.random.default_rng(1)
            ).run_with_activities(make_activities(), label="pair")
        assert len(rec.spans("capture")) == len(FALTS)
        assert len(rec.spans("campaign")) == 1
        campaign_id = rec.spans("campaign")[0]["span_id"]
        assert all(r["parent_id"] == campaign_id for r in rec.spans("capture"))
        # The "average" stage nests inside each capture.
        assert len(rec.spans("average")) == len(FALTS)
        assert tel.snapshot().counter("captures_total") == len(FALTS)

    def test_parallel_campaign_counts_match_serial(self):
        def counters(n_workers):
            tel = Telemetry()
            with use_telemetry(tel):
                MeasurementCampaign(
                    StubMachine(),
                    make_config(n_workers=n_workers),
                    rng=np.random.default_rng(1),
                ).run_with_activities(make_activities(), label="pair")
            return tel.snapshot().counter("captures_total")

        assert counters(1) == counters(4) == len(FALTS)

    def test_fault_plan_events_and_counters(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with use_telemetry(tel):
            campaign = MeasurementCampaign(
                StubMachine(),
                make_config(max_capture_retries=2),
                rng=np.random.default_rng(1),
                fault_plan=FaultPlan.default(("glitch",)),
            )
            result = campaign.run_with_activities(make_activities(), label="pair")
        robustness = result.robustness
        snap = tel.snapshot()
        assert snap.counter("faults_injected") == robustness.n_injected
        assert snap.counter("capture_retries") == sum(robustness.retries.values())
        assert snap.counter("screen_rejections") == sum(
            1 for m in result.measurements if m.flagged
        )
        assert len(rec.events("fault-injected")) == robustness.n_injected

    def test_record_campaign_ledger_mirrors_report(self):
        tel = Telemetry()
        robustness = RobustnessReport(
            plan_description="crafted",
            events=[
                FaultEvent(fault="glitch", index=0, attempt=0, detail=""),
                FaultEvent(fault="capture-timeout", index=1, attempt=0, detail=""),
            ],
            retries={1: 2},
            excluded={2: ("drift",)},
            dropped=(3,),
        )

        class Measurement:
            def __init__(self, flagged):
                self.flagged = flagged

        measurements = [Measurement(False), Measurement(True)]
        record_campaign_ledger(tel, measurements, robustness, resumed=(0,))
        snap = tel.snapshot()
        assert snap.counter("captures_total") == 2
        assert snap.counter("captures_resumed") == 1
        # n_injected excludes the timeout event; n_timeouts is only it.
        assert snap.counter("faults_injected") == robustness.n_injected == 1
        assert snap.counter("capture_timeouts") == robustness.n_timeouts == 1
        assert snap.counter("capture_retries") == 2
        assert snap.counter("captures_excluded") == robustness.n_excluded == 1
        assert snap.counter("captures_dropped") == 1
        assert snap.counter("screen_rejections") == 1


# ----------------------------------------------------------------------
# run_fase integration


class TestRunFase:
    def test_report_carries_snapshot_and_cache_counters(self):
        rec = Recorder()
        tel = Telemetry(sinks=[rec], profile=True)
        report = run_fase(
            StubMachine(),
            pairs=[(MicroOp.LDM, MicroOp.LDL1)],
            config=make_config(),
            rng=np.random.default_rng(1),
            telemetry=tel,
        )
        assert report.telemetry is not None
        counters = report.telemetry["counters"]
        assert counters["captures_total"] == len(FALTS)
        assert counters["scoring_cache_hits"] + counters["scoring_cache_misses"] > 0
        # Span taxonomy: one root, one pair, the four stages beneath.
        for name in ("run_fase", "pair", "campaign", "capture", "average", "score", "detect"):
            assert rec.spans(name), f"missing {name} spans"
        stages = set(tel.profiler.totals())
        assert {"capture", "average", "score", "detect"} <= stages
        # The final snapshot also went to the sink as one metrics record.
        assert [r for r in rec.records if r["kind"] == "metrics"]
        # Ambient pipeline restored after the run.
        assert current_telemetry() is NULL_TELEMETRY

    def test_robust_zscores_profile_as_their_own_stage(self):
        # The Eq. 1/2 kernel ("score") and the per-harmonic robust
        # z-scores ("zscore") cost about the same, so --profile shows
        # them as separate rows; the z-scores nest inside "detect".
        rec = Recorder()
        tel = Telemetry(sinks=[rec], profile=True)
        run_fase(
            StubMachine(),
            pairs=[(MicroOp.LDM, MicroOp.LDL1)],
            config=make_config(),
            rng=np.random.default_rng(1),
            telemetry=tel,
        )
        (zscore_span,) = rec.spans("zscore")
        (detect_span,) = rec.spans("detect")
        assert zscore_span["stage"] == "zscore"
        assert zscore_span["parent_id"] == detect_span["span_id"]
        assert tel.profiler.totals()["zscore"][0] == 1
        assert "zscore" in tel.profiler.to_text()

    def test_run_fase_without_telemetry_leaves_report_field_none(self):
        report = run_fase(
            StubMachine(),
            pairs=[(MicroOp.LDM, MicroOp.LDL1)],
            config=make_config(),
            rng=np.random.default_rng(1),
        )
        assert report.telemetry is None


# ----------------------------------------------------------------------
# Acceptance: kill + resume with a JSONL sink; counters == report ledger


class TestKillResumeAcceptance:
    def _durable(self, journal_dir, machine=None):
        return DurableCampaign(
            machine or StubMachine(),
            make_config(max_capture_retries=2),
            journal_dir=journal_dir,
            rng=np.random.default_rng(1),
            fault_plan=FaultPlan.default(("glitch",)),
            sleep=lambda _: None,
        )

    def test_counters_match_robustness_ledger_across_kill_and_resume(self, tmp_path):
        jsonl = tmp_path / "telemetry.jsonl"
        journal_dir = tmp_path / "journal"

        # Run 1: killed after three captures, sink attached.
        tel = Telemetry(sinks=[JsonlSink(jsonl)])
        with pytest.raises(KeyboardInterrupt):
            with use_telemetry(tel):
                self._durable(journal_dir, machine=KillAfter(StubMachine(), 3)).run_with_activities(
                    make_activities(), label="pair"
                )
        tel.close()

        # Run 2: resume into the same JSONL file with a fresh pipeline.
        tel = Telemetry(sinks=[JsonlSink(jsonl)])
        with use_telemetry(tel):
            campaign = self._durable(journal_dir)
            result = campaign.run_with_activities(make_activities(), label="pair")
            tel.emit_snapshot()
        tel.close()

        assert campaign.resumed_indices  # the kill left something to resume
        robustness = result.robustness

        records = read_jsonl(jsonl)  # parseable end to end, both runs
        metrics = [r for r in records if r["kind"] == "metrics"][-1]
        counters = metrics["counters"]

        # The acceptance invariant: the telemetry stream's totals equal
        # the RobustnessReport ledger for the same run, exactly.
        assert counters["captures_total"] == len(result.measurements)
        assert counters["captures_resumed"] == len(campaign.resumed_indices)
        assert counters["faults_injected"] == robustness.n_injected
        assert counters.get("capture_timeouts", 0) == robustness.n_timeouts
        assert counters.get("capture_retries", 0) == sum(robustness.retries.values())
        assert counters.get("captures_excluded", 0) == robustness.n_excluded
        assert counters.get("captures_dropped", 0) == len(robustness.dropped)
        assert counters.get("screen_rejections", 0) == sum(
            1 for m in result.measurements if m.flagged
        )

        # Event stream agrees with the counters too.
        resumed_events = [
            r for r in records if r["kind"] == "event" and r["name"] == "capture-resumed"
        ]
        assert len(resumed_events) == len(campaign.resumed_indices)
        assert sorted(e["attrs"]["index"] for e in resumed_events) == sorted(
            campaign.resumed_indices
        )

    def test_timeouts_are_counted(self, tmp_path):
        import time as time_module

        class HangOnce:
            """Hang the second falt's first attempt past the watchdog."""

            def __init__(self, machine):
                self._machine = machine
                self._hung = False

            @property
            def name(self):
                return self._machine.name

            def scene(self, activity):
                if activity.falt == FALTS[1] and not self._hung:
                    self._hung = True
                    time_module.sleep(1.0)
                return self._machine.scene(activity)

        rec = Recorder()
        tel = Telemetry(sinks=[rec])
        with use_telemetry(tel):
            campaign = DurableCampaign(
                HangOnce(StubMachine()),
                make_config(max_capture_retries=2, capture_timeout_s=0.2),
                journal_dir=tmp_path / "journal",
                rng=np.random.default_rng(1),
                sleep=lambda _: None,
            )
            result = campaign.run_with_activities(make_activities(), label="pair")
        robustness = result.robustness
        snap = tel.snapshot()
        assert robustness.n_timeouts == 1
        assert snap.counter("capture_timeouts") == 1
        assert snap.counter("capture_retries") == sum(robustness.retries.values()) == 1
        assert len(rec.events("capture-timeout")) == 1


# ----------------------------------------------------------------------
# CLI flags


class TestCliTelemetry:
    def test_scan_writes_jsonl_and_prints_profile(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "tel.jsonl"
        code = main(
            [
                "scan", "--machine", "corei7_desktop", "--span-high", "1e6",
                "--fres", "100", "--pair", "LDM/LDL1",
                "--telemetry-jsonl", str(jsonl), "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: campaign time by stage" in out
        records = read_jsonl(jsonl)
        kinds = {r["kind"] for r in records}
        assert {"span", "metrics"} <= kinds
        metrics = [r for r in records if r["kind"] == "metrics"][-1]
        assert metrics["counters"]["captures_total"] == 5
        # Flags are opt-in: the ambient pipeline is restored afterwards.
        assert current_telemetry() is NULL_TELEMETRY

    def test_analyze_prints_recovered_robustness(self, tmp_path, capsys):
        import time as time_module

        from repro.cli import main

        class HangOnce:
            """Hang the second falt's first attempt past the watchdog."""

            name = StubMachine.name

            def __init__(self):
                self._machine = StubMachine()
                self._hung = False

            def scene(self, activity):
                if activity.falt == FALTS[1] and not self._hung:
                    self._hung = True
                    time_module.sleep(1.0)
                return self._machine.scene(activity)

        journal_dir = tmp_path / "journal"
        DurableCampaign(
            HangOnce(),
            make_config(max_capture_retries=2, capture_timeout_s=0.2),
            journal_dir=journal_dir,
            rng=np.random.default_rng(1),
            sleep=lambda _: None,
        ).run_with_activities(make_activities(), label="pair")
        # The archive is gone; recovery replays the journaled retry/timeout
        # history as robustness context on the analyze output.
        code = main(
            ["analyze", str(tmp_path / "missing.npz"), "--journal", str(journal_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered from journal" in out
        assert "timed out" in out or "retried" in out or "capture-timeout" in out

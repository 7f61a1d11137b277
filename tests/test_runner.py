"""Durable campaign execution: journal, watchdog, resume, salvage.

Everything here runs on a tiny stub machine (201-bin grid, static scenes)
so the suite exercises the durability machinery, not the simulator. The
invariant under test throughout: durable captures are pure functions of
(seed, index, attempt), so a run killed anywhere and resumed equals an
uninterrupted run exactly.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import DurableCampaign, FaseConfig, MeasurementCampaign
from repro.errors import (
    CampaignError,
    CaptureTimeoutError,
    DegradedCampaignError,
    JournalError,
)
from repro.runner import (
    JOURNAL_FORMAT,
    MAX_BACKOFF_S,
    CampaignJournal,
    CaptureWatchdog,
    backoff_delay,
    campaign_fingerprint,
    recover_campaign,
)
from repro.spectrum.analyzer import StaticScene
from repro.uarch.activity import AlternationActivity

pytestmark = pytest.mark.runner

FALTS = (1000.0, 1250.0, 1500.0, 1750.0, 2000.0)


def make_config(**overrides):
    overrides.setdefault("span_low", 0.0)
    overrides.setdefault("span_high", 2e4)
    overrides.setdefault("fres", 100.0)
    overrides.setdefault("name", "runner test")
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


class HangAt:
    """Hang (sleep) instead of returning a scene for the given falts."""

    def __init__(self, machine, hang_falts, hang_s=5.0, hang_attempts=None):
        self._machine = machine
        self._hang_falts = set(hang_falts)
        self._hang_s = hang_s
        self._hang_attempts = hang_attempts  # None: hang every attempt
        self._calls = {}

    @property
    def name(self):
        return self._machine.name

    def scene(self, activity):
        if activity.falt in self._hang_falts:
            seen = self._calls.get(activity.falt, 0)
            self._calls[activity.falt] = seen + 1
            if self._hang_attempts is None or seen < self._hang_attempts:
                time.sleep(self._hang_s)
        return self._machine.scene(activity)


def durable(journal_dir, machine=None, config=None, seed=1, **kwargs):
    kwargs.setdefault("sleep", lambda _: None)
    return DurableCampaign(
        machine or StubMachine(),
        config or make_config(),
        journal_dir=journal_dir,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


def assert_same_result(a, b):
    assert a.falts == b.falts
    assert len(a.measurements) == len(b.measurements)
    for ours, theirs in zip(a.measurements, b.measurements):
        np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)
        assert ours.flagged == theirs.flagged


class TestBackoff:
    def test_doubles_per_retry(self):
        assert [backoff_delay(r, 0.5) for r in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 4.0]

    def test_capped(self):
        assert backoff_delay(50, 0.5) == MAX_BACKOFF_S
        assert backoff_delay(3, 10.0, cap_s=15.0) == 15.0

    def test_zero_base_or_retry_disables(self):
        assert backoff_delay(3, 0.0) == 0.0
        assert backoff_delay(0, 0.5) == 0.0


class TestWatchdog:
    def test_disabled_is_a_direct_call(self):
        assert CaptureWatchdog(None).run(lambda: 42) == 42

    def test_result_returned_under_deadline(self):
        assert CaptureWatchdog(5.0).run(lambda: "ok") == "ok"

    def test_exceptions_propagate_unchanged(self):
        with pytest.raises(ValueError, match="inner"):
            CaptureWatchdog(5.0).run(lambda: (_ for _ in ()).throw(ValueError("inner")))

    def test_hung_call_abandoned_at_deadline(self):
        start = time.monotonic()
        with pytest.raises(CaptureTimeoutError) as info:
            CaptureWatchdog(0.05).run(lambda: time.sleep(5.0), index=3, attempt=1)
        assert time.monotonic() - start < 2.0
        assert info.value.index == 3
        assert info.value.attempt == 1

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            CaptureWatchdog(0.0)


class TestJournal:
    def fingerprint(self, config=None, seed=1):
        return campaign_fingerprint(
            config or make_config(), "stub machine", "pair", np.random.default_rng(seed)
        )

    def create(self, tmp_path, config=None):
        config = config or make_config()
        journal = CampaignJournal(tmp_path / "journal")
        journal.create(self.fingerprint(config), config, "stub machine", "pair", FALTS)
        return journal

    def test_create_open_roundtrip(self, tmp_path):
        config = make_config()
        journal = self.create(tmp_path, config)
        assert journal.exists()
        reopened = CampaignJournal(tmp_path / "journal").open(self.fingerprint(config))
        assert reopened.config() == config
        assert reopened.header["format"] == JOURNAL_FORMAT
        assert reopened.header["falts"] == list(FALTS)

    def test_open_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            CampaignJournal(tmp_path / "nope").open()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        self.create(tmp_path)
        with pytest.raises(JournalError, match="different campaign"):
            CampaignJournal(tmp_path / "journal").open(self.fingerprint(seed=99))

    def test_unsupported_format_refused(self, tmp_path):
        journal = self.create(tmp_path)
        header = json.loads((journal.directory / "HEADER.json").read_text())
        header["format"] = "fase-journal-v999"
        (journal.directory / "HEADER.json").write_text(json.dumps(header))
        with pytest.raises(JournalError, match="format"):
            CampaignJournal(journal.directory).open()

    def test_fingerprint_ignores_runtime_knobs(self):
        base = self.fingerprint(make_config())
        tuned = self.fingerprint(
            make_config(n_workers=4, max_capture_retries=5, capture_timeout_s=1.0,
                        retry_backoff_s=0.01)
        )
        assert base == tuned
        assert base != self.fingerprint(make_config(fres=50.0))

    def _append(self, journal, index, attempt=0, falt=None, power=None):
        grid = make_config().grid()
        activity = AlternationActivity(
            falt=FALTS[index] if falt is None else falt, levels_x={}, levels_y={}
        )
        from repro.spectrum.trace import SpectrumTrace

        trace = SpectrumTrace(
            grid,
            np.full(grid.n_bins, 1e-12) if power is None else power,
            label=f"capture {index}",
        )
        journal.append(index, attempt, activity, trace)
        return trace

    def test_records_take_highest_attempt(self, tmp_path):
        journal = self.create(tmp_path)
        grid = make_config().grid()
        self._append(journal, 0, attempt=0)
        best = self._append(journal, 0, attempt=2, power=np.full(grid.n_bins, 2e-12))
        records = journal.records(grid)
        assert set(records) == {0}
        assert records[0].attempt == 2
        np.testing.assert_array_equal(records[0].trace.power_mw, best.power_mw)

    def test_resumed_traces_reference_checkpoint_files(self, tmp_path):
        """Records are written uncompressed so resume *references* each
        checkpoint file through a read-only memmap instead of copying the
        trace onto the heap."""
        journal = self.create(tmp_path)
        grid = make_config().grid()
        written = self._append(journal, 0)
        records = journal.records(grid)
        power = records[0].trace.power_mw
        # Zero-copy: the trace is a read-only view whose buffer is the
        # mapped checkpoint file, not a heap copy.
        assert not power.flags.owndata
        assert not power.flags.writeable
        import mmap as _mmap

        base = power
        while isinstance(base, np.ndarray) and base.base is not None:
            if isinstance(base, np.memmap):
                break
            base = base.base
        assert isinstance(base, (np.memmap, _mmap.mmap))
        np.testing.assert_array_equal(power, written.power_mw)
        # Opting out still round-trips exactly, on the heap (writable,
        # no mapped buffer underneath).
        eager = journal.records(grid, mmap=False)
        assert eager[0].trace.power_mw.flags.writeable
        np.testing.assert_array_equal(eager[0].trace.power_mw, written.power_mw)

    def test_legacy_compressed_records_still_load(self, tmp_path):
        """Records written by earlier versions (np.savez_compressed) fail
        the mmap fast path and fall back to a heap copy, checksum and all."""
        journal = self.create(tmp_path)
        grid = make_config().grid()
        written = self._append(journal, 0)
        path = journal.directory / "record-00000-a0.npz"
        with np.load(path, allow_pickle=False) as archive:
            meta = str(archive["meta"])
            power = np.asarray(archive["power"])
        np.savez_compressed(path, meta=meta, power=power)
        records = journal.records(grid)
        assert set(records) == {0}
        assert not isinstance(records[0].trace.power_mw, np.memmap)
        np.testing.assert_array_equal(records[0].trace.power_mw, written.power_mw)

    def test_truncated_record_skipped(self, tmp_path):
        journal = self.create(tmp_path)
        grid = make_config().grid()
        self._append(journal, 0)
        self._append(journal, 1)
        victim = journal.directory / "record-00001-a0.npz"
        victim.write_bytes(victim.read_bytes()[:100])
        assert set(journal.records(grid)) == {0}

    def test_garbage_and_tmp_files_ignored(self, tmp_path):
        journal = self.create(tmp_path)
        grid = make_config().grid()
        self._append(journal, 2)
        (journal.directory / "record-00003-a0.npz").write_bytes(b"not an archive")
        (journal.directory / "record-00004-a0.npz.tmp").write_bytes(b"half a write")
        (journal.directory / "notes.txt").write_text("unrelated")
        assert set(journal.records(grid)) == {2}

    def test_checksum_mismatch_skipped(self, tmp_path):
        journal = self.create(tmp_path)
        grid = make_config().grid()
        self._append(journal, 0)
        path = journal.directory / "record-00000-a0.npz"
        with np.load(path, allow_pickle=False) as archive:
            meta = str(archive["meta"])
            power = np.asarray(archive["power"]) * 3.0  # silent corruption
        np.savez_compressed(path, meta=meta, power=power)
        assert journal.records(grid) == {}

    def test_wrong_grid_shape_skipped(self, tmp_path):
        journal = self.create(tmp_path)
        self._append(journal, 0)
        other_grid = make_config(span_high=4e4).grid()
        assert journal.records(other_grid) == {}

    def test_discard_removes_directory(self, tmp_path):
        journal = self.create(tmp_path)
        journal.discard()
        assert not journal.exists()
        assert not journal.directory.exists()


class TestDurableResume:
    def test_clean_durable_run_equals_parallel_clean_run(self, tmp_path):
        campaign = durable(tmp_path / "j")
        result = campaign.run_with_activities(make_activities(), label="pair")
        clean = MeasurementCampaign(
            StubMachine(), make_config(n_workers=2), rng=np.random.default_rng(1)
        ).run_with_activities(make_activities(), label="pair")
        assert_same_result(result, clean)
        assert result.robustness is None
        assert campaign.resumed_indices == ()

    @pytest.mark.parametrize("kill_after", range(5))
    def test_kill_anywhere_then_resume_is_identical(self, tmp_path, kill_after):
        reference = durable(tmp_path / "ref").run_with_activities(
            make_activities(), label="pair"
        )
        journal_dir = tmp_path / "j"
        with pytest.raises(KeyboardInterrupt):
            durable(journal_dir, machine=KillAfter(StubMachine(), kill_after)).run_with_activities(
                make_activities(), label="pair"
            )
        campaign = durable(journal_dir)
        resumed = campaign.run_with_activities(make_activities(), label="pair")
        assert_same_result(resumed, reference)
        assert campaign.resumed_indices == tuple(range(kill_after))
        assert resumed.robustness is None

    def test_resume_false_refuses_existing_journal(self, tmp_path):
        durable(tmp_path / "j").run_with_activities(make_activities(), label="pair")
        with pytest.raises(JournalError, match="--resume"):
            durable(tmp_path / "j", resume=False).run_with_activities(
                make_activities(), label="pair"
            )

    def test_resume_with_different_seed_refused(self, tmp_path):
        durable(tmp_path / "j", seed=1).run_with_activities(make_activities(), label="pair")
        with pytest.raises(JournalError, match="fingerprint"):
            durable(tmp_path / "j", seed=2).run_with_activities(make_activities(), label="pair")

    def test_stale_falt_record_recaptured(self, tmp_path):
        """A journaled capture whose falt no longer matches the plan is redone."""
        durable(tmp_path / "j").run_with_activities(make_activities(), label="pair")
        shifted = list(FALTS)
        shifted[2] += 50.0
        campaign = durable(tmp_path / "j")
        result = campaign.run_with_activities(make_activities(shifted), label="pair")
        assert campaign.resumed_indices == (0, 1, 3, 4)
        assert result.falts[2] == shifted[2]

    def test_completed_journal_resumes_without_touching_the_machine(self, tmp_path):
        durable(tmp_path / "j").run_with_activities(make_activities(), label="pair")
        untouchable = KillAfter(StubMachine(), 0)  # any scene() call would raise
        campaign = durable(tmp_path / "j", machine=untouchable)
        result = campaign.run_with_activities(make_activities(), label="pair")
        assert campaign.resumed_indices == (0, 1, 2, 3, 4)
        assert len(result.measurements) == 5


class TestTimeoutsAndSalvage:
    def timeout_config(self, **overrides):
        overrides.setdefault("capture_timeout_s", 0.2)
        overrides.setdefault("retry_backoff_s", 0.25)
        return make_config(**overrides)

    def test_transient_hang_retried_and_recovered(self, tmp_path):
        delays = []
        machine = HangAt(StubMachine(), {FALTS[1]}, hang_attempts=1)
        campaign = durable(
            tmp_path / "j", machine=machine, config=self.timeout_config(),
            sleep=delays.append,
        )
        result = campaign.run_with_activities(make_activities(), label="pair")
        assert len(result.measurements) == 5
        report = result.robustness
        assert report.n_timeouts == 1
        assert report.n_injected == 0
        assert report.retries == {1: 1}
        assert report.dropped == ()
        assert delays == [0.25]
        assert "capture timeouts: 1" in report.to_text()

    def test_persistent_hang_dropped_and_salvaged(self, tmp_path):
        delays = []
        machine = HangAt(StubMachine(), {FALTS[2]})
        start = time.monotonic()
        campaign = durable(
            tmp_path / "j", machine=machine, config=self.timeout_config(),
            sleep=delays.append,
        )
        result = campaign.run_with_activities(make_activities(), label="pair")
        elapsed = time.monotonic() - start
        # 3 attempts x 0.2 s deadline plus slack: the hung analyzer never
        # holds the campaign past its watchdog budget.
        assert elapsed < 3.0
        assert len(result.measurements) == 4
        assert tuple(result.falts) == (FALTS[0], FALTS[1], FALTS[3], FALTS[4])
        report = result.robustness
        assert report.n_timeouts == 3  # initial + 2 retries, all abandoned
        assert report.dropped == (2,)
        assert report.excluded[2] == ("capture failed on all 3 attempt(s)",)
        assert delays == [0.25, 0.5]  # bounded exponential backoff
        assert "capture 2 dropped" in report.to_text()

    def test_resume_after_salvage_recaptures_only_the_dropped_index(self, tmp_path):
        machine = HangAt(StubMachine(), {FALTS[2]})
        durable(
            tmp_path / "j", machine=machine, config=self.timeout_config()
        ).run_with_activities(make_activities(), label="pair")
        campaign = durable(tmp_path / "j", config=self.timeout_config())
        result = campaign.run_with_activities(make_activities(), label="pair")
        assert campaign.resumed_indices == (0, 1, 3, 4)
        assert len(result.measurements) == 5
        reference = durable(tmp_path / "ref").run_with_activities(
            make_activities(), label="pair"
        )
        # Index 2 was recaptured on attempt 0's stream: same trace as an
        # undisturbed run.
        np.testing.assert_array_equal(
            result.measurements[2].trace.power_mw,
            reference.measurements[2].trace.power_mw,
        )

    def test_everything_hanging_raises_degraded(self, tmp_path):
        machine = HangAt(StubMachine(), set(FALTS))
        config = self.timeout_config(capture_timeout_s=0.05)
        with pytest.raises(DegradedCampaignError) as info:
            durable(tmp_path / "j", machine=machine, config=config).run_with_activities(
                make_activities(), label="pair"
            )
        assert info.value.robustness.dropped == (0, 1, 2, 3, 4)

    def test_min_good_captures_validated(self, tmp_path):
        with pytest.raises(CampaignError):
            durable(tmp_path / "j", min_good_captures=1)


class TestRecovery:
    def test_recover_campaign_from_journal(self, tmp_path):
        result = durable(tmp_path / "j").run_with_activities(make_activities(), label="pair")
        recovered = recover_campaign(tmp_path / "j")
        assert recovered.machine_name == "stub machine"
        assert recovered.activity_label == "pair"
        assert recovered.config == make_config()
        assert_same_result(recovered, result)

    def test_recover_needs_two_records(self, tmp_path):
        journal_dir = tmp_path / "j"
        with pytest.raises(KeyboardInterrupt):
            durable(journal_dir, machine=KillAfter(StubMachine(), 1)).run_with_activities(
                make_activities(), label="pair"
            )
        with pytest.raises(JournalError, match="at least two"):
            recover_campaign(journal_dir)


class TestDurableWithFaultPlan:
    def test_fault_plan_run_resumes_identically(self, tmp_path):
        from repro.faults import FaultPlan

        def run(journal_dir, machine=None):
            campaign = durable(
                journal_dir,
                machine=machine,
                config=make_config(max_capture_retries=2),
                fault_plan=FaultPlan.default(("glitch",)),
            )
            return campaign, campaign.run_with_activities(make_activities(), label="pair")

        _, reference = run(tmp_path / "ref")
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path / "j", machine=KillAfter(StubMachine(), 3))
        campaign, resumed = run(tmp_path / "j")
        assert set(campaign.resumed_indices) >= {0, 1, 2}
        assert_same_result(resumed, reference)
        ours, theirs = resumed.robustness, reference.robustness
        assert ours.retries == theirs.retries
        assert ours.excluded == theirs.excluded
        assert [e.fault for e in ours.events] == [e.fault for e in theirs.events]


class OverlapFirstTwo(StubMachine):
    """A machine whose first two scene builds must run at the same time."""

    def __init__(self):
        self._barrier = threading.Barrier(2, timeout=10)
        self._lock = threading.Lock()
        self._calls = 0

    def scene(self, activity):
        with self._lock:
            call = self._calls
            self._calls += 1
        if call < 2:
            self._barrier.wait()
        return super().scene(activity)


class TestDurableWorkers:
    def test_captures_run_on_n_workers_threads(self, tmp_path):
        campaign = durable(
            tmp_path / "j", machine=OverlapFirstTwo(), config=make_config(n_workers=2)
        )
        result = campaign.run_with_activities(make_activities(), label="pair")
        assert len(result.measurements) == 5

    def test_worker_count_changes_neither_traces_nor_journal(self, tmp_path):
        from repro.faults import FaultPlan

        def run(n_workers):
            journal_dir = tmp_path / f"j{n_workers}"
            result = durable(
                journal_dir,
                config=make_config(n_workers=n_workers),
                fault_plan=FaultPlan.default(),
                seed=3,
            ).run_with_activities(make_activities(), label="pair")
            records = {
                path.name: path.read_bytes() for path in journal_dir.glob("record-*.npz")
            }
            return result, records

        (serial, serial_records), (threaded, threaded_records) = run(1), run(2)
        assert serial.robustness.retries  # the plan forced re-captures
        assert_same_result(threaded, serial)
        assert threaded.robustness.events == serial.robustness.events
        assert threaded.robustness.excluded == serial.robustness.excluded
        assert threaded.robustness.retries == serial.robustness.retries
        assert threaded_records == serial_records

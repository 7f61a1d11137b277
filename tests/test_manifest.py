"""The survey manifest: serialization fidelity, identity, damage tolerance.

The manifest's contract has three legs, each tested here at the unit
level (the ``chaos`` tier in ``test_chaos.py`` attacks the same contract
end to end): a restored :class:`~repro.survey.ShardResult` compares
*equal* to the original (JSON floats round-trip exactly, which is what
lets resume assert byte-identical reports); a manifest can never be
spliced into the wrong survey (plan fingerprint in the header); and a
mutilated log — torn tail, corrupt interior line, disk that stopped
accepting writes — degrades coverage or durability, never correctness.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import FaseConfig, MicroOp, run_survey
from repro.core.detect import CarrierDetection
from repro.core.harmonics import HarmonicSet
from repro.core.report import ActivityReport
from repro.errors import ManifestError
from repro.survey import (
    DURABILITY_DEGRADED,
    MANIFEST_FORMAT,
    SurveyLedger,
    SurveyManifest,
    plan_fingerprint,
    plan_shards,
    recover_survey_report,
    run_shard,
)
from repro.survey.chaos import (
    count_attempts,
    count_records,
    manifest_disk_full,
    torn_manifest_tail,
    truncate_manifest,
    well_behaved_shard,
)
from repro.survey.manifest import (
    replay_ledger,
    shard_result_from_dict,
    shard_result_to_dict,
)
from repro.survey.shards import ShardResult
from repro.telemetry import Recorder, Telemetry

pytestmark = pytest.mark.survey

#: Small but real: 2000-bin grid with a populated low band.
SMALL = FaseConfig(
    span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3,
    name="manifest test",
)
ONE_PAIR = ((MicroOp.LDM, MicroOp.LDL1),)


def _scratch_config(base):
    """A tiny config whose ``name`` smuggles the scratch dir to stubs."""
    return FaseConfig(
        span_low=0.0, span_high=1e5, fres=50.0, falt1=43.3e3, f_delta=1e3, name=str(base)
    )


def _stub_plan(base):
    return dict(
        machines=("corei7_desktop", "turionx2_laptop"),
        pairs=ONE_PAIR,
        config=_scratch_config(base),
    )


# ----------------------------------------------------------------------
# ShardResult (de)serialization.


class TestShardResultRoundTrip:
    def test_handcrafted_result_with_numpy_scalars(self):
        """np.float64 values serialize to JSON and restore comparing equal;
        harmonic-set members restore by index (identity into the
        detections list) or inline."""
        detections = [
            CarrierDetection(
                frequency=np.float64(315e3),
                combined_score=np.float64(4.25),
                harmonic_scores={1: np.float64(2.5), 3: np.float64(1.75)},
                magnitude_dbm=np.float64(-41.125),
                modulation_depth=np.float64(0.625),
                activity_label="LDM/LDL1",
            ),
            CarrierDetection(
                frequency=630e3,
                combined_score=2.0,
                harmonic_scores={1: 2.0},
                magnitude_dbm=-55.5,
                modulation_depth=0.25,
                activity_label="LDM/LDL1",
            ),
        ]
        foreign = CarrierDetection(
            frequency=945e3, combined_score=1.0, harmonic_scores={},
            magnitude_dbm=-60.0, modulation_depth=0.1, activity_label="LDM/LDL1",
        )
        sets = [
            HarmonicSet(
                fundamental=315e3,
                members=((1, detections[0]), (2, detections[1]), (3, foreign)),
            )
        ]
        original = ShardResult(
            shard_id="corei7_desktop|LDM-LDL1|full",
            machine="corei7_desktop",
            machine_name="Core i7 desktop",
            config_description="manifest round-trip fixture",
            pair_label="LDM/LDL1",
            band="full",
            is_memory_pair=True,
            activity=ActivityReport(
                activity_label="LDM/LDL1", detections=detections, harmonic_sets=sets
            ),
            metrics={"counters": {"captures_total": 5}, "gauges": {}, "histograms": {}},
        )
        payload = shard_result_to_dict(original)
        json.dumps(payload)  # must already be JSON-clean, numpy included
        restored = shard_result_from_dict(json.loads(json.dumps(payload)))
        assert restored.activity.detections == original.activity.detections
        assert restored.activity.harmonic_sets == original.activity.harmonic_sets
        assert restored.metrics == original.metrics
        # Index-encoded members restore to the *same objects* as the
        # restored detections list, preserving the original aliasing.
        restored_set = restored.activity.harmonic_sets[0]
        assert restored_set.members[0][1] is restored.activity.detections[0]
        assert restored_set.members[2][1] == foreign

    def test_real_shard_result_round_trips_equal(self):
        [spec] = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL)
        original = run_shard(spec)
        assert original.activity.detections  # fixture must be non-trivial
        restored = shard_result_from_dict(
            json.loads(json.dumps(shard_result_to_dict(original)))
        )
        assert restored.activity.detections == original.activity.detections
        assert restored.activity.harmonic_sets == original.activity.harmonic_sets
        assert restored.shard_id == original.shard_id
        assert restored.spectra is None  # spectra are deliberately stripped


# ----------------------------------------------------------------------
# Plan identity: the fingerprint and what it guards.


class TestPlanFingerprint:
    def test_sensitive_to_seed_and_plan_not_runtime_knobs(self):
        specs = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL)
        baseline = plan_fingerprint(specs)
        reseeded = plan_shards(
            machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL, seed=1
        )
        assert plan_fingerprint(reseeded) != baseline
        # keep_spectra / heartbeat paths are runtime knobs, not identity.
        tuned = [
            dataclasses.replace(spec, keep_spectra=True, heartbeat_path="/tmp/hb")
            for spec in specs
        ]
        assert plan_fingerprint(tuned) == baseline

    def test_open_rejects_foreign_fingerprint(self, tmp_path):
        specs = plan_shards(machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL)
        manifest = SurveyManifest(tmp_path / "m")
        manifest.create(plan_fingerprint(specs), specs)
        assert manifest.degraded is None
        with pytest.raises(ManifestError, match="different survey plan"):
            SurveyManifest(tmp_path / "m").open("0" * 64)
        # The right fingerprint (and no fingerprint) both open fine.
        assert SurveyManifest(tmp_path / "m").open(plan_fingerprint(specs))
        assert SurveyManifest(tmp_path / "m").open().header["format"] == MANIFEST_FORMAT

    def test_open_missing_and_unreadable_header(self, tmp_path):
        with pytest.raises(ManifestError, match="no survey manifest"):
            SurveyManifest(tmp_path / "absent").open()
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "HEADER.json").write_text("{not json")
        with pytest.raises(ManifestError, match="unreadable"):
            SurveyManifest(bad).open()

    def test_existing_manifest_without_resume_is_refused(self, tmp_path):
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        with pytest.raises(ManifestError, match="pass resume=True"):
            run_survey(
                **plan, shard_fn=well_behaved_shard,
                manifest_dir=manifest_dir, resume=False,
            )


# ----------------------------------------------------------------------
# Damage tolerance in the loader and the append path.


class TestDamageTolerance:
    def test_torn_tail_is_dropped_then_sealed_on_next_append(self, tmp_path):
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        report = run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        intact = count_records(manifest_dir)
        assert report.n_completed == 2 and intact >= 2

        torn_manifest_tail(manifest_dir)
        state = SurveyManifest(manifest_dir).open().load()
        assert state.torn_tail and state.n_damaged == 0
        assert len(state.results) == 2  # everything before the tear is trusted

        # The first append of a resumed run must seal the fragment into
        # its own line, not weld the fresh record onto the garbage.
        manifest = SurveyManifest(manifest_dir).open()
        manifest.append_ledger({"event": "requeue", "shard_id": "s-after-tear"})
        state = manifest.load()
        assert not state.torn_tail and state.n_damaged == 1
        assert len(state.results) == 2
        assert any(e.get("shard_id") == "s-after-tear" for e in state.ledger_events)

    def test_corrupt_interior_line_is_skipped(self, tmp_path):
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        log = manifest_dir / "manifest.jsonl"
        lines = log.read_bytes().splitlines()
        lines[0] = lines[0][:-10] + b'corrupted"'  # checksum now fails
        log.write_bytes(b"".join(line + b"\n" for line in lines))
        state = SurveyManifest(manifest_dir).open().load()
        assert state.n_damaged == 1 and not state.torn_tail
        assert len(state.results) == 1  # the damaged shard simply re-runs

    def test_disk_full_degrades_survey_not_crashes(self, tmp_path):
        """When appends start failing the survey finishes non-durably,
        ledgers the downgrade once, and emits the telemetry event."""
        plan = _stub_plan(tmp_path)
        recorder = Recorder()
        with manifest_disk_full(after=1):
            report = run_survey(
                **plan,
                shard_fn=well_behaved_shard,
                manifest_dir=tmp_path / "manifest",
                telemetry=Telemetry(sinks=[recorder]),
            )
        assert report.n_completed == 2  # every shard still ran
        notes = [n for n in report.ledger.notes if n[1] == DURABILITY_DEGRADED]
        assert len(notes) == 1
        assert "continues non-durably" in notes[0][2]
        events = recorder.events("survey-durability-degraded")
        assert len(events) == 1
        assert "No space left on device" in events[0]["attrs"]["reason"]


# ----------------------------------------------------------------------
# Resume semantics: completed shards are skipped, history replays.


class TestResume:
    def test_resume_skips_completed_shards_and_matches(self, tmp_path):
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        first = run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        specs = plan_shards(**plan)
        assert all(count_attempts(tmp_path, s.shard_id) == 1 for s in specs)

        recorder = Recorder()
        second = run_survey(
            **plan,
            shard_fn=well_behaved_shard,
            manifest_dir=manifest_dir,
            telemetry=Telemetry(sinks=[recorder]),
        )
        # No shard executed again; the report is rebuilt from the journal.
        assert all(count_attempts(tmp_path, s.shard_id) == 1 for s in specs)
        assert second.n_completed == first.n_completed == 2
        assert set(second.machines) == set(first.machines)
        resumed = recorder.events("survey-resumed")
        assert len(resumed) == 1
        assert resumed[0]["attrs"]["n_restored"] == 2

    def test_recover_survey_report_offline(self, tmp_path):
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        live = run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        recovered = recover_survey_report(manifest_dir)
        assert recovered.n_shards == live.n_shards
        assert recovered.n_completed == live.n_completed
        assert set(recovered.machines) == set(live.machines)
        assert "all shards completed cleanly" in recovered.ledger.to_text()


# ----------------------------------------------------------------------
# Compatibility: manifests journaled by earlier versions still load.


class TestOldManifests:
    def test_shm_fallback_note_still_loads_resumes_and_narrates(self, tmp_path):
        """Earlier versions journaled an ``shm-fallback`` note when a
        shard's shared-memory block could not be allocated, before any
        shard ran. Such a manifest still opens, replays the note, resumes
        to completion, and narrates the note offline and live."""
        plan = _stub_plan(tmp_path)
        manifest_dir = tmp_path / "manifest"
        run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        victim = plan_shards(**plan)[0].shard_id
        detail = (
            "shared-memory allocation failed ([Errno 28] No space left on device); "
            "this shard's spectra ride the pickle stream"
        )
        # A parent killed after journaling the note, before any shard finished.
        truncate_manifest(manifest_dir, 0)
        SurveyManifest(manifest_dir).open().append_ledger(
            {"event": "note", "scope": victim, "note_kind": "shm-fallback", "detail": detail}
        )

        state = SurveyManifest(manifest_dir).open().load()
        assert state.n_damaged == 0 and not state.results
        replayed = SurveyLedger()
        replay_ledger(replayed, state.ledger_events)
        assert replayed.notes == [(victim, "shm-fallback", detail)]

        offline = recover_survey_report(manifest_dir)
        assert offline.n_completed == 0
        assert f"shm-fallback {victim}: " in offline.ledger.to_text()

        resumed = run_survey(**plan, shard_fn=well_behaved_shard, manifest_dir=manifest_dir)
        assert resumed.n_completed == resumed.n_shards == 2
        assert resumed.ledger.notes == [(victim, "shm-fallback", detail)]
        assert f"shm-fallback {victim}: " in resumed.to_text()

        recovered = recover_survey_report(manifest_dir)
        assert recovered.n_completed == 2
        assert recovered.ledger.notes == [(victim, "shm-fallback", detail)]
